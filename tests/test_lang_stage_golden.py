"""Golden tests: evaluate/sugar stages in isolation on hand-built ASTs.

The differential harness proves staged == monolithic end to end; these
tests pin down the *individual* stage functions by feeding a hand-built AST
(no parser involved) straight into :func:`repro.lang.compile.evaluate_stage`
and :func:`~repro.lang.compile.sugar_stage`, asserting the exact
duplicator/voider insertion counts of the paper's Figure 4 example
(``b0 = a + 10; b1 = a * 2``: one 2-channel duplicator for the doubly-used
``a``, one voider for the ``unused`` output).
"""

from __future__ import annotations

import pytest

from repro.errors import DiagnosticSink
from repro.lang import ast
from repro.lang.compile import (
    compile_project,
    drc_stage,
    evaluate_stage,
    sugar_stage,
)
from repro.utils.source import SourceFile

SPAN = SourceFile("x", "golden.td").span(0, 1)  # 1:1 .. 1:2


def _stream_of_bits(width: int) -> ast.StreamTypeExpr:
    return ast.StreamTypeExpr(
        SPAN,
        element=ast.BitTypeExpr(SPAN, width=ast.Literal(SPAN, value=width)),
        arguments=(("d", ast.Literal(SPAN, value=1)),),
    )


def _port(name: str, direction: str) -> ast.PortDecl:
    return ast.PortDecl(SPAN, name=name, type_expr=ast.NamedTypeExpr(SPAN, "num"), direction=direction)


def _external(name: str, streamlet: str) -> ast.ImplDecl:
    return ast.ImplDecl(
        SPAN, name=name, params=(), streamlet=streamlet, streamlet_args=(), body=(), external=True
    )


def _connect(src_owner, src_port, sink_owner, sink_port) -> ast.ConnectionStmt:
    return ast.ConnectionStmt(
        SPAN,
        source=ast.PortRefExpr(SPAN, port=src_port, owner=src_owner),
        sink=ast.PortRefExpr(SPAN, port=sink_port, owner=sink_owner),
    )


def figure4_unit(*, extra_consumers: int = 0) -> ast.SourceUnit:
    """The paper's Figure 4 design as a hand-built AST (no parser).

    ``extra_consumers`` adds further sinks on the shared ``a`` output so the
    inferred duplicator channel count can be asserted beyond Figure 4's two.
    """
    consumers = ["adder", "multiplier"] + [f"extra{i}" for i in range(extra_consumers)]
    demo_ports = tuple(_port(f"b{i}", "out") for i in range(len(consumers)))
    body: list[ast.ImplItem] = [ast.InstanceDecl(SPAN, name="source", target="producer_i")]
    impl_of = {"adder": "adder10_i", "multiplier": "doubler_i"}
    for name in consumers:
        body.append(ast.InstanceDecl(SPAN, name=name, target=impl_of.get(name, "adder10_i")))
    for index, name in enumerate(consumers):
        body.append(_connect("source", "a", name, "value"))
        body.append(_connect(name, "result", None, f"b{index}"))
    declarations: list[ast.Declaration] = [
        ast.TypeAliasDecl(SPAN, name="num", type_expr=_stream_of_bits(32)),
        ast.StreamletDecl(
            SPAN, name="producer_s", params=(), ports=(_port("a", "out"), _port("unused", "out"))
        ),
        _external("producer_i", "producer_s"),
        ast.StreamletDecl(
            SPAN, name="unary_op_s", params=(), ports=(_port("value", "in"), _port("result", "out"))
        ),
        _external("adder10_i", "unary_op_s"),
        _external("doubler_i", "unary_op_s"),
        ast.StreamletDecl(SPAN, name="demo_s", params=(), ports=demo_ports),
        ast.ImplDecl(
            SPAN, name="demo_i", params=(), streamlet="demo_s", streamlet_args=(), body=tuple(body)
        ),
        ast.TopDecl(SPAN, name="demo_i"),
    ]
    return ast.SourceUnit(package="golden", declarations=declarations, filename="golden.td")


class TestEvaluateStageGolden:
    def test_evaluates_handbuilt_ast_to_flat_design(self):
        diagnostics = DiagnosticSink()
        project, entry = evaluate_stage([figure4_unit()], diagnostics, project_name="golden")
        assert entry.name == "evaluate"
        demo = project.implementation("demo_i")
        assert len(demo.instances) == 3
        assert len(demo.connections) == 4
        assert project.top == "demo_i"

    def test_handbuilt_ast_matches_parsed_source(self):
        """The same design written as text compiles to the same flat shape."""
        source = """
        type num = Stream(Bit(32), d=1);
        streamlet producer_s { a: num out, unused: num out, }
        external impl producer_i of producer_s;
        streamlet unary_op_s { value: num in, result: num out, }
        external impl adder10_i of unary_op_s;
        external impl doubler_i of unary_op_s;
        streamlet demo_s { b0: num out, b1: num out, }
        impl demo_i of demo_s {
            instance source(producer_i),
            instance adder(adder10_i),
            instance multiplier(doubler_i),
            source.a => adder.value,
            source.a => multiplier.value,
            adder.result => b0,
            multiplier.result => b1,
        }
        top demo_i;
        """
        diagnostics = DiagnosticSink()
        handbuilt, _ = evaluate_stage([figure4_unit()], diagnostics, project_name="design")
        parsed = compile_project(source, include_stdlib=False, sugaring=False, run_drc=False)
        assert handbuilt.statistics() == parsed.project.statistics()

    def test_evaluate_stage_detail_line(self):
        diagnostics = DiagnosticSink()
        _, entry = evaluate_stage([figure4_unit()], diagnostics)
        assert "3 instance(s)" in entry.detail
        assert "4 connection(s)" in entry.detail


class TestSugarStageGolden:
    def test_figure4_insertion_counts(self):
        """Figure 4: exactly one 2-channel duplicator and one voider."""
        diagnostics = DiagnosticSink()
        project, _ = evaluate_stage([figure4_unit()], diagnostics)
        report, entry = sugar_stage(project, diagnostics)
        assert entry.name == "sugaring"
        assert report.duplicators_inserted == 1
        assert report.voiders_inserted == 1
        assert entry.detail == "sugaring inserted 1 duplicator(s) and 1 voider(s)"

        (dup,) = [a for a in report.actions if a.kind == "duplicator"]
        assert dup.channels == 2
        assert dup.implementation == "demo_i"
        assert dup.source == "source.a"
        (void,) = [a for a in report.actions if a.kind == "voider"]
        assert void.source == "source.unused"

        # The rewritten design passes a strict DRC (point-to-point restored).
        drc_report, _ = drc_stage(project, diagnostics, strict=True)
        assert drc_report.passed()

    @pytest.mark.parametrize("extra_consumers", [1, 2, 3])
    def test_duplicator_channels_match_fanout(self, extra_consumers):
        """The inferred channel count follows the number of sinks exactly."""
        diagnostics = DiagnosticSink()
        project, _ = evaluate_stage([figure4_unit(extra_consumers=extra_consumers)], diagnostics)
        report, _ = sugar_stage(project, diagnostics)
        (dup,) = [a for a in report.actions if a.kind == "duplicator"]
        assert dup.channels == 2 + extra_consumers
        assert report.voiders_inserted == 1

    def test_sugar_stage_emits_diagnostics(self):
        diagnostics = DiagnosticSink()
        project, _ = evaluate_stage([figure4_unit()], diagnostics)
        before = len(diagnostics)
        sugar_stage(project, diagnostics)
        messages = [d.message for d in diagnostics][before:]
        assert any("duplicator" in m for m in messages)
        assert any("voider" in m for m in messages)
