"""Unit tests for evaluation/expansion: templates, for/if/assert, arrays."""

import pytest

from repro.errors import (
    TydiAssertionError,
    TydiEvaluationError,
    TydiNameError,
    TydiTypeError,
)
from repro.lang.compile import compile_project
from repro.spec.logical_types import Stream


def compile_ok(source, **kwargs):
    kwargs.setdefault("include_stdlib", False)
    return compile_project(source, **kwargs)


BASIC_TYPES = """
type byte_stream = Stream(Bit(8), d=1);
"""


class TestConstantsAndTypes:
    def test_constant_forward_reference(self):
        source = """
        const total = half * 2;
        const half = 4;
        type t = Stream(Bit(total), d=1);
        streamlet s { p: t in, q: t out, }
        impl i of s { p => q, }
        top i;
        """
        result = compile_ok(source)
        port = result.project.streamlet("s").port("p")
        assert port.logical_type.data_width() == 8

    def test_constant_cycle_detected(self):
        source = "const a = b;\nconst b = a;\nstreamlet s { }\nimpl i of s {}\ntop i;"
        with pytest.raises(TydiEvaluationError):
            compile_ok(source)

    def test_duplicate_declaration_rejected(self):
        source = "const x = 1;\nconst x = 2;"
        with pytest.raises(TydiEvaluationError):
            compile_ok(source)

    def test_named_group_interned(self):
        source = """
        Group Pixel { r: Bit(8), g: Bit(8), b: Bit(8), }
        type pix_stream = Stream(Pixel, d=1);
        streamlet s { i: pix_stream in, o: pix_stream out, }
        impl impl_i of s { i => o, }
        top impl_i;
        """
        result = compile_ok(source)
        streamlet = result.project.streamlet("s")
        assert streamlet.port("i").logical_type is streamlet.port("o").logical_type
        assert streamlet.port("i").logical_type.data_width() == 24

    def test_cyclic_type_detected(self):
        source = "type a = b;\ntype b = a;\nstreamlet s { p: a in, }\nimpl i of s {}\ntop i;"
        with pytest.raises(TydiTypeError):
            compile_ok(source, run_drc=False)

    def test_bit_width_from_expression(self):
        source = """
        const digits = 15;
        type decimal_t = Stream(Bit(ceil(log2(10 ^ digits - 1))), d=1);
        streamlet s { a: decimal_t in, b: decimal_t out, }
        impl i of s { a => b, }
        top i;
        """
        result = compile_ok(source)
        assert result.project.streamlet("s").port("a").logical_type.data_width() == 50

    def test_undefined_type_reported(self):
        source = "streamlet s { p: mystery_t in, }\nimpl i of s {}\ntop i;"
        with pytest.raises(TydiNameError):
            compile_ok(source, run_drc=False)


class TestTemplates:
    PASSTHROUGH = BASIC_TYPES + """
    streamlet pass_s<t: type> { input: t in, output: t out, }
    external impl pass_i<t: type> of pass_s<type t>;
    streamlet top_s { i: byte_stream in, o: byte_stream out, }
    impl top_i of top_s {
        instance p(pass_i<type byte_stream>),
        i => p.input,
        p.output => o,
    }
    top top_i;
    """

    def test_template_instantiation(self):
        result = compile_ok(self.PASSTHROUGH)
        names = list(result.project.implementations)
        assert any(name.startswith("pass_i") for name in names)

    def test_same_arguments_share_instance(self):
        source = BASIC_TYPES + """
        streamlet pass_s<t: type> { input: t in, output: t out, }
        external impl pass_i<t: type> of pass_s<type t>;
        streamlet top_s { i: byte_stream in, o: byte_stream out, o2: byte_stream out, }
        impl top_i of top_s {
            instance a(pass_i<type byte_stream>),
            instance b(pass_i<type byte_stream>),
            i => a.input,
            a.output => b.input,
            b.output => o,
            a.output => o2,
        }
        top top_i;
        """
        result = compile_ok(source, sugaring=True)
        pass_impls = [n for n in result.project.implementations if n.startswith("pass_i")]
        assert len(pass_impls) == 1  # both instances share the same concrete impl

    def test_different_arguments_distinct_instances(self):
        source = """
        type a_t = Stream(Bit(8), d=1);
        type b_t = Stream(Bit(16), d=1);
        streamlet pass_s<t: type> { input: t in, output: t out, }
        external impl pass_i<t: type> of pass_s<type t>;
        streamlet top_s { ia: a_t in, oa: a_t out, ib: b_t in, ob: b_t out, }
        impl top_i of top_s {
            instance pa(pass_i<type a_t>),
            instance pb(pass_i<type b_t>),
            ia => pa.input, pa.output => oa,
            ib => pb.input, pb.output => ob,
        }
        top top_i;
        """
        result = compile_ok(source)
        pass_impls = [n for n in result.project.implementations if n.startswith("pass_i")]
        assert len(pass_impls) == 2

    def test_wrong_argument_count(self):
        source = BASIC_TYPES + """
        streamlet pass_s<t: type> { input: t in, output: t out, }
        external impl pass_i<t: type> of pass_s<type t>;
        streamlet top_s { i: byte_stream in, o: byte_stream out, }
        impl top_i of top_s { instance p(pass_i<type byte_stream, 3>), i => p.input, p.output => o, }
        top top_i;
        """
        with pytest.raises(TydiEvaluationError):
            compile_ok(source)

    def test_wrong_argument_kind(self):
        source = BASIC_TYPES + """
        streamlet rep_s<n: int> { input: byte_stream in, output: byte_stream out [n], }
        external impl rep_i<n: int> of rep_s<n>;
        streamlet top_s { i: byte_stream in, o: byte_stream out, }
        impl top_i of top_s { instance r(rep_i<"four">), i => r.input, r.output[0] => o, }
        top top_i;
        """
        with pytest.raises(TydiTypeError):
            compile_ok(source)

    def test_impl_argument_must_derive_from_streamlet(self):
        source = BASIC_TYPES + """
        streamlet unit_s<t: type> { input: t in, output: t out, }
        streamlet other_s { x: byte_stream in, }
        external impl wrong_i of other_s;
        streamlet wrap_s { i: byte_stream in, o: byte_stream out, }
        impl wrap_i<pu: impl of unit_s> of wrap_s {
            instance u(pu),
            i => u.input,
            u.output => o,
        }
        impl top_i of wrap_s {
            instance w(wrap_i<impl wrong_i>),
            i => w.i,
            w.o => o,
        }
        top top_i;
        """
        with pytest.raises(TydiTypeError):
            compile_ok(source)

    def test_recursive_instantiation_detected(self):
        source = BASIC_TYPES + """
        streamlet loop_s { i: byte_stream in, o: byte_stream out, }
        impl loop_i of loop_s { instance inner(loop_i), i => inner.i, inner.o => o, }
        top loop_i;
        """
        with pytest.raises(TydiEvaluationError):
            compile_ok(source)


class TestPortAndInstanceArrays:
    def test_port_array_expansion(self):
        source = BASIC_TYPES + """
        streamlet fan_s<n: int> { input: byte_stream in, output: byte_stream out [n], }
        external impl fan_i<n: int> of fan_s<n>;
        streamlet top_s { i: byte_stream in, a: byte_stream out, b: byte_stream out, c: byte_stream out, }
        impl top_i of top_s {
            instance f(fan_i<3>),
            i => f.input,
            f.output[0] => a,
            f.output[1] => b,
            f.output[2] => c,
        }
        top top_i;
        """
        result = compile_ok(source)
        fan = next(s for name, s in result.project.streamlets.items() if name.startswith("fan_s"))
        assert [p.name for p in fan.outputs()] == ["output_0", "output_1", "output_2"]

    def test_instance_array_expansion(self):
        source = BASIC_TYPES + """
        streamlet unit_s { input: byte_stream in, output: byte_stream out, }
        external impl unit_i of unit_s;
        streamlet top_s { i: byte_stream in, o: byte_stream out, }
        impl top_i of top_s {
            instance stage(unit_i) [3],
            i => stage[0].input,
            stage[0].output => stage[1].input,
            stage[1].output => stage[2].input,
            stage[2].output => o,
        }
        top top_i;
        """
        result = compile_ok(source)
        top = result.project.implementation("top_i")
        assert [inst.name for inst in top.instances] == ["stage_0", "stage_1", "stage_2"]

    def test_negative_array_size_rejected(self):
        source = BASIC_TYPES + """
        streamlet top_s { i: byte_stream in, }
        streamlet unit_s { input: byte_stream in, }
        external impl unit_i of unit_s;
        impl top_i of top_s { instance u(unit_i) [0 - 2], i => u.input, }
        top top_i;
        """
        with pytest.raises(TydiEvaluationError):
            compile_ok(source)


class TestGenerativeSyntax:
    def test_for_loop_unrolls_connections(self):
        source = BASIC_TYPES + """
        streamlet fan_s<n: int> { input: byte_stream in, output: byte_stream out [n], }
        external impl fan_i<n: int> of fan_s<n>;
        streamlet join_s<n: int> { input: byte_stream in [n], output: byte_stream out, }
        external impl join_i<n: int> of join_s<n>;
        const channels = 4;
        streamlet top_s { i: byte_stream in, o: byte_stream out, }
        impl top_i of top_s {
            instance f(fan_i<channels>),
            instance j(join_i<channels>),
            i => f.input,
            j.output => o,
            for k in 0->channels {
                f.output[k] => j.input[k],
            }
        }
        top top_i;
        """
        result = compile_ok(source)
        top = result.project.implementation("top_i")
        assert len(top.connections) == 2 + 4

    def test_for_loop_over_string_array_instantiates_per_value(self):
        source = BASIC_TYPES + """
        const names = ["alpha", "beta", "gamma"];
        streamlet tag_s { output: byte_stream out, }
        external impl tag_i<label: string> of tag_s;
        streamlet sink_s<n: int> { input: byte_stream in [n], }
        external impl sink_i<n: int> of sink_s<n>;
        streamlet top_s { }
        impl top_i of top_s {
            instance collect(sink_i<3>),
            for idx in 0->len(names) {
                instance gen(tag_i<names[idx]>),
                gen.output => collect.input[idx],
            }
        }
        top top_i;
        """
        result = compile_ok(source)
        top = result.project.implementation("top_i")
        generated = [inst.name for inst in top.instances if inst.name.startswith("gen")]
        assert generated == ["gen_0", "gen_1", "gen_2"]
        # Three distinct concrete tag_i implementations (one per string).
        tags = [n for n in result.project.implementations if n.startswith("tag_i")]
        assert len(tags) == 3

    def test_if_true_expands_branch(self):
        source = BASIC_TYPES + """
        const wide = true;
        streamlet unit_s { input: byte_stream in, output: byte_stream out, }
        external impl fast_i of unit_s;
        external impl slow_i of unit_s;
        streamlet top_s { i: byte_stream in, o: byte_stream out, }
        impl top_i of top_s {
            if (wide) {
                instance u(fast_i),
                i => u.input,
                u.output => o,
            } else {
                instance u(slow_i),
                i => u.input,
                u.output => o,
            }
        }
        top top_i;
        """
        result = compile_ok(source)
        top = result.project.implementation("top_i")
        assert top.instances[0].implementation == "fast_i"

    def test_if_condition_must_be_boolean(self):
        source = BASIC_TYPES + """
        streamlet top_s { }
        impl top_i of top_s { if (3) { } }
        top top_i;
        """
        with pytest.raises(TydiTypeError):
            compile_ok(source)

    def test_assert_pass_and_fail(self):
        passing = "streamlet s {}\nimpl i of s { assert(2 > 1), }\ntop i;"
        compile_ok(passing)
        failing = 'streamlet s {}\nimpl i of s { assert(1 > 2, "impossible"), }\ntop i;'
        with pytest.raises(TydiAssertionError) as excinfo:
            compile_ok(failing)
        assert "impossible" in str(excinfo.value)

    def test_local_const_shadowing(self):
        source = BASIC_TYPES + """
        const n = 2;
        streamlet unit_s { input: byte_stream in, }
        external impl unit_i of unit_s;
        streamlet top_s { i: byte_stream in, }
        impl top_i of top_s {
            const n = 1,
            instance sinks(unit_i) [n],
            i => sinks[0].input,
        }
        top top_i;
        """
        result = compile_ok(source)
        assert len(result.project.implementation("top_i").instances) == 1

    def test_for_iterable_must_be_array(self):
        source = "streamlet s {}\nimpl i of s { for x in 5 { } }\ntop i;"
        with pytest.raises(TydiTypeError):
            compile_ok(source)

    def test_plain_reference_in_nested_loops_takes_the_innermost_suffix(self):
        # ``outer`` is declared per outer iteration and ``inner`` per inner
        # one: inside the inner loop a plain ``outer`` misses ``outer_a_b``
        # and resolves to ``outer_a``, a plain ``inner`` to ``inner_a_b``.
        source = BASIC_TYPES + """
        streamlet unit_s { input: byte_stream in, output: byte_stream out, }
        external impl unit_i of unit_s;
        streamlet top_s { i: byte_stream in [2], o: byte_stream out [4], }
        impl top_i of top_s {
            for a in 0->2 {
                instance outer(unit_i),
                i[a] => outer.input,
                for b in 0->2 {
                    instance inner(unit_i),
                    outer.output => inner.input,
                    inner.output => o[a * 2 + b],
                }
            }
        }
        top top_i;
        """
        result = compile_ok(source, sugaring=False, run_drc=False)
        top = result.project.implementation("top_i")
        assert [str(connection) for connection in top.connections] == [
            "i_0 => outer_0.input",
            "outer_0.output => inner_0_0.input",
            "inner_0_0.output => o_0",
            "outer_0.output => inner_0_1.input",
            "inner_0_1.output => o_1",
            "i_1 => outer_1.input",
            "outer_1.output => inner_1_0.input",
            "inner_1_0.output => o_2",
            "outer_1.output => inner_1_1.input",
            "inner_1_1.output => o_3",
        ]


class TestConnectionEndErrors:
    """The exact error of each connection end that does not resolve."""

    PREFIX = BASIC_TYPES.lstrip() + """streamlet unit_s { input: byte_stream in, output: byte_stream out, }
external impl unit_i of unit_s;
streamlet top_s { i: byte_stream in, o: byte_stream out, }
impl top_i of top_s {
    instance u(unit_i),
    instance row(unit_i) [2],
"""

    @pytest.mark.parametrize(
        "body, error, text",
        [
            (
                "    i => ghost.input,",
                TydiNameError,
                "<string>:8:10: implementation 'top_i' has no instance 'ghost'",
            ),
            (
                "    for k in 0->1 { i => ghost.input, }",
                TydiNameError,
                "<string>:8:26: implementation 'top_i' has no instance 'ghost'",
            ),
            (
                "    i => u.input,\n    u.output => result,",
                TydiNameError,
                "<string>:9:17: implementation 'top_i' has no port 'result' on its streamlet 'top_s'",
            ),
            (
                "    i => u.data,",
                TydiNameError,
                "<string>:8:10: instance 'u' (unit_i) has no port 'data'",
            ),
            (
                '    i => row["one"].input,',
                TydiEvaluationError,
                "<string>:8:10: index of 'row' must be an integer, got string",
            ),
            (
                "    i => u.input[true],",
                TydiEvaluationError,
                "<string>:8:10: index of 'input' must be an integer, got bool",
            ),
        ],
        ids=[
            "missing-instance",
            "missing-instance-in-loop",
            "missing-self-port",
            "missing-instance-port",
            "non-integer-instance-index",
            "non-integer-port-index",
        ],
    )
    def test_error_text(self, body, error, text):
        with pytest.raises(error) as excinfo:
            compile_ok(self.PREFIX + body + "\n}\ntop top_i;\n")
        assert type(excinfo.value) is error
        assert str(excinfo.value) == text


class TestPaperParallelizeExample:
    def test_parallelize_with_adder(self):
        """The worked example of Section IV-B: 8-way parallelised adder."""
        source = """
        Group AdderInput { data0: Bit(32), data1: Bit(32), }
        type Input = Stream(AdderInput, d=1);
        Group Bit32_result { data: Bit(32), overflow: Bit(1), }
        type Result = Stream(Bit32_result, d=1);
        external impl adder_32 of process_unit_s<type Input, type Result>;
        streamlet top_s { input: Input in, output: Result out, }
        impl top_i of top_s {
            instance par(parallelize_i<type Input, type Result, impl adder_32, 8>),
            input => par.input,
            par.output => output,
        }
        top top_i;
        """
        result = compile_project(source, include_stdlib=True)
        parallelize = next(
            impl
            for name, impl in result.project.implementations.items()
            if name.startswith("parallelize_i")
        )
        # 1 demux + 1 mux + 8 processing units.
        assert len(parallelize.instances) == 10
        pu_instances = [i for i in parallelize.instances if i.name.startswith("pu")]
        assert len(pu_instances) == 8
        assert all(i.implementation == "adder_32" for i in pu_instances)
        # demux/mux connections: 2 boundary + 2 per channel.
        assert len(parallelize.connections) == 2 + 16
