"""Unit tests for the compile driver (the Figure-3 pipeline)."""

import pytest

from repro.errors import TydiNameError
from repro.lang.compile import compile_project, compile_sources


SIMPLE = """
type byte_t = Stream(Bit(8), d=1);
streamlet echo_s { i: byte_t in, o: byte_t out, }
impl echo_i of echo_s { i => o, }
top echo_i;
"""


class TestCompileDriver:
    def test_stage_log_order(self):
        result = compile_project(SIMPLE, include_stdlib=False)
        assert result.stage_names() == ["parse", "evaluate", "sugaring", "drc", "ir"]

    def test_stages_can_be_disabled(self):
        result = compile_project(SIMPLE, include_stdlib=False, sugaring=False, run_drc=False)
        assert result.stage_names() == ["parse", "evaluate", "ir"]
        assert result.sugaring is None
        assert result.drc is None

    def test_top_by_keyword_argument(self):
        source = SIMPLE.replace("top echo_i;", "")
        result = compile_project(source, include_stdlib=False, top="echo_i")
        assert result.project.top == "echo_i"

    def test_unknown_top_rejected(self):
        with pytest.raises(TydiNameError):
            compile_project(SIMPLE, include_stdlib=False, top="missing_i")

    def test_without_top_all_concrete_impls_built(self):
        source = SIMPLE.replace("top echo_i;", "")
        result = compile_project(source, include_stdlib=False)
        assert "echo_i" in result.project.implementations
        assert result.project.top is None

    def test_multiple_sources_share_namespace(self):
        types = "type byte_t = Stream(Bit(8), d=1);"
        design = """
        streamlet echo_s { i: byte_t in, o: byte_t out, }
        impl echo_i of echo_s { i => o, }
        top echo_i;
        """
        result = compile_sources([(types, "types.td"), (design, "design.td")], include_stdlib=False)
        assert result.project.top == "echo_i"

    def test_stdlib_included_by_default(self):
        result = compile_project(SIMPLE)
        # The stdlib is parsed as a second source file ahead of the design.
        assert result.stages[0].detail.startswith("parsed 2 source file(s)")
        alone = compile_project(SIMPLE, include_stdlib=False)
        assert alone.stages[0].detail.startswith("parsed 1 source file(s)")

    def test_ir_text_available(self):
        result = compile_project(SIMPLE, include_stdlib=False)
        ir = result.ir_text()
        assert "streamlet echo_s" in ir
        assert "impl echo_i of echo_s" in ir
        assert "top echo_i;" in ir

    def test_diagnostics_accumulate_sugaring_info(self):
        source = """
        type t = Stream(Bit(4), d=1);
        streamlet wide_s { a: t out, b: t out, }
        external impl wide_i of wide_s;
        streamlet top_s { o: t out, }
        impl top_i of top_s { instance w(wide_i), w.a => o, }
        top top_i;
        """
        result = compile_project(source, include_stdlib=False)
        assert any("voider" in d.message for d in result.diagnostics)

    def test_project_name_propagates(self):
        result = compile_project(SIMPLE, include_stdlib=False, project_name="my_design")
        assert result.project.name == "my_design"
