"""Unit tests for textual Tydi-IR emission."""

import pytest

from repro.backends import get_backend
from repro.errors import TydiBackendError
from repro.ir.emit import (
    emit_implementation,
    emit_streamlet,
    emit_type_declaration,
    named_type_declarations,
)
from repro.ir.model import Port, PortDirection, Project, Streamlet
from repro.lang.compile import compile_project
from repro.spec.logical_types import Bit, Group, Stream, Union
from repro.utils.text import count_loc


SOURCE = """
Group Sample { value: Bit(12), flag: Bit(1), }
type sample_t = Stream(Sample, d=1);
streamlet filter_s { i: sample_t in, keep: Stream(Bit(1), d=1) in, o: sample_t out, }
external impl filter_prim of filter_s;
streamlet top_s { i: sample_t in, keep: Stream(Bit(1), d=1) in, o: sample_t out, }
impl top_i of top_s {
    instance f(filter_prim),
    i => f.i,
    keep => f.keep,
    f.o => o,
}
top top_i;
"""


class TestEmission:
    def test_type_declaration_emission(self):
        group = Group.of("Pair", lo=Bit(8), hi=Bit(8))
        text = emit_type_declaration(group)
        assert text.startswith("Group Pair {")
        assert "lo: Bit(8);" in text

    def test_union_declaration_emission(self):
        union = Union.of("Value", num=Bit(32), txt=Bit(8))
        text = emit_type_declaration(union)
        assert text.startswith("Union Value {")

    def test_streamlet_emission_uses_named_types(self):
        result = compile_project(SOURCE, include_stdlib=False)
        text = emit_streamlet(result.project.streamlet("top_s"))
        assert "i: Stream(Sample, d=1) in;" in text

    def test_external_impl_emission(self):
        result = compile_project(SOURCE, include_stdlib=False)
        text = emit_implementation(result.project.implementation("filter_prim"))
        assert text.strip().startswith("external impl filter_prim of filter_s;")

    def test_structural_impl_emission(self):
        result = compile_project(SOURCE, include_stdlib=False)
        text = emit_implementation(result.project.implementation("top_i"))
        assert "instance f(filter_prim);" in text
        assert "i => f.i;" in text

    def test_project_emission_contains_everything(self):
        result = compile_project(SOURCE, include_stdlib=False)
        text = result.ir_text()
        assert "Group Sample" in text
        assert "streamlet filter_s" in text
        assert "top top_i;" in text

    def test_emitted_ir_has_reasonable_loc(self):
        result = compile_project(SOURCE, include_stdlib=False)
        assert count_loc(result.ir_text(), "tydi") >= 15

    def test_synthesized_connections_annotated(self):
        source = """
        type t = Stream(Bit(8), d=1);
        streamlet src_s { a: t out, }
        external impl src_i of src_s;
        streamlet snk_s { x: t in, }
        external impl snk_i of snk_s;
        streamlet top_s { }
        impl top_i of top_s {
            instance s(src_i), instance k1(snk_i), instance k2(snk_i),
            s.a => k1.x, s.a => k2.x,
        }
        top top_i;
        """
        result = compile_project(source, include_stdlib=False)
        text = result.ir_text()
        assert "// auto-inserted" in text


class TestNamedTypeConflicts:
    @staticmethod
    def _project_with(*types):
        """A project whose streamlet ports carry the given element types."""
        project = Project(name="conflict")
        ports = [
            Port(name=f"p{index}", logical_type=Stream(t, dimension=1), direction=PortDirection.IN)
            for index, t in enumerate(types)
        ]
        project.add_streamlet(Streamlet(name="s", ports=ports))
        return project

    def test_identical_duplicates_collapse(self):
        sample = Group.of("Sample", value=Bit(8))
        named = named_type_declarations(self._project_with(sample, Group.of("Sample", value=Bit(8))))
        assert list(named) == ["Sample"]

    def test_structurally_distinct_types_sharing_a_name_raise(self):
        """Regression: ``setdefault`` silently kept the first of two distinct
        Group types named ``Sample`` and misdeclared every use of the second."""
        a = Group.of("Sample", value=Bit(8))
        b = Group.of("Sample", value=Bit(16))
        project = self._project_with(a, b)
        with pytest.raises(TydiBackendError, match="conflicting declarations of type 'Sample'"):
            named_type_declarations(project)
        with pytest.raises(TydiBackendError, match="Bit\\(8\\).*Bit\\(16\\)"):
            get_backend("ir").emit(project)

    def test_group_union_name_clash_raises(self):
        group = Group.of("Value", num=Bit(8))
        union = Union.of("Value", num=Bit(8))
        with pytest.raises(TydiBackendError, match="conflicting declarations"):
            named_type_declarations(self._project_with(group, union))
