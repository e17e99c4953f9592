"""Unit tests for the Tydi-IR to VHDL backend."""

import re

import pytest

from repro.errors import TydiBackendError
from repro.ir.model import Project
from repro.lang.compile import compile_project
from repro.vhdl.backend import VhdlBackend, emit_component_declaration, emit_entity, generate_vhdl
from repro.utils.text import count_loc


SOURCE = """
type byte_t = Stream(Bit(8), d=1);
streamlet stage_s { input: byte_t in, output: byte_t out, }
external impl stage_i of stage_s;
streamlet top_s { i: byte_t in, o: byte_t out, }
impl top_i of top_s {
    instance a(stage_i),
    instance b(stage_i),
    i => a.input,
    a.output => b.input,
    b.output => o,
}
top top_i;
"""


@pytest.fixture(scope="module")
def pipeline_files():
    result = compile_project(SOURCE, include_stdlib=False)
    return generate_vhdl(result.project), result.project


class TestEntityEmission:
    def test_entity_has_clock_and_reset(self, pipeline_files):
        files, project = pipeline_files
        entity = emit_entity(project.streamlet("top_s"))
        assert "clk : in std_logic;" in entity
        assert "rst : in std_logic;" in entity

    def test_entity_lists_stream_signals(self, pipeline_files):
        _, project = pipeline_files
        entity = emit_entity(project.streamlet("top_s"))
        assert "i_valid : in std_logic;" in entity
        assert "i_ready : out std_logic;" in entity
        assert "i_data : in std_logic_vector(7 downto 0);" in entity
        assert "o_valid : out std_logic" in entity

    def test_component_declaration_matches_entity(self, pipeline_files):
        _, project = pipeline_files
        component = emit_component_declaration(project.streamlet("stage_s"))
        assert component.strip().startswith("component stage_s is")
        assert "input_data : in std_logic_vector(7 downto 0)" in component


class TestStructuralArchitecture:
    def test_one_file_per_implementation_plus_package(self, pipeline_files):
        files, project = pipeline_files
        assert len(files) == len(project.implementations) + 1
        assert "top_i.vhd" in files
        assert any(name.endswith("_pkg.vhd") for name in files)

    def test_port_maps_reference_nets(self, pipeline_files):
        files, _ = pipeline_files
        top = files["top_i.vhd"]
        assert "a : stage_s" in top
        assert "b : stage_s" in top
        assert re.search(r"input_data => net_\d+_", top)

    def test_self_ports_wired_to_nets(self, pipeline_files):
        files, _ = pipeline_files
        top = files["top_i.vhd"]
        assert re.search(r"net_\d+_i_data <= i_data;", top)
        assert re.search(r"i_ready <= net_\d+_i_ready;", top)

    def test_blackbox_for_unknown_external(self, pipeline_files):
        files, _ = pipeline_files
        stage = files["stage_i.vhd"]
        assert "architecture blackbox of stage_s" in stage

    def test_vhdl_is_comment_headed(self, pipeline_files):
        files, _ = pipeline_files
        assert all(text.startswith("--") for text in files.values())

    def test_total_loc_counts_all_files(self, pipeline_files):
        files, project = pipeline_files
        backend = VhdlBackend(project)
        assert backend.total_loc() == sum(count_loc(t, "vhdl") for t in files.values())


class TestPrimitiveArchitectures:
    def test_sugaring_duplicator_gets_behavioural_rtl(self):
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
        files = generate_vhdl(result.project)
        duplicator_file = next(text for name, text in files.items() if name.startswith("duplicator"))
        assert "architecture behavioural" in duplicator_file
        assert "pending" in duplicator_file

    def test_stdlib_primitives_get_behavioural_rtl(self, compiled_queries):
        files = generate_vhdl(compiled_queries["q6"].project)
        adder_like = [t for n, t in files.items() if n.startswith("multiplier_i")]
        assert adder_like and "architecture behavioural" in adder_like[0]
        filters = [t for n, t in files.items() if n.startswith("filter_i")]
        assert filters and "keep" in filters[0]

    def test_empty_project_rejected(self):
        with pytest.raises(TydiBackendError):
            generate_vhdl(Project(name="empty"))
        with pytest.raises(TydiBackendError, match="empty project"):
            VhdlBackend(Project(name="e")).total_loc()


class TestDeterministicOrdering:
    def test_generate_vhdl_returns_sorted_files(self, pipeline_files):
        files, project = pipeline_files
        assert list(files) == sorted(files)
        assert list(generate_vhdl(project)) == sorted(files)

    def test_ordering_independent_of_insertion_history(self, pipeline_files):
        """Reordering the project's implementation dict must not change the
        emitted artefact set or its order."""
        _, project = pipeline_files
        reference = generate_vhdl(project)
        shuffled_impls = dict(reversed(list(project.implementations.items())))
        original = project.implementations
        project.implementations = shuffled_impls
        try:
            reordered = generate_vhdl(project)
        finally:
            project.implementations = original
        assert list(reordered.items()) == list(reference.items())
