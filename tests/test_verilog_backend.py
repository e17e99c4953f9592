"""Unit tests for the Tydi-IR to Verilog backend."""

import pytest

from repro.backends import get_backend
from repro.errors import TydiBackendError
from repro.lang.compile import compile_project
from repro.utils.text import count_loc
from repro.verilog.backend import VerilogBackend, emit_module_header, generate_verilog


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
    return generate_verilog(result.project), result.project


class TestModuleEmission:
    def test_module_has_clock_and_reset(self, pipeline_files):
        _, project = pipeline_files
        header = emit_module_header(project.streamlet("top_s"))
        assert header.startswith("module top_s (")
        assert "input  wire clk," in header
        assert "input  wire rst," in header
        assert header.endswith(");")

    def test_streams_become_ready_valid_groups(self, pipeline_files):
        _, project = pipeline_files
        header = emit_module_header(project.streamlet("top_s"))
        assert "input  wire i_valid" in header
        assert "output wire i_ready" in header
        assert "input  wire [7:0] i_data" in header
        assert "output wire o_valid" in header
        assert "input  wire o_ready" in header

    def test_one_file_per_implementation_plus_defs(self, pipeline_files):
        files, project = pipeline_files
        assert set(files) == {"stage_i.v", "top_i.v", f"{project.name}_defs.vh"}

    def test_files_are_guarded_and_comment_headed(self, pipeline_files):
        files, _ = pipeline_files
        for text in files.values():
            assert text.startswith("// Generated by")
        assert "`default_nettype none" in files["top_i.v"]
        assert files["top_i.v"].rstrip().endswith("`default_nettype wire")


class TestStructuralBody:
    def test_instantiations_use_named_ports(self, pipeline_files):
        files, _ = pipeline_files
        text = files["top_i.v"]
        assert "stage_s a (" in text
        assert ".clk(clk)," in text and ".rst(rst)," in text
        assert "endmodule // top_s" in text

    def test_connections_become_wires_and_assigns(self, pipeline_files):
        files, _ = pipeline_files
        text = files["top_i.v"]
        assert "wire " in text and "assign " in text
        # Instance-to-instance traffic flows through a net, named after
        # the connection's endpoints.
        assert "net_" in text

    def test_external_stub_ties_off_handshakes(self, pipeline_files):
        files, _ = pipeline_files
        text = files["stage_i.v"]
        assert "external implementation" in text
        # Input stream: never accept; output stream: never offer.
        assert "assign input_ready = 1'b0;" in text
        assert "assign output_valid = 1'b0;" in text

    def test_defs_file_documents_logical_types(self, pipeline_files):
        files, project = pipeline_files
        defs = files[f"{project.name}_defs.vh"]
        assert "Stream(Bit(8)" in defs

    def test_total_loc_counts_all_files(self, pipeline_files):
        files, project = pipeline_files
        assert VerilogBackend(project).total_loc() == sum(
            count_loc(text, language="verilog") for text in files.values()
        )


class TestRegistryIntegration:
    def test_emit_is_assemble_of_units(self, pipeline_files):
        _, project = pipeline_files
        backend = get_backend("verilog")
        units = {
            name: backend.emit_unit(project, impl)
            for name, impl in project.implementations.items()
        }
        assembled = backend.assemble(project, backend.emit_shared(project), units)
        assert assembled == backend.emit(project)

    def test_empty_project_rejected(self):
        from repro.ir.model import Project

        with pytest.raises(TydiBackendError, match="empty project"):
            generate_verilog(Project(name="void"))
        with pytest.raises(TydiBackendError, match="empty project"):
            VerilogBackend(Project(name="void")).total_loc()

    def test_tpch_queries_emit_verilog(self, compiled_queries):
        """Every TPC-H plan lowers, stdlib primitives included (as stubs)."""
        for name, result in compiled_queries.items():
            files = get_backend("verilog").emit(result.project)
            assert any(filename.endswith(".v") for filename in files), name
            for text in files.values():
                assert text.count("\nmodule ") == text.count("\nendmodule"), name
