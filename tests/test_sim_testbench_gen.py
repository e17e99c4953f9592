"""Unit tests for testbench generation from simulation traces (Section V-C)."""

import pytest

from repro.lang.compile import compile_project
from repro.sim import SimulationTrace, Simulator
from repro.sim import testbench_from_trace as make_testbench
from repro.sim.testbench_gen import coverage_of
from repro.vhdl.testbench import generate_vhdl_testbench
from repro.utils.text import count_loc


SOURCE = """
type num = Stream(Bit(16), d=1);
streamlet top_s { values: num in, total: num out, }
impl top_i of top_s {
    instance acc(sum_i<type num, type num>),
    values => acc.input,
    acc.output => total,
}
top top_i;
"""


@pytest.fixture(scope="module")
def simulated():
    result = compile_project(SOURCE)
    simulator = Simulator(result.project)
    simulator.drive("values", [5, 6, 7])
    trace = simulator.run()
    return result.project, simulator, trace


class TestTydiTestbench:
    def test_drive_vectors_replay_inputs(self, simulated):
        _, simulator, trace = simulated
        testbench = make_testbench(simulator, trace)
        drives = {v.port for v in testbench.drive_vectors()}
        assert drives == {"values"}
        assert [e.values[0] for e in testbench.vectors["values"].events] == [5, 6, 7]

    def test_expect_vectors_assert_outputs(self, simulated):
        _, simulator, trace = simulated
        testbench = make_testbench(simulator, trace)
        assert [e.values[0] for e in testbench.vectors["total"].events] == [18]

    def test_emitted_text(self, simulated):
        _, simulator, trace = simulated
        text = make_testbench(simulator, trace).emit()
        assert "drive values [5]" in text
        assert "expect total [18]" in text

    def test_float_and_string_encoding(self, simulated):
        from repro.sim.testbench_gen import _encode_value

        assert _encode_value(1.25) == 125
        assert _encode_value(True) == 1
        assert _encode_value(None) == 0
        assert _encode_value("AB") == (ord("A") << 8) | ord("B")
        assert _encode_value(("a", 2)) != _encode_value(("a", 3))


class TestCoverage:
    def test_unhashable_state_is_keyed_by_text(self):
        trace = SimulationTrace(
            state_logs={
                "acc": [
                    (0, "values", []),
                    (1, "values", [3]),
                    (2, "values", [3]),
                    (3, "groups", {"a": 1}),
                    (4, "n", 1),
                    (5, "n", True),
                    (6, "n", 2.5),
                ]
            }
        )
        assert coverage_of(trace)["states_visited"] == {
            "acc.values": ["[3]", "[]"],
            "acc.groups": ["{'a': 1}"],
            # Hashable values are deduplicated by equality, as before.
            "acc.n": ["1", "2.5"],
        }


class TestVhdlTestbench:
    def test_vhdl_testbench_structure(self, simulated):
        project, simulator, trace = simulated
        testbench = make_testbench(simulator, trace)
        text = generate_vhdl_testbench(project, testbench)
        assert "entity top_i_tb is" in text
        assert "dut : entity work.top_s" in text
        assert "drive_values : process" in text
        assert "check_total : process" in text
        assert "assert total_data" in text

    def test_vhdl_testbench_loc_nontrivial(self, simulated):
        project, simulator, trace = simulated
        text = generate_vhdl_testbench(project, make_testbench(simulator, trace))
        assert count_loc(text, "vhdl") > 30

    def test_driving_an_output_port_rejected(self, simulated):
        project, simulator, trace = simulated
        from repro.errors import TydiBackendError
        from repro.ir.testbench import Testbench

        bad = Testbench(implementation=simulator.top_name)
        bad.drive(0, "total", [1])  # "total" is an output port of the design
        with pytest.raises(TydiBackendError):
            generate_vhdl_testbench(project, bad)
