"""Unit tests for simulation-block ("scripted") behaviours (Section V-A)."""

import pytest

from repro.lang.compile import compile_project
from repro.queries import ALL_QUERIES
from repro.sim import Simulator
from repro.sim.testbench_gen import coverage_of


def run(source, drives, outputs, **kwargs):
    project = compile_project(source).project
    simulator = Simulator(project, **kwargs)
    for port, values in drives.items():
        simulator.drive(port, values)
    trace = simulator.run()
    return trace, simulator


HEADER = "type num = Stream(Bit(32), d=1);\n"


DOUBLER = HEADER + """
streamlet doubler_s { input: num in, output: num out, }
external impl doubler_i of doubler_s {
    simulation {
        state seen = 0;
        on receive(input) {
            state seen = seen + 1;
            send(output, input * 2);
            ack(input);
        }
    }
}
streamlet top_s { i: num in, o: num out, }
impl top_i of top_s { instance d(doubler_i), i => d.input, d.output => o, }
top top_i;
"""


MERGE = HEADER + """
streamlet merge_s { a: num in, b: num in, output: num out, }
external impl merge_i of merge_s {
    simulation {
        on receive(a) && receive(b) {
            send(output, a + b);
            ack(a);
            ack(b);
        }
    }
}
streamlet top_s { x: num in, y: num in, o: num out, }
impl top_i of top_s { instance m(merge_i), x => m.a, y => m.b, m.output => o, }
top top_i;
"""


SLOW = HEADER + """
streamlet slow_s { input: num in, output: num out, }
external impl slow_i of slow_s {
    simulation {
        on receive(input) {
            delay 8;
            send(output, input);
            ack(input);
        }
    }
}
streamlet top_s { i: num in, o: num out, }
impl top_i of top_s { instance s(slow_i), i => s.input, s.output => o, }
top top_i;
"""


CLAMP = HEADER + """
streamlet clamp_s { input: num in, output: num out, }
external impl clamp_i of clamp_s {
    simulation {
        on receive(input) {
            if (input > 100) {
                send(output, 100);
            } else {
                send(output, input);
            }
            ack(input);
        }
    }
}
streamlet top_s { i: num in, o: num out, }
impl top_i of top_s { instance c(clamp_i), i => c.input, c.output => o, }
top top_i;
"""


TAP = HEADER + """
streamlet tap_s { input: num in, output: num out, }
external impl tap_i of tap_s {
    simulation {
        on receive(input) {
            send(output, input);
        }
    }
}
streamlet top_s { i: num in, o: num out, }
impl top_i of top_s { instance t(tap_i), i => t.input, t.output => o, }
top top_i;
"""


TOGGLER = HEADER + """
streamlet toggler_s { input: num in, output: num out, }
external impl toggler_i of toggler_s {
    simulation {
        state mode = "even";
        on receive(input) {
            if (mode == "even") {
                send(output, input);
                state mode = "odd";
            } else {
                state mode = "even";
            }
            ack(input);
        }
    }
}
streamlet top_s { i: num in, o: num out, }
impl top_i of top_s { instance t(toggler_i), i => t.input, t.output => o, }
top top_i;
"""


class TestScriptedBehavior:
    def test_send_and_ack(self):
        trace, _ = run(DOUBLER, {"i": [1, 2, 3]}, ["o"])
        assert trace.output_values("o") == [2, 4, 6]

    def test_state_variable_updates_logged(self):
        trace, simulator = run(DOUBLER, {"i": [1, 2, 3]}, ["o"])
        log = simulator.components["d"].state_log
        seen_values = [value for _, name, value in log if name == "seen"]
        assert seen_values[-1] == 3

    def test_coverage_reports_states(self):
        trace, _ = run(DOUBLER, {"i": [1, 2]}, ["o"])
        coverage = coverage_of(trace)
        assert "d.seen" in coverage["states_visited"]
        assert coverage["ports_driven"] == ["i"]

    @pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda query: query.name)
    def test_coverage_reports_tpch_states(self, query, tpch_tables):
        # The TPC-H accumulators log list- and dict-valued state.
        _, trace, _ = query.simulate(tpch_tables)
        coverage = coverage_of(trace)
        logged: dict[str, set[str]] = {}
        for path, log in trace.state_logs.items():
            for _, name, value in log:
                logged.setdefault(f"{path}.{name}", set()).add(str(value))
        assert coverage["states_visited"] == {key: sorted(texts) for key, texts in logged.items()}
        assert coverage["ports_observed"] == sorted(trace.outputs)

    def test_two_port_synchronisation(self):
        trace, _ = run(MERGE, {"x": [1, 2, 3], "y": [10, 20, 30]}, ["o"])
        assert trace.output_values("o") == [11, 22, 33]

    def test_delay_statement_defers_output(self):
        trace, _ = run(SLOW, {"i": [5]}, ["o"])
        time, packet = trace.outputs["o"][0]
        assert packet.value == 5
        assert time >= 8

    def test_conditional_statement(self):
        trace, _ = run(CLAMP, {"i": [50, 150, 99]}, ["o"])
        assert trace.output_values("o") == [50, 100, 99]

    def test_implicit_ack_prevents_livelock(self):
        # A handler that forgets ack() must still consume the triggering packet.
        trace, _ = run(TAP, {"i": [1, 2]}, ["o"])
        assert trace.output_values("o") == [1, 2]

    def test_state_machine_transitions(self):
        trace, simulator = run(TOGGLER, {"i": [10, 11, 12, 13]}, ["o"])
        assert trace.output_values("o") == [10, 12]
        modes = {value for _, name, value in simulator.components["t"].state_log if name == "mode"}
        assert modes == {"even", "odd"}
