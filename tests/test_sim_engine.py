"""Unit tests for the event-driven simulation engine."""

import pickle

import pytest

from repro.errors import TydiSimulationError
from repro.lang.compile import compile_project
from repro.sim import Simulator, analyze_bottlenecks, detect_deadlock
from repro.sim.packets import Packet


ADD_TEN_PIPELINE = """
type num = Stream(Bit(32), d=1);
streamlet top_s { values: num in, total: num out, }
impl top_i of top_s {
    instance ten(const_int_generator_i<type num, 10>),
    instance add(adder_i<type num, type num>),
    instance acc(sum_i<type num, type num>),
    values => add.lhs,
    ten.output => add.rhs,
    add.output => acc.input,
    acc.output => total,
}
top top_i;
"""


@pytest.fixture(scope="module")
def pipeline_project():
    return compile_project(ADD_TEN_PIPELINE).project


class TestElaboration:
    def test_leaf_components_discovered(self, pipeline_project):
        simulator = Simulator(pipeline_project)
        assert set(simulator.components) == {"ten", "add", "acc"}

    def test_channels_connect_endpoints(self, pipeline_project):
        simulator = Simulator(pipeline_project)
        sinks = {channel.sink for channel in simulator.channels}
        assert ("add", "lhs") in sinks
        assert ("", "total") in {channel.sink for channel in simulator.channels}

    def test_hierarchical_flattening(self):
        source = """
        type num = Stream(Bit(8), d=1);
        streamlet unit_s { input: num in, output: num out, }
        external impl unit_i of unit_s;
        streamlet wrap_s { input: num in, output: num out, }
        impl wrap_i of wrap_s {
            instance inner(unit_i),
            input => inner.input,
            inner.output => output,
        }
        streamlet top_s { i: num in, o: num out, }
        impl top_i of top_s {
            instance w(wrap_i),
            i => w.input,
            w.output => o,
        }
        top top_i;
        """
        project = compile_project(source).project
        simulator = Simulator(project, behaviors={"unit_i": _passthrough_factory})
        assert list(simulator.components) == ["w/inner"]
        simulator.drive("i", [1, 2, 3])
        trace = simulator.run()
        assert trace.output_values("o") == [1, 2, 3]

    def test_external_top_rejected(self, pipeline_project):
        with pytest.raises(TydiSimulationError):
            Simulator(pipeline_project, top=next(
                name for name, impl in pipeline_project.implementations.items() if impl.external
            ))

    def test_missing_top_rejected(self):
        project = compile_project(ADD_TEN_PIPELINE).project
        project.top = None
        with pytest.raises(TydiSimulationError):
            Simulator(project)


class _Passthrough:
    latency = 1

    def fire(self, ctx):
        if not ctx.has_input("input") or not ctx.can_send("output"):
            return False
        ctx.send("output", ctx.take("input"), delay=self.latency)
        return True


def _passthrough_factory(implementation):
    return _Passthrough()


class TestExecution:
    def test_functional_result(self, pipeline_project):
        simulator = Simulator(pipeline_project)
        simulator.drive("values", [1, 2, 3, 4, 5])
        trace = simulator.run()
        assert trace.output_values("total") == [sum(v + 10 for v in [1, 2, 3, 4, 5])]

    def test_trace_records_inputs_and_outputs(self, pipeline_project):
        simulator = Simulator(pipeline_project)
        simulator.drive("values", [7])
        trace = simulator.run()
        assert "values" in trace.inputs
        assert "total" in trace.outputs
        assert trace.events_processed > 0

    def test_drive_unknown_port_rejected(self, pipeline_project):
        simulator = Simulator(pipeline_project)
        with pytest.raises(TydiSimulationError):
            simulator.drive("nonexistent", [1])

    def test_drive_packets_with_custom_last(self, pipeline_project):
        simulator = Simulator(pipeline_project)
        simulator.drive_packets("values", [Packet(5, last=(True,))])
        trace = simulator.run()
        assert trace.output_values("total") == [15]

    def test_channel_stats_accumulate(self, pipeline_project):
        simulator = Simulator(pipeline_project)
        simulator.drive("values", list(range(10)))
        trace = simulator.run()
        add_input = next(c for c in trace.channels.values() if c.sink == ("add", "lhs"))
        assert add_input.stats.packets_transferred == 10

    def test_trace_pickles_without_the_simulator(self, pipeline_project):
        simulator = Simulator(pipeline_project)
        simulator.drive("values", [1, 2, 3])
        trace = simulator.run()
        copy = pickle.loads(pickle.dumps(trace))
        assert copy.output_values("total") == trace.output_values("total")
        for name, channel in trace.channels.items():
            assert copy.channels[name].stats == channel.stats
            assert copy.channels[name].source_component is None
            assert copy.channels[name].sink_component is None

    def test_behavior_override_by_instance_path(self):
        source = """
        type num = Stream(Bit(8), d=1);
        streamlet unit_s { input: num in, output: num out, }
        external impl mystery_i of unit_s;
        streamlet top_s { i: num in, o: num out, }
        impl top_i of top_s { instance m(mystery_i), i => m.input, m.output => o, }
        top top_i;
        """
        project = compile_project(source).project
        simulator = Simulator(project, behaviors={"m": _Passthrough()})
        simulator.drive("i", [9, 8])
        assert simulator.run().output_values("o") == [9, 8]

    def test_missing_behavior_rejected(self):
        source = """
        type num = Stream(Bit(8), d=1);
        streamlet unit_s { input: num in, output: num out, }
        external impl mystery_i of unit_s;
        streamlet top_s { i: num in, o: num out, }
        impl top_i of top_s { instance m(mystery_i), i => m.input, m.output => o, }
        top top_i;
        """
        project = compile_project(source).project
        with pytest.raises(TydiSimulationError):
            Simulator(project)

    def test_scheduling_in_the_past_rejected(self, pipeline_project):
        simulator = Simulator(pipeline_project)
        with pytest.raises(TydiSimulationError):
            simulator.schedule(-1, lambda: None)


class TestBackpressure:
    def test_small_capacity_still_correct(self, pipeline_project):
        simulator = Simulator(pipeline_project, channel_capacity=1)
        simulator.drive("values", list(range(20)))
        trace = simulator.run()
        assert trace.output_values("total") == [sum(v + 10 for v in range(20))]

    def test_larger_capacity_same_result(self, pipeline_project):
        simulator = Simulator(pipeline_project, channel_capacity=16)
        simulator.drive("values", list(range(20)))
        assert simulator.run().output_values("total") == [sum(v + 10 for v in range(20))]


class TestAnalyses:
    def test_no_deadlock_in_healthy_pipeline(self, pipeline_project):
        simulator = Simulator(pipeline_project)
        simulator.drive("values", [1, 2, 3])
        simulator.run()
        assert not detect_deadlock(simulator).deadlocked

    def test_deadlock_detected_for_missing_operand(self, pipeline_project):
        # Drive only one operand of the two-input adder: it waits forever.
        source = """
        type num = Stream(Bit(8), d=1);
        streamlet top_s { a: num in, b: num in, o: num out, }
        impl top_i of top_s {
            instance add(adder_i<type num, type num>),
            a => add.lhs,
            b => add.rhs,
            add.output => o,
        }
        top top_i;
        """
        project = compile_project(source).project
        simulator = Simulator(project)
        simulator.drive("a", [1, 2, 3])
        simulator.run()
        report = detect_deadlock(simulator)
        assert report.deadlocked
        assert "add" in report.waiting_components

    def test_bottleneck_report_ranks_channels(self, pipeline_project):
        simulator = Simulator(pipeline_project)
        simulator.drive("values", list(range(30)))
        trace = simulator.run()
        report = analyze_bottlenecks(trace)
        assert len(report.entries) == len(trace.channels)
        assert report.worst(3)
        assert "bottleneck analysis" in report.summary()
