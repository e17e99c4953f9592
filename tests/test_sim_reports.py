"""Edge cases of the simulation analysis reports and their cacheability.

Two halves: DOT rendering of :class:`BottleneckReport`/:class:`DeadlockReport`
over degenerate inputs (no congestion, self-loop wait edges, several disjoint
wait cycles), and :class:`~repro.sim.harness.SimulationReport` pickle
round-trips through the ``sim:`` stage-cache tiers (memory, disk, remote L2).
"""

from __future__ import annotations

import json

import pytest

from repro.lang.compile import compile_project
from repro.pipeline.stages import StageCache
from repro.sim import SimulationPlan, SimulationReport, run_simulation
from repro.sim.bottleneck import BottleneckReport, ChannelBottleneck
from repro.sim.deadlock import DeadlockReport, StalledChannel
from repro.workspace import Workspace

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


#: The top input feeds both adder operands: sugaring inserts a duplicator;
#: without it the simulator refuses to elaborate the fan-out.
FAN_OUT = """
type num = Stream(Bit(32), d=1);
streamlet top_s { values: num in, total: num out, }
impl top_i of top_s {
    instance add(adder_i<type num, type num>),
    instance acc(sum_i<type num, type num>),
    values => add.lhs,
    values => add.rhs,
    add.output => acc.input,
    acc.output => total,
}
top top_i;
"""


@pytest.fixture(scope="module")
def pipeline_project():
    return compile_project(ADD_TEN_PIPELINE).project


def assert_valid_dot(dot: str) -> None:
    assert dot.lstrip().startswith("digraph")
    assert dot.count("digraph") == 1
    assert dot.count("{") == dot.count("}")


class TestBottleneckDotEdgeCases:
    def test_empty_report_renders_without_highlights(self, pipeline_project):
        report = BottleneckReport()
        dot = report.to_dot(pipeline_project)
        assert_valid_dot(dot)
        assert report.bottleneck_component() is None
        assert "no congestion recorded" in report.summary()

    def test_zero_score_entries_highlight_nothing(self, pipeline_project):
        # Entries exist but nothing ever waited: scores are all zero, so
        # the DOT must not paint a false culprit.
        report = BottleneckReport(
            entries=[
                ChannelBottleneck("c", "top.values", "add.lhs", 3, 0.0, 0, 0)
            ],
            total_time=9,
        )
        assert report.bottleneck_component() is None
        assert_valid_dot(report.to_dot(pipeline_project))

    def test_worst_is_stable_under_count_overshoot(self):
        entries = [
            ChannelBottleneck("a", "x.o", "y.i", 1, 2.0, 1, 4),
            ChannelBottleneck("b", "y.o", "z.i", 1, 1.0, 0, 0),
        ]
        report = BottleneckReport(entries=entries, total_time=10)
        assert [e.channel for e in report.worst(99)] == ["a", "b"]


class TestDeadlockDotEdgeCases:
    def test_empty_report_has_no_wait_cluster(self, pipeline_project):
        report = DeadlockReport()
        assert not report.deadlocked
        dot = report.to_dot(pipeline_project)
        assert_valid_dot(dot)
        assert "cluster_wait_for" not in dot

    def test_self_loop_wait_edge(self, pipeline_project):
        # A component waiting on itself (a feedback loop through a full
        # channel) is a one-node cycle: the node and the self-edge must
        # both carry the cycle colour.
        report = DeadlockReport(
            stalled=[StalledChannel("loop", "a.o", "a.i", 2, 1)],
            waiting_components=["a"],
            wait_cycles=[["a", "a"]],
            wait_edges=[("a", "a")],
        )
        dot = report.to_dot(pipeline_project)
        assert_valid_dot(dot)
        assert "cluster_wait_for" in dot
        assert '"waitfor.a" -> "waitfor.a"' in dot
        assert "penwidth=2" in dot
        assert "fillcolor" in dot

    def test_multiple_disjoint_wait_cycles(self, pipeline_project):
        report = DeadlockReport(
            stalled=[StalledChannel("c1", "a.o", "b.i", 1, 0)],
            waiting_components=["a", "b", "c", "d", "e"],
            wait_cycles=[["a", "b", "a"], ["c", "d", "c"]],
            wait_edges=[("a", "b"), ("b", "a"), ("c", "d"), ("d", "c"), ("e", "a")],
        )
        dot = report.to_dot(pipeline_project)
        assert_valid_dot(dot)
        for waiter, waited_on in report.wait_edges:
            assert f'"waitfor.{waiter}" -> "waitfor.{waited_on}"' in dot
        # Both cycles paint their edges; the off-cycle edge e->a stays plain.
        assert dot.count("penwidth=2") == 4
        assert '"waitfor.e" -> "waitfor.a";' in dot
        assert "wait cycle: a -> b -> a" in report.summary()

    def test_wait_cluster_splices_inside_the_digraph(self, pipeline_project):
        report = DeadlockReport(
            waiting_components=["a"], wait_edges=[("a", "b")]
        )
        dot = report.to_dot(pipeline_project)
        assert_valid_dot(dot)
        # The cluster must land before the document's closing brace.
        assert dot.rstrip().endswith("}")
        assert dot.index("cluster_wait_for") < dot.rindex("}")


class TestSimReportCacheTiers:
    SOURCES = [(ADD_TEN_PIPELINE, "pipe.td")]
    PLAN = SimulationPlan(stimuli={"values": [1, 2, 3]})

    def _compute(self, project):
        return lambda: run_simulation(project, self.PLAN)

    def test_memory_tier_serves_without_recompute(self, pipeline_project):
        cache = StageCache()
        key = cache.sim_key(self.SOURCES, None, self.PLAN)
        first = cache.cached_simulation(key, self._compute(pipeline_project))

        def explode():
            raise AssertionError("memory hit must not recompute")

        assert cache.cached_simulation(key, explode) is first
        assert cache.stats.sim_hits == 1 and cache.stats.sim_misses == 1

    def test_disk_tier_round_trip(self, pipeline_project, tmp_path):
        warm = StageCache(cache_dir=tmp_path)
        key = warm.sim_key(self.SOURCES, None, self.PLAN)
        report = warm.cached_simulation(key, self._compute(pipeline_project))

        cold = StageCache(cache_dir=tmp_path)
        served = cold.cached_simulation(
            key, lambda: pytest.fail("disk hit must not recompute")
        )
        assert isinstance(served, SimulationReport)
        assert served is not report
        assert json.dumps(served.as_dict(), sort_keys=True) == json.dumps(
            report.as_dict(), sort_keys=True
        )
        assert cold.stats.sim_hits == 1 and cold.stats.disk_hits == 1

    def test_remote_tier_round_trip(self, pipeline_project):
        cachesvc = pytest.importorskip("repro.server.cachesvc")
        from repro.pipeline import RemoteCacheClient

        with cachesvc.CacheServerThread() as server:
            warm = StageCache(remote=RemoteCacheClient.from_url(server.endpoint))
            key = warm.sim_key(self.SOURCES, None, self.PLAN)
            report = warm.cached_simulation(key, self._compute(pipeline_project))
            assert warm.remote.flush()
            warm.remote.close()

            cold = StageCache(remote=RemoteCacheClient.from_url(server.endpoint))
            served = cold.cached_simulation(
                key, lambda: pytest.fail("remote hit must not recompute")
            )
            cold.remote.close()
        assert isinstance(served, SimulationReport)
        assert served.as_dict() == report.as_dict()
        assert cold.stats.sim_misses == 0

    def test_plan_changes_miss(self, pipeline_project, tmp_path):
        cache = StageCache(cache_dir=tmp_path)
        key = cache.sim_key(self.SOURCES, None, self.PLAN)
        other = cache.sim_key(
            self.SOURCES, None, self.PLAN.replace(channel_capacity=7)
        )
        assert key != other

    def test_downstream_options_keep_reports_warm(self):
        # Backend targets and their options cannot change what the
        # simulator elaborates, so they do not participate in the sim key.
        cache = StageCache()
        key = cache.sim_key(self.SOURCES, {"sugaring": True}, self.PLAN)
        assert key == cache.sim_key(
            self.SOURCES,
            {"sugaring": True, "targets": ("vhdl",), "backend_options": {"dot": {}}},
            self.PLAN,
        )

    def test_check_options_split_the_sim_key(self):
        # Sugaring inserts duplicators/voiders and DRC gates the design:
        # both change what (and whether) the simulator elaborates.
        cache = StageCache()
        key = cache.sim_key(self.SOURCES, {"sugaring": True}, self.PLAN)
        for option in ("sugaring", "run_drc", "strict_drc"):
            assert cache.sim_key(self.SOURCES, {option: False}, self.PLAN) != key

    def test_unsugared_twin_is_not_served_the_sugared_report(self):
        """Regression: the sim key ignored ``sugaring``, so an unsugared
        fan-out design was served its sugared twin's cached report instead
        of failing to elaborate."""
        from repro.errors import TydiSimulationError
        from repro.lang.compile import CompileOptions

        raw = CompileOptions(sugaring=False, run_drc=False)
        uncached = Workspace(cache=None)
        uncached.add_design("raw", {"f.td": FAN_OUT}, raw)
        with pytest.raises(TydiSimulationError, match="more than one connection"):
            uncached.simulate("raw", self.PLAN)

        workspace = Workspace()
        workspace.add_design("sugared", {"f.td": FAN_OUT})
        workspace.add_design("raw", {"f.td": FAN_OUT}, raw)
        assert workspace.simulate("sugared", self.PLAN).outputs == {"total": [12]}
        with pytest.raises(TydiSimulationError, match="more than one connection"):
            workspace.simulate("raw", self.PLAN)

    def test_workspace_disk_tier_survives_sessions(self, tmp_path):
        first = Workspace(cache_dir=tmp_path)
        first.add_design("pipe", {"pipe.td": ADD_TEN_PIPELINE})
        report = first.simulate("pipe", self.PLAN)
        assert report.outputs == {"total": [36]}
        assert first.cache.stats.sim_misses == 1

        second = Workspace(cache_dir=tmp_path)
        second.add_design("pipe", {"pipe.td": ADD_TEN_PIPELINE})
        served = second.simulate("pipe", self.PLAN)
        assert second.cache.stats.sim_hits == 1
        assert second.cache.stats.sim_misses == 0
        assert json.dumps(served.as_dict(), sort_keys=True) == json.dumps(
            report.as_dict(), sort_keys=True
        )
