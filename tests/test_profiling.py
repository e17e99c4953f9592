"""Opt-in stage profiling: the per-stage timers of :data:`repro.tracing.STAGES`
and their ride along the stats plumbing.

The recorder itself, against the code it replaced, is ``test_tracing.py``.
"""

from __future__ import annotations

import pytest

from repro import tracing
from repro.lang.compile import CompileOptions, run_pipeline
from repro.tracing import STAGES, Recorder, format_stages


@pytest.fixture(autouse=True)
def _profiler_off():
    """Leave the global stage recorder disabled and empty around every test."""
    STAGES.disable()
    STAGES.reset()
    yield
    STAGES.disable()
    STAGES.reset()


class TestStageProfiler:
    def test_disabled_by_default_and_noop(self):
        profiler = Recorder()
        assert not profiler.enabled
        with profiler.span("parse"):
            pass
        assert profiler.stage_view() == {"enabled": False, "stages": {}}

    def test_enabled_records_wall_and_cpu(self):
        profiler = Recorder(enabled=True)
        with profiler.span("work"):
            total = sum(range(10_000))
        assert total
        snapshot = profiler.stage_view()
        entry = snapshot["stages"]["work"]
        assert entry["count"] == 1
        assert entry["wall_ms"] >= 0
        assert entry["cpu_ms"] >= 0

    def test_counts_accumulate_and_reset(self):
        profiler = Recorder(enabled=True)
        for _ in range(3):
            with profiler.span("s"):
                pass
        assert profiler.stage_view()["stages"]["s"]["count"] == 3
        profiler.reset()
        assert profiler.stage_view()["stages"] == {}

    def test_failing_stage_still_records(self):
        profiler = Recorder(enabled=True)
        with pytest.raises(ValueError):
            with profiler.span("drc"):
                raise ValueError("boom")
        assert profiler.stage_view()["stages"]["drc"]["count"] == 1
        assert profiler.request_view()["latency"]["drc"]["errors"] == 1

    def test_env_parsing(self):
        enabled = tracing._env_enabled
        assert not enabled(None)
        for falsy in ("", "0", "false", "no", "off", " False ", "NO"):
            assert not enabled(falsy)
        for truthy in ("1", "true", "yes", "on", "anything"):
            assert enabled(truthy)


class TestPipelineIntegration:
    def test_stages_recorded_when_enabled(self):
        STAGES.enable()
        run_pipeline([("streamlet s { }", "x.td")], CompileOptions())
        stages = STAGES.stage_view()["stages"]
        for name in ("parse", "evaluate", "sugaring", "drc"):
            assert stages[name]["count"] == 1, name

    def test_backend_stages_recorded(self):
        STAGES.enable()
        run_pipeline(
            [("streamlet s { }", "x.td")], CompileOptions(targets=("ir",))
        )
        assert "backend:ir" in STAGES.stage_view()["stages"]

    def test_nothing_recorded_when_disabled(self):
        run_pipeline([("streamlet s { }", "x.td")], CompileOptions())
        assert STAGES.stage_view()["stages"] == {}

    def test_workspace_stats_include_profiling_only_when_enabled(self):
        from repro.workspace import Workspace

        workspace = Workspace(cache=None)
        workspace.add_design("d", [("streamlet s { }", "x.td")])
        workspace.result("d")
        assert "profiling" not in workspace.stats()

        STAGES.enable()
        workspace.update_file("d", "x.td", "streamlet s2 { }")
        workspace.result("d")
        stats = workspace.stats()
        assert stats["profiling"]["enabled"] is True
        assert stats["profiling"]["stages"]["parse"]["count"] >= 1


class TestFormatProfile:
    def test_empty_snapshot(self):
        assert "no stage timings" in format_stages({"enabled": True, "stages": {}})

    def test_table_rendering(self):
        snapshot = {
            "enabled": True,
            "stages": {"parse": {"count": 2, "wall_ms": 1.5, "cpu_ms": 1.25}},
        }
        table = format_stages(snapshot)
        assert "parse" in table and "1.500" in table and "1.250" in table


class TestPoolAggregation:
    def test_worker_profiling_blocks_are_summed(self):
        from repro.server.service import _aggregate_worker_workspaces

        def worker(wall):
            return {
                "workspace": {
                    "designs": {"total": 1, "fresh": 1, "stale": 0, "error": 0},
                    "stage_cache": {"parse_hits": 1},
                    "profiling": {
                        "enabled": True,
                        "stages": {"parse": {"count": 1, "wall_ms": wall, "cpu_ms": wall}},
                    },
                }
            }

        summary = _aggregate_worker_workspaces({"per_worker": [worker(1.5), worker(2.5)]})
        assert summary["profiling"]["enabled"] is True
        parse = summary["profiling"]["stages"]["parse"]
        assert parse["count"] == 2
        assert parse["wall_ms"] == pytest.approx(4.0)

    def test_no_profiling_block_without_worker_profiling(self):
        from repro.server.service import _aggregate_worker_workspaces

        summary = _aggregate_worker_workspaces(
            {
                "per_worker": [
                    {
                        "workspace": {
                            "designs": {"total": 1, "fresh": 1, "stale": 0, "error": 0},
                            "stage_cache": {},
                        }
                    }
                ]
            }
        )
        assert "profiling" not in summary
