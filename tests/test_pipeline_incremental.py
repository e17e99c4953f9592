"""Tests for incremental recompilation (fingerprint diffing).

A :class:`repro.workspace.Workspace` holds the design set across build
rounds; each :meth:`~repro.workspace.Workspace.compile_all` recompiles only
the designs whose fingerprint changed and reports the diff.
"""

import pytest

from repro.errors import TydiWorkspaceError
from repro.pipeline import CompileJob, StageCache
from repro.workspace import Workspace


def job(name: str, width: int, **options) -> CompileJob:
    source = f"""
type data_t = Stream(Bit({width}), d=1);
streamlet pass_s {{ i: data_t in, o: data_t out, }}
impl pass_i of pass_s {{ i => o, }}
top pass_i;
"""
    return CompileJob(name=name, sources=((source, f"{name}.td"),)).with_options(**options)


BROKEN = CompileJob(
    name="broken",
    sources=(("streamlet s { i: Mystery in, }\nimpl i_impl of s {}\ntop i_impl;", "broken.td"),),
)


def workspace_with(*jobs: CompileJob, cache=None) -> Workspace:
    """A serial workspace holding ``jobs`` (its own cache unless one is given)."""
    workspace = Workspace() if cache is None else Workspace(cache=cache)
    for entry in jobs:
        workspace.add_job(entry)
    return workspace


class TestIncrementalCompiler:
    """Design-level incremental rebuilds through ``Workspace.compile_all``."""

    def test_first_round_compiles_everything(self):
        report = workspace_with(job("a", 8), job("b", 16)).compile_all()
        assert sorted(report.compiled) == ["a", "b"]
        assert report.reused == [] and report.removed == []
        assert report.ok
        assert set(report.results) == {"a", "b"}

    def test_unchanged_jobs_are_reused_not_recompiled(self):
        workspace = workspace_with(job("a", 8), job("b", 16))
        first = workspace.compile_all()
        second = workspace.compile_all()
        assert second.compiled == [] and sorted(second.reused) == ["a", "b"]
        # Reuse hands back the very same result objects.
        assert second.results["a"] is first.results["a"]

    def test_only_changed_job_recompiles(self):
        workspace = workspace_with(job("a", 8), job("b", 16))
        workspace.compile_all()
        workspace.add_job(job("b", 32), replace=True)  # b's source changed
        report = workspace.compile_all()
        assert report.compiled == ["b"]
        assert report.reused == ["a"]

    def test_option_change_marks_dirty(self):
        workspace = workspace_with(job("a", 8))
        workspace.compile_all()
        workspace.add_job(job("a", 8, sugaring=False), replace=True)
        report = workspace.compile_all()
        assert report.compiled == ["a"]

    def test_removed_designs_are_dropped(self):
        workspace = workspace_with(job("a", 8), job("b", 16))
        workspace.compile_all()
        workspace.remove_design("b")
        report = workspace.compile_all()
        assert report.removed == ["b"]
        assert workspace.cached_result("b") is None
        assert workspace.design_names == ["a"]

    def test_failed_design_is_retried_next_round(self):
        workspace = workspace_with(job("a", 8), BROKEN)
        report = workspace.compile_all()
        assert not report.ok
        assert "broken" in report.failed and "Mystery" in report.failed["broken"]
        # Same design set again: the good design is reused, the bad one retried.
        again = workspace.compile_all()
        assert again.reused == ["a"]
        assert "broken" in again.failed

    def test_failed_recompile_drops_stale_result(self):
        """A design that compiled once but now fails must not keep serving
        the outdated artefact through cached_result()."""
        workspace = workspace_with(job("design", 8))
        workspace.compile_all()
        assert workspace.cached_result("design") is not None
        workspace.add_job(CompileJob(name="design", sources=BROKEN.sources), replace=True)
        report = workspace.compile_all()
        assert "design" in report.failed
        assert workspace.cached_result("design") is None
        assert "design" not in report.results

    def test_fixing_a_failed_design(self):
        workspace = workspace_with(BROKEN)
        workspace.compile_all()
        workspace.add_job(job("broken", 8), replace=True)
        fixed = workspace.compile_all()
        assert fixed.compiled == ["broken"] and fixed.ok

    def test_shares_cache_with_other_drivers(self):
        cache = StageCache()
        workspace_with(job("a", 8), cache=cache).compile_all()
        # A second, state-less workspace still hits the cache.
        report = workspace_with(job("a", 8), cache=cache).compile_all()
        assert report.compiled == ["a"]
        assert cache.stats.evaluate_hits == 1

    def test_summary_line(self):
        report = workspace_with(job("a", 8)).compile_all()
        assert report.summary() == "1 recompiled, 0 reused, 0 removed, 0 failed"


def multi_file_job(name: str, step_width: int = 8, top_note: str = "") -> CompileJob:
    """A three-file design for the file-granularity invalidation tests."""
    types = (f"type data_t = Stream(Bit({step_width}), d=1);", "types.td")
    stage = ("streamlet pass_s { i: data_t in, o: data_t out, }", "streamlet.td")
    top = (f"impl pass_i of pass_s {{ i => o, }}\ntop pass_i;\n{top_note}", "top.td")
    return CompileJob(name, (types, stage, top)).with_options(include_stdlib=False)


class TestFileGranularity:
    def test_new_design_lists_every_file_as_changed(self):
        report = workspace_with(multi_file_job("a")).compile_all()
        assert sorted(report.changed_files["a"]) == ["streamlet.td", "top.td", "types.td"]
        assert report.unchanged_files["a"] == []

    def test_one_file_edit_is_diffed_at_file_level(self):
        workspace = workspace_with(multi_file_job("a"))
        workspace.compile_all()
        workspace.add_job(multi_file_job("a", top_note="// edited"), replace=True)
        report = workspace.compile_all()
        assert report.compiled == ["a"]
        assert report.changed_files["a"] == ["top.td"]
        assert sorted(report.unchanged_files["a"]) == ["streamlet.td", "types.td"]
        assert report.file_summary() == "1 file(s) re-parsed, 2 file(s) reused"

    def test_reused_designs_have_no_file_churn(self):
        workspace = workspace_with(multi_file_job("a"))
        workspace.compile_all()
        report = workspace.compile_all()
        assert report.reused == ["a"]
        assert report.changed_files == {} and report.unchanged_files == {}

    def test_option_only_change_shows_zero_changed_files(self):
        workspace = workspace_with(multi_file_job("a"))
        workspace.compile_all()
        workspace.add_job(multi_file_job("a").with_options(run_drc=False), replace=True)
        report = workspace.compile_all()
        assert report.compiled == ["a"]
        assert report.changed_files["a"] == []
        assert len(report.unchanged_files["a"]) == 3

    def test_stage_cache_reuses_unchanged_files_across_update(self):
        """The recompile after a one-file edit re-parses only that file."""
        cache = StageCache()
        workspace = workspace_with(multi_file_job("a"), cache=cache)
        workspace.compile_all()
        assert cache.stats.parse_misses == 3
        workspace.add_job(multi_file_job("a", top_note="// edited"), replace=True)
        workspace.compile_all()
        assert cache.stats.parse_misses == 4  # only top.td re-parsed
        assert cache.stats.parse_hits == 2

    def test_failed_design_drops_file_memory(self):
        workspace = workspace_with(multi_file_job("a"))
        workspace.compile_all()
        broken = CompileJob("a", (("streamlet broken {", "types.td"),)).with_options(
            include_stdlib=False
        )
        workspace.add_job(broken, replace=True)
        failed = workspace.compile_all()
        assert "a" in failed.failed
        # After the failure the design is fully forgotten: the next good
        # round treats every file as new.
        workspace.add_job(multi_file_job("a"), replace=True)
        report = workspace.compile_all()
        assert sorted(report.changed_files["a"]) == ["streamlet.td", "top.td", "types.td"]


class TestBackendTargets:
    def test_new_target_dirties_and_outputs_for(self):
        workspace = workspace_with(job("a", 8), cache=StageCache())
        first = workspace.compile_all()
        assert first.compiled == ["a"]
        assert workspace.cached_result("a").outputs.get("vhdl") is None

        # Requesting a backend changes the job fingerprint: the design is
        # dirty even though no source file changed.
        workspace.add_job(job("a", 8, targets=("vhdl",)), replace=True)
        second = workspace.compile_all()
        assert second.compiled == ["a"]
        assert second.changed_files == {"a": []}
        vhdl = workspace.cached_result("a").outputs.get("vhdl")
        assert vhdl and all(name.endswith(".vhd") for name in vhdl)
        assert workspace.cached_result("a").outputs.get("dot") is None
        assert workspace.cached_result("missing") is None

        # Unchanged job (same targets) is reused, outputs still served.
        third = workspace.compile_all()
        assert third.reused == ["a"]
        assert workspace.cached_result("a").outputs.get("vhdl") == vhdl


def test_duplicate_job_names_rejected():
    """A name collision is an error, never a silent last-job-wins replace."""
    workspace = workspace_with(job("a", 8))
    with pytest.raises(TydiWorkspaceError, match="already exists"):
        workspace.add_job(job("a", 16))
