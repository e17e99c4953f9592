"""Unit tests for the :class:`repro.workspace.Workspace` session API.

The session *differential* (a random mutation history ends byte-identical
to a fresh one-shot compile) lives in ``tests/test_workspace_properties.py``;
these tests pin down the session mechanics: the design store, query
memoisation and invalidation, the cache stack wiring, ``compile_all``,
thread safety, and the deprecated driver facades.
"""

from __future__ import annotations

import threading

import pytest

from repro.backends.ir_text import IrTextBackend
from repro.errors import TydiDRCError, TydiWorkspaceError
from repro.lang.compile import CompileOptions, compile_sources
from repro.pipeline import StageCache, run_jobs
from repro.pipeline.batch import CompileJob
from repro.testing import build_chain_design
from repro.workspace import Workspace

SOURCE = """
type byte_t = Stream(Bit(8), d=1);
streamlet echo_s { i: byte_t in, o: byte_t out, }
impl echo_i of echo_s { i => o, }
top echo_i;
"""

OTHER = SOURCE.replace("Bit(8)", "Bit(16)")

BROKEN = "streamlet s { i: Mystery in, }\nimpl im of s {}\ntop im;"


def make_workspace(**kwargs) -> Workspace:
    return Workspace(**kwargs)


class TestDesignStore:
    def test_add_and_query(self):
        ws = make_workspace()
        ws.add_design("echo", {"a.td": SOURCE})
        assert "echo" in ws and len(ws) == 1
        assert ws.design_names == ["echo"]
        assert "impl echo_i" in ws.ir("echo")

    def test_files_accepts_pairs_and_mapping_and_bare(self):
        ws = make_workspace()
        ws.add_design("pairs", [(SOURCE, "a.td")])
        ws.add_design("mapping", {"a.td": SOURCE})
        ws.add_design("bare", [SOURCE])
        assert ws.files("pairs") == {"a.td": SOURCE}
        assert ws.files("mapping") == {"a.td": SOURCE}
        assert ws.files("bare") == {"source_0.td": SOURCE}

    def test_duplicate_design_rejected(self):
        ws = make_workspace()
        ws.add_design("echo", {"a.td": SOURCE})
        with pytest.raises(TydiWorkspaceError, match="already exists"):
            ws.add_design("echo", {"a.td": OTHER})

    def test_replace_design(self):
        ws = make_workspace()
        ws.add_design("echo", {"a.td": SOURCE})
        first = ws.result("echo")
        ws.add_design("echo", {"a.td": OTHER}, replace=True)
        assert "Bit<16>" in ws.ir("echo") or "16" in ws.ir("echo")
        assert ws.result("echo") is not first

    def test_replace_with_identical_content_keeps_memo(self):
        ws = make_workspace()
        ws.add_design("echo", {"a.td": SOURCE})
        first = ws.result("echo")
        ws.add_design("echo", {"a.td": SOURCE}, replace=True)
        assert ws.result("echo") is first

    def test_remove_design(self):
        ws = make_workspace()
        ws.add_design("echo", {"a.td": SOURCE})
        ws.remove_design("echo")
        assert "echo" not in ws
        with pytest.raises(TydiWorkspaceError, match="no design named 'echo'"):
            ws.result("echo")
        with pytest.raises(TydiWorkspaceError, match="no design named"):
            ws.remove_design("echo")

    def test_unknown_design_error_names_known_ones(self):
        ws = make_workspace()
        ws.add_design("known", {"a.td": SOURCE})
        with pytest.raises(TydiWorkspaceError, match="known"):
            ws.result("unknown")

    def test_update_file_and_remove_file(self):
        ws = make_workspace()
        ws.add_design("echo", {"a.td": SOURCE})
        ws.update_file("echo", "extra.td", "const answer = 42;")
        assert sorted(ws.files("echo")) == ["a.td", "extra.td"]
        ws.remove_file("echo", "extra.td")
        assert sorted(ws.files("echo")) == ["a.td"]
        with pytest.raises(TydiWorkspaceError, match="has no file"):
            ws.remove_file("echo", "extra.td")

    def test_files_returns_a_copy(self):
        ws = make_workspace()
        ws.add_design("echo", {"a.td": SOURCE})
        ws.files("echo")["a.td"] = "tampered"
        assert ws.files("echo")["a.td"] == SOURCE

    def test_empty_design_name_rejected(self):
        ws = make_workspace()
        with pytest.raises(TydiWorkspaceError, match="non-empty"):
            ws.add_design("", {"a.td": SOURCE})


class TestQueries:
    def test_result_is_memoised(self, monkeypatch):
        """A repeat read is served from the memo without hashing the
        design's sources again."""
        ws = make_workspace()
        ws.add_design("echo", {"a.td": SOURCE})
        first = ws.result("echo")
        vhdl = ws.outputs("echo", "vhdl")
        calls = []
        fingerprint = CompileOptions.fingerprint

        def counting(self, *args, **kwargs):
            calls.append(args)
            return fingerprint(self, *args, **kwargs)

        monkeypatch.setattr(CompileOptions, "fingerprint", counting)
        assert ws.result("echo") is first
        assert ws.outputs("echo", "vhdl") is vhdl
        assert ws.is_fresh("echo") and ws.cached_result("echo") is first
        ws.fingerprint("echo")
        assert calls == []

    def test_every_mutator_rehashes_the_design(self):
        """Each mutator drops the design's cached fingerprint: the next read
        equals a fresh compile of the new content."""
        ws = make_workspace()
        ws.add_design("echo", {"a.td": SOURCE})
        extra = "streamlet extra_s { i: byte_t in, o: byte_t out, }\n"

        def assert_reads(files, options=None):
            fresh = compile_sources(files, options=options)
            served = ws.result("echo")
            assert (served.ir_text(), served.stage_names()) == (fresh.ir_text(), fresh.stage_names())

        assert_reads({"a.td": SOURCE})
        ws.update_file("echo", "a.td", OTHER)
        assert_reads({"a.td": OTHER})
        ws.update_file("echo", "extra.td", extra)
        assert_reads({"a.td": OTHER, "extra.td": extra})
        ws.remove_file("echo", "extra.td")
        assert_reads({"a.td": OTHER})
        ws.set_options("echo", CompileOptions(sugaring=False))
        assert_reads({"a.td": OTHER}, CompileOptions(sugaring=False))
        ws.add_design("echo", {"a.td": SOURCE}, replace=True)
        assert_reads({"a.td": SOURCE})

    def test_edit_invalidates_and_identical_rewrite_does_not(self):
        ws = make_workspace()
        ws.add_design("echo", {"a.td": SOURCE})
        first = ws.result("echo")
        ws.update_file("echo", "a.td", SOURCE)  # byte-identical rewrite
        assert ws.result("echo") is first
        ws.update_file("echo", "a.td", SOURCE + "// edit\n")
        assert ws.result("echo") is not first

    def test_option_change_invalidates(self):
        ws = make_workspace()
        ws.add_design("echo", {"a.td": SOURCE})
        first = ws.result("echo")
        ws.set_options("echo", CompileOptions(sugaring=False))
        second = ws.result("echo")
        assert second is not first
        assert "sugaring" not in second.stage_names()

    def test_is_fresh_and_report_status(self):
        ws = make_workspace()
        ws.add_design("echo", {"a.td": SOURCE})
        assert not ws.is_fresh("echo")
        assert ws.report()["designs"]["echo"]["status"] == "stale"
        ws.result("echo")
        assert ws.is_fresh("echo")
        assert ws.report()["designs"]["echo"]["status"] == "fresh"
        ws.update_file("echo", "a.td", OTHER)
        assert not ws.is_fresh("echo")

    def test_diagnostics_query(self):
        source = """
        type t = Stream(Bit(4), d=1);
        streamlet wide_s { a: t out, b: t out, }
        external impl wide_i of wide_s;
        streamlet top_s { o: t out, }
        impl top_i of top_s { instance w(wide_i), w.a => o, }
        top top_i;
        """
        ws = make_workspace()
        ws.add_design("d", {"a.td": source})
        assert any("voider" in d.message for d in ws.diagnostics("d"))

    def test_outputs_for_configured_target(self):
        ws = make_workspace()
        ws.add_design("echo", {"a.td": SOURCE}, CompileOptions(targets=("vhdl",)))
        files = ws.outputs("echo", "vhdl")
        assert any(name.endswith(".vhd") for name in files)
        # Served straight off the compiled result.
        assert files is ws.result("echo").outputs["vhdl"]

    def test_outputs_lazy_target_is_memoised_and_invalidated(self):
        ws = make_workspace()
        ws.add_design("echo", {"a.td": SOURCE})
        assert ws.result("echo").outputs == {}
        dot = ws.outputs("echo", "dot")
        assert "".join(dot.values()).startswith("digraph")
        assert ws.outputs("echo", "dot") is dot  # memoised
        ws.update_file("echo", "a.td", OTHER)
        assert ws.outputs("echo", "dot") is not dot

    def test_ir_is_assembled_once_and_invalidated_like_any_target(self, monkeypatch):
        assembled = []
        assemble = IrTextBackend.assemble

        def counting_assemble(self, *args):
            assembled.append(args)
            return assemble(self, *args)

        monkeypatch.setattr(IrTextBackend, "assemble", counting_assemble)
        ws = make_workspace()
        ws.add_design("echo", {"a.td": SOURCE})
        first = ws.ir("echo")
        assert ws.ir("echo") == first
        assert len(assembled) == 1
        ws.update_file("echo", "a.td", OTHER)
        assert ws.ir("echo") == compile_sources({"a.td": OTHER}).ir_text() != first

    def test_outputs_honour_backend_options(self):
        ws = make_workspace()
        ws.add_design(
            "echo",
            {"a.td": SOURCE},
            CompileOptions(backend_options={"dot": {"rankdir": "TB"}}),
        )
        dot = "".join(ws.outputs("echo", "dot").values())
        assert 'rankdir="TB"' in dot

    def test_error_is_memoised_and_retried_after_fix(self):
        cache = StageCache()
        ws = make_workspace(cache=cache)
        ws.add_design("bad", {"a.td": BROKEN})
        with pytest.raises(Exception, match="Mystery"):
            ws.result("bad")
        counts = cache.stats_snapshot()
        with pytest.raises(Exception, match="Mystery"):
            ws.result("bad")  # re-raised from the memo, no recompile
        assert cache.stats_snapshot() == counts
        assert ws.report()["designs"]["bad"]["status"] == "error"
        assert ws.cached_result("bad") is None
        ws.update_file("bad", "a.td", SOURCE)
        assert "impl echo_i" in ws.ir("bad")

    def test_strict_drc_error_propagates(self):
        source = """
        type t = Stream(Bit(4), d=1);
        streamlet wide_s { a: t out, b: t out, }
        external impl wide_i of wide_s;
        streamlet top_s { o: t out, }
        impl top_i of top_s { instance w(wide_i), w.a => o, }
        top top_i;
        """
        ws = make_workspace(options=CompileOptions(sugaring=False))
        ws.add_design("d", {"a.td": source})
        with pytest.raises(TydiDRCError):
            ws.result("d")

    def test_invalidate_forces_recompute_but_keeps_cache(self):
        cache = StageCache()
        ws = make_workspace(cache=cache)
        ws.add_design("echo", {"a.td": SOURCE})
        first = ws.result("echo")
        ws.invalidate("echo")
        again = ws.result("echo")
        assert again.project is first.project  # served by the frontend snapshot
        assert cache.stats.evaluate_hits == 1


class TestCacheStack:
    def test_default_workspace_owns_a_stage_cache(self):
        ws = make_workspace()
        assert isinstance(ws.cache, StageCache)

    def test_explicit_none_disables_caching(self):
        ws = make_workspace(cache=None)
        assert ws.cache is None
        ws.add_design("echo", {"a.td": SOURCE})
        assert "impl echo_i" in ws.ir("echo")

    def test_cache_dir_persists_across_sessions(self, tmp_path):
        first = make_workspace(cache_dir=tmp_path / "cache")
        first.add_design("echo", {"a.td": SOURCE})
        cold = first.result("echo")

        second = make_workspace(cache_dir=tmp_path / "cache")
        second.add_design("echo", {"a.td": SOURCE})
        warm = second.result("echo")
        assert second.cache.stats.disk_hits == 1
        assert warm.ir_text() == cold.ir_text()

    def test_one_file_edit_reparses_one_file(self):
        ws = make_workspace()
        sources = build_chain_design(6)  # 7 files
        ws.add_design("chain", sources)
        ws.result("chain")
        stats = ws.cache.stats
        assert stats.parse_misses == len(sources)
        text, filename = sources[2]
        ws.update_file("chain", filename, text + "// tweak\n")
        ws.result("chain")
        assert stats.parse_misses == len(sources) + 1
        assert stats.parse_hits >= len(sources) - 1

    def test_one_budget_pass_per_budgeted_edit(self, tmp_path, monkeypatch):
        """A budgeted edit pays one budget pass, and the pass reads the
        byte ledger: it scans no directory."""
        import pathlib

        ws = make_workspace(cache_dir=tmp_path / "cache", max_cache_mb=64)
        ws.add_design("echo", {"a.td": SOURCE})
        ws.result("echo")
        passes, scans = [], []
        enforce = StageCache.enforce_disk_budget

        def counting_enforce(self):
            passes.append(self)
            return enforce(self)

        monkeypatch.setattr(StageCache, "enforce_disk_budget", counting_enforce)
        monkeypatch.setattr(pathlib.Path, "glob", lambda self, *a, **k: scans.append(self) or iter(()))
        monkeypatch.setattr(pathlib.Path, "rglob", lambda self, *a, **k: scans.append(self) or iter(()))
        ws.update_file("echo", "a.td", OTHER)
        ws.result("echo")
        assert passes == [ws.cache] and scans == []

    def test_targets_read_after_an_edit_fingerprint_each_implementation_once(self, monkeypatch):
        import repro.backends
        from repro.backends import get_backend

        ws = make_workspace()
        sources = build_chain_design(6)
        ws.add_design("chain", sources)
        targets = ("vhdl", "verilog", "ir")
        for target in targets:
            ws.outputs("chain", target)
        text, filename = sources[2]
        ws.update_file("chain", filename, text.replace("Bit(", "Bit(1", 1))

        calls: list[str] = []
        fingerprint = repro.backends.implementation_fingerprint

        def counting(project, implementation, tokens=None):
            calls.append(implementation.name)
            return fingerprint(project, implementation, tokens)

        monkeypatch.setattr(repro.backends, "implementation_fingerprint", counting)
        outputs = {target: ws.outputs("chain", target) for target in targets}
        project = ws.result("chain").project
        assert sorted(calls) == sorted(project.implementations)
        for target in targets:
            assert outputs[target] == get_backend(target).emit(project)

    def test_max_cache_mb_requires_cache_dir(self):
        with pytest.raises(TydiWorkspaceError, match="requires cache_dir"):
            make_workspace(max_cache_mb=64)
        with pytest.raises(TydiWorkspaceError, match=">= 0"):
            make_workspace(cache_dir="x", max_cache_mb=-1)

    def test_cache_and_cache_dir_conflict(self):
        with pytest.raises(TydiWorkspaceError, match="not both"):
            make_workspace(cache=StageCache(), cache_dir="x")

    def test_shim_equivalence_with_compile_sources(self):
        ws = make_workspace(cache=None)
        ws.add_design("echo", {"a.td": SOURCE}, CompileOptions(targets=("ir", "dot")))
        session = ws.result("echo")
        oneshot = compile_sources(
            [(SOURCE, "a.td")], options=CompileOptions(targets=("ir", "dot"))
        )
        assert session.ir_text() == oneshot.ir_text()
        assert [str(s) for s in session.stages] == [str(s) for s in oneshot.stages]
        assert session.outputs == oneshot.outputs


class TestCompileAll:
    def test_compiles_everything_then_reuses(self):
        ws = make_workspace()
        ws.add_design("a", {"a.td": SOURCE})
        ws.add_design("b", {"b.td": OTHER})
        report = ws.compile_all()
        assert sorted(report.compiled) == ["a", "b"] and report.ok
        assert report.batch is not None and len(report.batch) == 2
        again = ws.compile_all()
        assert again.compiled == [] and sorted(again.reused) == ["a", "b"]
        assert again.results["a"] is report.results["a"]

    def test_failure_is_isolated_and_retried(self):
        ws = make_workspace()
        ws.add_design("good", {"a.td": SOURCE})
        ws.add_design("bad", {"b.td": BROKEN})
        report = ws.compile_all()
        assert not report.ok and "Mystery" in report.failed["bad"]
        assert report.compiled == ["good"]
        again = ws.compile_all()
        assert again.reused == ["good"] and "bad" in again.failed

    def test_file_granularity_reporting(self):
        ws = make_workspace()
        sources = build_chain_design(3)
        ws.add_design("chain", sources)
        report = ws.compile_all()
        assert sorted(report.changed_files["chain"]) == sorted(fn for _, fn in sources)
        text, filename = sources[0]
        ws.update_file("chain", filename, text + "// edit\n")
        second = ws.compile_all()
        assert second.changed_files["chain"] == [filename]
        assert sorted(second.unchanged_files["chain"]) == sorted(
            fn for _, fn in sources[1:]
        )

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_executors_produce_identical_ir(self, executor):
        serial = make_workspace(cache=None)
        concurrent = make_workspace(cache=None)
        for index, width in enumerate((2, 4, 8)):
            files = {"d.td": SOURCE.replace("Bit(8)", f"Bit({width})")}
            serial.add_design(f"d{index}", files)
            concurrent.add_design(f"d{index}", files)
        baseline = serial.compile_all(executor="serial")
        outcome = concurrent.compile_all(executor=executor, jobs=2)
        for name in baseline.results:
            assert outcome.results[name].ir_text() == baseline.results[name].ir_text()

    def test_empty_workspace(self):
        report = make_workspace().compile_all()
        assert report.ok and report.batch is not None and len(report.batch) == 0

    def test_queries_after_compile_all_hit_the_memo(self):
        cache = StageCache()
        ws = make_workspace(cache=cache)
        ws.add_design("echo", {"a.td": SOURCE})
        report = ws.compile_all()
        counts = cache.stats_snapshot()
        assert ws.result("echo") is report.results["echo"]
        assert cache.stats_snapshot() == counts  # memo, not cache


class TestThreadSafety:
    def test_concurrent_queries_across_designs(self):
        ws = make_workspace()
        for index in range(4):
            ws.add_design(f"d{index}", {"a.td": SOURCE.replace("Bit(8)", f"Bit({index + 1})")})
        errors: list[BaseException] = []

        def query(name: str) -> None:
            try:
                for _ in range(5):
                    assert "echo_s" in ws.ir(name)
            except BaseException as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [
            threading.Thread(target=query, args=(f"d{i % 4}",)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

    def test_edit_during_queries_settles_consistently(self):
        ws = make_workspace()
        ws.add_design("echo", {"a.td": SOURCE})
        stop = threading.Event()
        errors: list[BaseException] = []

        def reader() -> None:
            try:
                while not stop.is_set():
                    ws.result("echo")
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        thread = threading.Thread(target=reader)
        thread.start()
        for round_index in range(10):
            ws.update_file("echo", "a.td", SOURCE + f"// round {round_index}\n")
        stop.set()
        thread.join()
        assert errors == []
        final = ws.result("echo")
        reference = compile_sources([(SOURCE + "// round 9\n", "a.td")])
        assert final.ir_text() == reference.ir_text()

    def test_edit_racing_a_read_never_leaves_superseded_ir_memoised(self, monkeypatch):
        """An edit and its recompile cannot land between a read's compile
        and its memo store: the writer waits for the design lock, so the
        recompile drops what the read stored instead of the read storing
        over it."""
        ws = make_workspace()
        ws.add_design("echo", {"a.td": SOURCE})
        compile_result = Workspace._result
        writers: list[threading.Thread] = []

        def edit_and_recompile() -> None:
            ws.update_file("echo", "a.td", OTHER)
            ws.result("echo")

        def racing_result(self, entry):
            result = compile_result(self, entry)
            if not writers:
                writers.append(threading.Thread(target=edit_and_recompile))
                writers[0].start()
                # Returns before the timeout only if the read left the lock.
                writers[0].join(timeout=0.5)
            return result

        monkeypatch.setattr(Workspace, "_result", racing_result)
        ws.ir("echo")
        writers[0].join()
        assert ws.ir("echo") == compile_sources({"a.td": OTHER}).ir_text()


class TestDeprecatedDrivers:
    def test_run_jobs_is_not_deprecated(self, recwarn):
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", DeprecationWarning)
            outcome = run_jobs(
                [CompileJob(name="echo", sources=((SOURCE, "a.td"),))], executor="serial"
            )
        assert outcome.ok
