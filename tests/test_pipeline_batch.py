"""Tests for the batch job engine (fan-out, isolation, determinism)."""

import pytest

from repro.lang.compile import CompileOptions
from repro.pipeline import (
    BatchCompilationError,
    CompileJob,
    StageCache,
    run_jobs,
)


def design_source(width: int) -> str:
    return f"""
type data_t = Stream(Bit({width}), d=1);
streamlet pass_s {{ i: data_t in, o: data_t out, }}
impl pass_i of pass_s {{ i => o, }}
top pass_i;
"""


BAD_SOURCE = """
streamlet broken_s { i: MysteryType in, }
impl broken_i of broken_s {}
top broken_i;
"""


def make_jobs(count: int = 5) -> list[CompileJob]:
    return [
        CompileJob(name=f"design_{width}", sources=((design_source(width), f"design_{width}.td"),))
        for width in range(1, count + 1)
    ]


class TestCompileJob:
    def test_fingerprint_tracks_options(self):
        job = make_jobs(1)[0]
        assert job.fingerprint() == job.fingerprint()
        assert job.fingerprint() != job.with_options(sugaring=False).fingerprint()

    def test_direct_compile(self):
        result = make_jobs(1)[0].compile()
        assert "impl pass_i" in result.ir_text()

    def test_project_name_defaults_to_job_name(self):
        job = make_jobs(1)[0]
        assert job.options.project_name == job.name
        assert job.compile().project.name == job.name

    def test_explicit_options_are_used_as_given(self):
        sources = make_jobs(1)[0].sources
        job = CompileJob("q", sources, CompileOptions(top="pass_i"))
        assert job.options.project_name == CompileOptions().project_name
        assert job.compile().project.name == CompileOptions().project_name
        named = CompileJob("q", sources, CompileOptions(top="pass_i", project_name="q"))
        assert named.compile().project.name == "q"


class TestBatchCompiler:
    """The job engine itself: :func:`run_jobs`."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_all_jobs_compile(self, executor):
        jobs = make_jobs(4)
        outcome = run_jobs(jobs, executor=executor, max_workers=2)
        assert outcome.ok
        assert [entry.name for entry in outcome.results] == [job.name for job in jobs]
        assert len(outcome.result_map()) == 4
        assert outcome.stats()["failed"] == 0

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_failing_design_is_isolated(self, executor):
        jobs = make_jobs(3)
        jobs.insert(1, CompileJob(name="broken", sources=((BAD_SOURCE, "broken.td"),)))
        outcome = run_jobs(jobs, executor=executor, max_workers=2)
        assert not outcome.ok
        assert [entry.ok for entry in outcome.results] == [True, False, True, True]
        failure = outcome.results[1]
        assert failure.error and "MysteryType" in failure.error
        assert failure.error_stage is not None
        assert outcome.stats()["succeeded"] == 3
        with pytest.raises(BatchCompilationError, match="broken"):
            outcome.raise_if_failed()

    def test_parallel_output_identical_to_serial(self):
        jobs = make_jobs(6)
        serial = run_jobs(jobs, executor="serial")
        parallel = run_jobs(jobs, executor="process", max_workers=2)
        assert parallel.executor == "process" and parallel.workers == 2
        for a, b in zip(serial.results, parallel.results):
            assert a.result.ir_text() == b.result.ir_text()

    def test_process_output_identical_to_serial(self):
        jobs = make_jobs(3)
        serial = run_jobs(jobs, executor="serial")
        forked = run_jobs(jobs, executor="process", max_workers=2)
        for a, b in zip(serial.results, forked.results):
            assert a.result.ir_text() == b.result.ir_text()

    def test_duplicate_job_names_rejected(self):
        jobs = make_jobs(2)
        with pytest.raises(ValueError, match="duplicate"):
            run_jobs([jobs[0], jobs[0]])

    def test_unknown_executor_rejected(self):
        for executor in ("carrier-pigeon", "thread"):
            with pytest.raises(ValueError, match="executor"):
                run_jobs(make_jobs(1), executor=executor)

    def test_empty_batch(self):
        outcome = run_jobs([])
        assert outcome.ok and len(outcome) == 0


class TestBatchWithCache:
    def test_second_batch_hits_cache(self):
        cache = StageCache()
        jobs = make_jobs(4)
        cold = run_jobs(jobs, cache=cache, executor="serial")
        assert cache.stats.evaluate_hits == 0
        assert cache.stats.evaluate_misses == 4
        parsed = cache.stats.parse_hits + cache.stats.parse_misses
        warm = run_jobs(jobs, cache=cache, executor="serial")
        # One snapshot hit per job, and no frontend stage ran.
        assert cache.stats.evaluate_hits == 4
        assert cache.stats.evaluate_misses == 4
        assert cache.stats.parse_hits + cache.stats.parse_misses == parsed
        for a, b in zip(cold.results, warm.results):
            assert a.result.ir_text() == b.result.ir_text()

    def test_process_foldback_does_not_rewrite_disk(self, tmp_path, disk_rows):
        """Workers pickle their artefacts to disk; the parent re-serialises
        none of them, and a later batch reads them back from disk."""
        cache = StageCache(cache_dir=tmp_path)
        jobs = make_jobs(3)
        cold = run_jobs(jobs, cache=cache, executor="process", max_workers=2)
        assert cold.ok and cold.executor == "process"
        assert len(disk_rows(tmp_path).keys("eval")) == 3  # written by the workers
        assert cache.stats.disk_stores == 0  # ... not by the parent
        warm = run_jobs(jobs, cache=cache, executor="serial")
        assert cache.stats.evaluate_hits == 3
        assert cache.stats.disk_hits >= 3
        assert cache.stats.disk_stores == 0
        for a, b in zip(cold.results, warm.results):
            assert a.result.ir_text() == b.result.ir_text()

    def test_process_workers_share_disk_cache(self, tmp_path, disk_rows):
        cache = StageCache(cache_dir=tmp_path)
        jobs = make_jobs(3)
        serial = run_jobs(jobs, cache=cache, executor="serial")
        rows = disk_rows(tmp_path)
        written = rows.sql("SELECT ns, key FROM blobs ORDER BY ns, key")
        assert written

        # A fresh batch over the same directory: workers hit the disk tier,
        # so they store nothing new.
        warm_cache = StageCache(cache_dir=tmp_path)
        warm = run_jobs(jobs, cache=warm_cache, executor="process", max_workers=2)
        assert warm.ok and warm.executor == "process"
        assert rows.sql("SELECT ns, key FROM blobs ORDER BY ns, key") == written
        for a, b in zip(serial.results, warm.results):
            assert a.result.ir_text() == b.result.ir_text()

    @pytest.mark.parametrize("with_dir", [False, True], ids=["memory", "disk"])
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_workers_share_the_remote_tier(self, tmp_path, executor, with_dir, disk_rows):
        """Every executor uploads to the remote L2 and reads from it."""
        from repro.queries import ALL_QUERIES
        from repro.server.cachesvc import CacheServerThread

        jobs = [query.compile_job() for query in ALL_QUERIES[:4]]
        with CacheServerThread() as server:
            for run in ("cold", "warm"):
                cache = StageCache(
                    cache_dir=tmp_path / run if with_dir else None, remote=server.endpoint
                )
                try:
                    assert run_jobs(jobs, cache=cache, executor=executor, max_workers=2).ok
                    cache.remote.flush()
                finally:
                    cache.remote.close()
            stats = server.store.stats_snapshot()
        # Cold: two parse ASTs and one snapshot per design; warm: one
        # snapshot hit per design.
        assert stats["puts"] == 12 and stats["hits"] == 4
        if with_dir:
            assert len(disk_rows(tmp_path / "warm").keys("eval")) == 4

    def test_failed_jobs_are_not_cached(self):
        cache = StageCache()
        jobs = [CompileJob(name="broken", sources=((BAD_SOURCE, "broken.td"),))]
        run_jobs(jobs, cache=cache, executor="serial")
        again = run_jobs(jobs, cache=cache, executor="serial")
        assert not again.results[0].ok
        assert cache.stats.evaluate_hits == 0
        assert cache.stats.evaluate_misses == 0


class TestTpchSuiteBatch:
    def test_force_bypasses_cache(self):
        """TpchQuery.compile(force=True) really recompiles, cache or not."""
        from repro.queries import QUERIES

        query = QUERIES["q6"]
        cache = StageCache()
        warm = query.compile_job().compile(cache=cache)
        forced = query.compile(force=True, cache=cache)
        assert forced.project is not warm.project  # a fresh compile
        assert cache.stats.evaluate_hits == 0

    def test_compile_all_through_batch_driver(self):
        from repro.queries import ALL_QUERIES, compile_all

        fresh = [q for q in ALL_QUERIES]
        for query in fresh:
            query._compiled = None  # force a real batch compile
        results = compile_all(executor="process", max_workers=2)
        assert set(results) == {q.name for q in ALL_QUERIES}
        # The batch results are memoised onto the query objects.
        for query in ALL_QUERIES:
            assert query._compiled is results[query.name]
            assert f"impl {query.top}" in results[query.name].ir_text()


class TestBackendTargets:
    def test_job_targets_produce_outputs(self):
        job_with_targets = make_jobs(1)[0].with_options(targets=("vhdl", "dot"))
        result = job_with_targets.compile()
        assert set(result.outputs) == {"vhdl", "dot"}
        assert any(name.endswith(".vhd") for name in result.outputs["vhdl"])

    def test_targets_participate_in_fingerprint(self):
        base = make_jobs(1)[0]
        assert base.fingerprint() != base.with_options(targets=("vhdl",)).fingerprint()
        # Duplicates are normalised away, so they do not split the cache.
        assert (
            base.with_options(targets=("vhdl", "vhdl")).fingerprint()
            == base.with_options(targets=("vhdl",)).fingerprint()
        )

    def test_batch_carries_backend_outputs_and_caches_them(self):
        cache = StageCache()
        jobs = [job.with_options(targets=("vhdl", "ir")) for job in make_jobs(3)]
        cold = run_jobs(jobs, cache=cache, executor="serial")
        assert cold.ok
        for entry in cold.results:
            assert set(entry.result.outputs) == {"vhdl", "ir"}
            assert entry.as_dict()["outputs"] == {
                "vhdl": len(entry.result.outputs["vhdl"]),
                "ir": len(entry.result.outputs["ir"]),
            }
        misses = cache.stats.backend_misses
        warm = run_jobs(jobs, cache=cache, executor="serial")
        assert cache.stats.evaluate_hits == 3
        assert cache.stats.backend_misses == misses
        for cold_entry, warm_entry in zip(cold.results, warm.results):
            assert warm_entry.result.outputs == cold_entry.result.outputs

    def test_unknown_target_is_isolated_error(self):
        jobs = [make_jobs(1)[0].with_options(targets=("systemc",))]
        outcome = run_jobs(jobs, executor="serial")
        assert not outcome.ok
        entry = outcome.results[0]
        assert entry.error_stage == "backend"
        assert "unknown backend" in entry.error


class TestWorkerCount:
    def test_explicit_workers_always_respected(self):
        from repro.pipeline.batch import _worker_count

        assert _worker_count("process", 32, 64) == 32
        assert _worker_count("process", 32, 4) == 4  # clamped to job count

    def test_defaults_are_executor_aware(self):
        import os

        from repro.pipeline.batch import _worker_count

        cpus = os.cpu_count() or 2
        assert _worker_count("serial", None, 1000) == 1
        assert _worker_count("process", None, 1000) == cpus

    def test_serial_and_tiny_batches(self):
        from repro.pipeline.batch import _worker_count

        assert _worker_count("serial", 16, 100) == 1
        assert _worker_count("process", 16, 1) == 1
