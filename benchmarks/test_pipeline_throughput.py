"""Benchmark: batch-pipeline throughput over the TPC-H compile suite.

Not a paper artefact but an infrastructure benchmark: it drives the
stage cache and the batch driver (:mod:`repro.pipeline`) over the full
TPC-H query set (every design of Table IV plus a no-DRC variant of each,
12 compile jobs in total) and asserts the two properties the pipeline
promises:

* **warm >= 5x cold** -- recompiling the suite against a warm cache (one
  frontend-snapshot hit per job) is at least five times faster than the
  cold batch, and
* **parallel == serial** -- the process-pool batch output is
  byte-identical (textual Tydi-IR) to the serial reference.
"""

import time
from dataclasses import replace

from conftest import run_once

from repro.lang.compile import compile_sources
from repro.pipeline import StageCache, run_jobs
from repro.queries import ALL_QUERIES
from repro.testing import build_chain_design


def suite_jobs():
    """12+ compile jobs: every Table-IV design plus a no-DRC variant."""
    jobs = [query.compile_job() for query in ALL_QUERIES]
    jobs += [
        replace(job, name=f"{job.name}__nodrc").with_options(run_drc=False, strict_drc=False)
        for job in jobs
    ]
    return jobs


def test_pipeline_throughput_cold_vs_warm(benchmark):
    jobs = suite_jobs()
    assert len(jobs) >= 10
    cache = StageCache()

    def batch():
        return run_jobs(jobs, cache=cache, executor="serial")

    def cold_batch():
        cache.clear()
        cache.stats.reset()
        return batch()

    cold = run_once(benchmark, cold_batch)
    assert cold.ok, [f.error for f in cold.failures]
    assert cache.stats.evaluate_hits == 0
    assert cache.stats.evaluate_misses == len(jobs)

    parsed = cache.stats.parse_hits + cache.stats.parse_misses
    warm_start = time.perf_counter()
    warm = batch()
    warm_time = time.perf_counter() - warm_start
    assert warm.ok
    # Every job is one snapshot hit that runs no frontend stage.
    assert cache.stats.evaluate_hits == len(jobs)
    assert cache.stats.evaluate_misses == len(jobs)
    assert cache.stats.parse_hits + cache.stats.parse_misses == parsed

    speedup = cold.wall_time / warm_time if warm_time > 0 else float("inf")
    print("\nBatch compile throughput over the TPC-H suite")
    print(f"  jobs:            {len(jobs)} (executor={cold.executor}, workers={cold.workers})")
    print(f"  cold batch:      {cold.wall_time * 1000:8.1f} ms  ({len(jobs) / cold.wall_time:7.1f} designs/s)")
    print(f"  warm batch:      {warm_time * 1000:8.1f} ms  ({len(jobs) / warm_time:7.1f} designs/s)")
    print(f"  warm speedup:    {speedup:8.1f}x")
    print(f"  stage cache:     {cache.stats.as_dict()}")

    # Acceptance criterion: warm-cache recompilation is >= 5x faster.
    assert speedup >= 5.0, f"warm cache only {speedup:.1f}x faster than cold"

    # Warm results carry the very artefacts the cold batch stored.
    cold_ir = {entry.name: entry.result.ir_text() for entry in cold.results}
    for entry in warm.results:
        assert entry.result.ir_text() == cold_ir[entry.name]


def _edit_workload(num_files: int = 16, decls_per_file: int = 100):
    """An N-file design heavy enough that parsing dominates the frontend.

    Each chain file is padded with constant declarations (cheap to evaluate,
    expensive to lex/parse) -- the realistic shape of a large design where
    most files hold type/constant libraries that rarely change.
    """
    sources = build_chain_design(num_files - 1)
    padded = []
    for file_index, (text, name) in enumerate(sources):
        pad = "\n".join(
            f"const pad_{file_index}_{i} = {i} * 3 + 1;" for i in range(decls_per_file)
        )
        padded.append((text + pad + "\n", name))
    return padded


def test_stage_cache_one_file_edit_speedup(benchmark):
    """Acceptance criterion: warm stage cache makes a one-file-edit recompile
    of an N-file design >= 3x faster than a cold monolithic compile."""
    sources = _edit_workload()
    assert len(sources) == 16

    # Cold monolithic reference: the full parse -> evaluate -> sugar -> DRC
    # pipeline with no cache at all (best of 3, timing noise guard).
    def cold_monolithic():
        return compile_sources(sources, include_stdlib=False)

    cold_result = run_once(benchmark, cold_monolithic)
    cold_times = []
    for _ in range(3):
        start = time.perf_counter()
        compile_sources(sources, include_stdlib=False)
        cold_times.append(time.perf_counter() - start)
    cold_time = min(cold_times)

    # Warm the stage cache, then measure recompiles after distinct one-file
    # edits: each re-parses exactly one file and re-runs evaluate onward.
    stage_cache = StageCache()
    options = {"include_stdlib": False}
    stage_cache.compile(sources, options)
    warm_times = []
    edited = sources
    for round_index in range(3):
        edited = list(sources)
        text, name = edited[round_index]
        edited[round_index] = (text + f"const edit_{round_index} = {round_index};\n", name)
        start = time.perf_counter()
        staged = stage_cache.compile(edited, options)
        warm_times.append(time.perf_counter() - start)
    warm_time = min(warm_times)

    # The staged recompile is still byte-identical to a cold monolithic run.
    reference = compile_sources(edited, include_stdlib=False)
    assert staged.ir_text() == reference.ir_text()
    assert [str(s) for s in staged.stages] == [str(s) for s in reference.stages]
    # Exactly one file re-parsed per edit round.
    assert stage_cache.stats.parse_misses == len(sources) + 3
    assert stage_cache.stats.parse_hits == 3 * (len(sources) - 1)

    speedup = cold_time / warm_time if warm_time > 0 else float("inf")
    print("\nOne-file-edit recompile with a warm stage cache (16-file design)")
    print(f"  cold monolithic: {cold_time * 1000:8.1f} ms")
    print(f"  staged (1 edit): {warm_time * 1000:8.1f} ms")
    print(f"  speedup:         {speedup:8.1f}x")
    print(f"  stage cache:     {stage_cache.stats.as_dict()}")
    assert cold_result.project is not None

    # Acceptance criterion: >= 3x faster than the cold monolithic compile.
    assert speedup >= 3.0, f"stage cache only {speedup:.1f}x faster than cold monolithic"


def test_pipeline_parallel_matches_serial(benchmark):
    jobs = suite_jobs()

    def parallel_batch():
        return run_jobs(jobs, executor="process", max_workers=2)

    parallel = run_once(benchmark, parallel_batch)
    assert parallel.ok

    serial_start = time.perf_counter()
    serial = run_jobs(jobs, executor="serial")
    serial_time = time.perf_counter() - serial_start
    assert serial.ok

    print("\nSerial vs parallel batch compilation")
    print(f"  serial:   {serial_time * 1000:8.1f} ms")
    print(f"  parallel: {parallel.wall_time * 1000:8.1f} ms  (workers={parallel.workers})")

    # Acceptance criterion: parallel output is byte-identical to serial.
    for a, b in zip(serial.results, parallel.results):
        assert a.name == b.name
        assert a.result.ir_text() == b.result.ir_text()
