"""Benchmark: a cold worker with a warm remote cache vs a fully cold worker.

The acceptance benchmark of the remote L2 tier (:mod:`repro.pipeline.
remote` / :mod:`repro.server.cachesvc`): it models the fleet scenario the
tier exists for -- a fresh worker (empty memory, empty local disk) joining
a fleet whose shared cache server is already warm -- and asserts the
property the tier promises:

* **warm-remote >= 3x fully-cold** -- compiling a design whose artefacts
  are all present on the remote is at least three times faster than
  compiling it with no cache at all, because the frontend snapshot and
  the backend units are served over the wire instead of recomputed, and
* **identical artefacts** -- the remote-served result is byte-identical
  to the cold compile (the same promotion/corruption discipline the unit
  tests pin down).

The cold reference deliberately runs with *no* cache stack at all: wiring
a remote into the cold run would warm the server through write-behind and
turn the comparison into a self-fulfilling one.

The run also writes ``benchmark-artifacts/remote-cache.json`` (cold / warm
timings, speedup, client counters, server store stats) which CI uploads
and gates against the committed baseline via ``compare_artifacts.py``.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from conftest import run_once

from repro.lang.compile import compile_sources
from repro.pipeline import RemoteCacheClient, StageCache
from repro.server.cachesvc import CacheServerThread

#: Where the JSON artifact lands (CI uploads this directory).
ARTIFACT_DIR = pathlib.Path(os.environ.get("TYDI_BENCH_ARTIFACTS", "benchmark-artifacts"))


# The workload moved to the shared corpus module (the cold-compile benchmark
# gates the same design); the loop-expanded body is what makes it right for a
# *remote* cache benchmark too -- recomputing an artefact costs far more than
# deserialising it, the regime a shared cache server exists for.
from corpus import fleet_workload as _fleet_workload  # noqa: E402,F401
from corpus import wide_file as _wide_file  # noqa: E402,F401


def test_cold_worker_with_warm_remote_speedup(benchmark, tmp_path):
    sources = _fleet_workload()
    options = {"include_stdlib": False}

    # Fully cold reference: no cache stack at all (best of 3).
    def cold_compile():
        return compile_sources(sources, cache=None, **options)

    cold_result = run_once(benchmark, cold_compile)
    cold_times = []
    for _ in range(3):
        start = time.perf_counter()
        compile_sources(sources, cache=None, **options)
        cold_times.append(time.perf_counter() - start)
    cold_time = min(cold_times)

    with CacheServerThread() as svc:
        # Warm the fleet store through one worker's write-behind uploads.
        with RemoteCacheClient.from_url(svc.endpoint) as warmer:
            warm_cache = StageCache(cache_dir=tmp_path / "seed", remote=warmer)
            compile_sources(sources, cache=warm_cache, **options)
            assert warmer.flush(), "write-behind queue failed to drain"
        server_stats = svc.store.stats_snapshot()
        assert server_stats["entries"] > 0

        # The worker under test: fresh process state -- empty memory tiers,
        # empty local disk, its own connection -- only the remote is warm.
        # Best of 3, each round through a brand-new cache stack.
        warm_times = []
        client_stats = None
        for round_index in range(3):
            with RemoteCacheClient.from_url(svc.endpoint) as client:
                cold_worker = StageCache(
                    cache_dir=tmp_path / f"worker{round_index}", remote=client
                )
                start = time.perf_counter()
                warm_result = compile_sources(sources, cache=cold_worker, **options)
                warm_times.append(time.perf_counter() - start)
                client_stats = client.stats_snapshot()
        warm_time = min(warm_times)

        assert warm_result.ir_text() == cold_result.ir_text()
        assert client_stats["hits"] >= 1
        assert client_stats["corrupt"] == 0

    speedup = cold_time / warm_time if warm_time > 0 else float("inf")
    payload = {
        "design_files": len(sources),
        "cold_oneshot_ms": round(cold_time * 1000, 3),
        "warm_remote_ms": round(warm_time * 1000, 3),
        "speedup": round(speedup, 2),
        "remote_client": client_stats,
        "server_store": server_stats,
    }
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    (ARTIFACT_DIR / "remote-cache.json").write_text(json.dumps(payload, indent=2))

    print("\nCold worker with warm remote cache vs fully cold compile")
    print(f"  design:            {len(sources)} files")
    print(f"  fully cold:        {cold_time * 1000:8.1f} ms")
    print(f"  warm remote:       {warm_time * 1000:8.1f} ms")
    print(f"  speedup:           {speedup:8.1f}x")
    print(f"  client counters:   {client_stats}")

    # Acceptance criterion: a cold worker riding a warm remote beats a
    # fully cold worker by a wide margin.
    assert speedup >= 3.0, f"warm remote only {speedup:.1f}x faster than cold"
