"""The gated sim-service benchmark: warm repeat simulation via the ``sim:`` tier.

The acceptance criterion for the simulation subsystem: a repeat
simulation of an unchanged design must be served from the ``sim:``
StageCache tier at least :data:`TARGET_SPEEDUP` x faster than computing
it cold.  Both sessions pre-compile the design first (``Workspace.result``)
so the measurement isolates the simulation query itself -- the cold
session pays the event-driven engine plus both analyses over a
:data:`STREAM_LENGTH`-packet stimuli stream, the warm sessions are fresh
``Workspace`` instances over the same cache directory whose only option
is the disk tier.  The resulting ``speedup`` metric is gated by
``compare_artifacts.py`` against ``benchmarks/baselines/sim-service.json``.

Measured on a 2-vCPU box, 16 runs alternating with the previous engine:
10.1-13.3x, median 12.1x (cold ~15-32 ms, warm ~1.3-3.2 ms), against
8.3-20.3x, median 12.7x, with the previous engine (cold ~17-33 ms).  An
earlier measurement of the previous engine read 9.5-17.6x over 17 runs;
the ratio was 14-25x with the primitive behaviours before it (cold
~70-83 ms) and 16-26x before those (cold ~103-114 ms): a faster cold run
shrinks it.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from conftest import run_once

from repro.sim import SimulationPlan
from repro.workspace import Workspace

ARTIFACT_DIR = pathlib.Path(os.environ.get("TYDI_BENCH_ARTIFACTS", "benchmark-artifacts"))

#: Packets pushed through the pipeline; long enough that the engine run
#: dwarfs the constant costs on any plausible machine.
STREAM_LENGTH = 1500

#: The acceptance floor: a warm repeat must beat the cold run by this much.
TARGET_SPEEDUP = 3.0

WARM_ROUNDS = 5

PIPELINE = (
    "type num = Stream(Bit(32), d=1);\n"
    "streamlet top_s { values: num in, total: num out, }\n"
    "impl top_i of top_s {\n"
    "    instance k(const_int_generator_i<type num, 10>),\n"
    "    instance add(adder_i<type num, type num>),\n"
    "    instance acc(sum_i<type num, type num>),\n"
    "    values => add.lhs,\n"
    "    k.output => add.rhs,\n"
    "    add.output => acc.input,\n"
    "    acc.output => total,\n"
    "}\n"
    "top top_i;\n"
)


def _session(cache_dir, plan):
    """A fresh Workspace over ``cache_dir`` with the design compiled, and the
    wall time of its first ``simulate`` call in milliseconds."""
    workspace = Workspace(cache_dir=cache_dir)
    workspace.add_design("pipe", {"pipe.td": PIPELINE})
    workspace.result("pipe")  # compile outside the timed window
    start = time.perf_counter()
    report = workspace.simulate("pipe", plan)
    elapsed_ms = (time.perf_counter() - start) * 1000
    return workspace, report, elapsed_ms


def _measure(cache_dir, plan):
    cold_ws, cold_report, cold_ms = _session(cache_dir, plan)
    assert cold_ws.cache.stats.sim_misses == 1

    warm_runs = []
    warm_report = None
    for _ in range(WARM_ROUNDS):
        warm_ws, warm_report, warm_ms = _session(cache_dir, plan)
        assert warm_ws.cache.stats.sim_hits == 1
        assert warm_ws.cache.stats.sim_misses == 0
        warm_runs.append(warm_ms)
    return cold_report, warm_report, cold_ms, warm_runs


def test_warm_simulation_speedup(benchmark, tmp_path):
    plan = SimulationPlan(
        stimuli={"values": list(range(STREAM_LENGTH))}, channel_capacity=4
    )
    cold_report, warm_report, cold_ms, warm_runs = run_once(
        benchmark, lambda: _measure(tmp_path, plan)
    )

    # The warm report must be the cold one, byte for byte, not merely fast.
    assert cold_report.verdict == "ok"
    assert len(cold_report.outputs["total"]) == 1
    assert json.dumps(warm_report.as_dict(), sort_keys=True) == json.dumps(
        cold_report.as_dict(), sort_keys=True
    )

    warm_ms = min(warm_runs)
    speedup = cold_ms / warm_ms

    payload = {
        "benchmark": "sim-service",
        "stream_length": STREAM_LENGTH,
        "warm_rounds": WARM_ROUNDS,
        "cold_ms": round(cold_ms, 3),
        "warm_ms": round(warm_ms, 3),
        "warm_runs_ms": [round(value, 3) for value in warm_runs],
        "speedup": round(speedup, 3),
        "target_speedup": TARGET_SPEEDUP,
    }
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    (ARTIFACT_DIR / "sim-service.json").write_text(json.dumps(payload, indent=2))

    print(f"\nrepeat simulation of a {STREAM_LENGTH}-packet stream (sim: disk tier):")
    print(f"  cold (engine + analyses): {cold_ms:.1f} ms")
    print(f"  warm (best of {WARM_ROUNDS}): {warm_ms:.2f} ms")
    print(f"  speedup: {speedup:.1f}x (floor: {TARGET_SPEEDUP}x)")

    assert speedup >= TARGET_SPEEDUP, (
        f"warm simulation is only {speedup:.2f}x the cold run "
        f"({warm_ms:.2f} ms vs {cold_ms:.1f} ms; floor: {TARGET_SPEEDUP}x)"
    )
