"""The gated cold-compile benchmark: frontend end-to-end, everything cold.

This is the regression floor under the profile-driven frontend
optimisations (dispatch-table lexer, slotted AST, interned logical types,
IR name indexes, stdlib AST snapshot): a cold compile of the canonical
16-file fleet design must stay >= :data:`TARGET_SPEEDUP` x faster than the
committed *pre-optimisation* wall time, and the resulting ``speedup``
metric is gated by ``compare_artifacts.py`` against
``benchmarks/baselines/cold-compile.json``.

Machine robustness: the pre-optimisation time was measured on one concrete
machine, so asserting against it raw would flake on slower hardware.  A
tiny pure-Python calibration loop is timed alongside
(:func:`_calibrate`), and the expected pre-optimisation time is scaled by
``calibration_now / REFERENCE_CALIBRATION_S`` -- a machine 2x slower at
the calibration loop is allowed 2x the wall time.  Both reference numbers
were measured in the same session on the same machine, immediately before
the optimisations landed.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from conftest import run_once
from corpus import fleet_workload

from repro.lang import compile as compile_mod
from repro.lang.compile import CompileOptions, run_pipeline
from repro.spec.logical_types import clear_intern_table
from repro.tracing import STAGES

ARTIFACT_DIR = pathlib.Path(os.environ.get("TYDI_BENCH_ARTIFACTS", "benchmark-artifacts"))

#: Cold 16-file compile (stdlib included), best of 5, measured immediately
#: before the frontend optimisations on the reference machine.
PRE_OPT_COLD_MS = 168.8

#: What the same machine scored on :func:`_calibrate` in the same session.
REFERENCE_CALIBRATION_S = 0.0197

#: The acceptance floor: cold compile must be at least this much faster
#: than the (machine-scaled) pre-optimisation time.
TARGET_SPEEDUP = 1.5

ROUNDS = 5


def _calibrate() -> float:
    """Best-of-3 wall time of a fixed pure-Python loop (machine speed proxy)."""
    best = None
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(500_000):
            total += i % 7
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    assert total > 0
    return best


def _cold_runs(sources, options) -> tuple[list[float], object]:
    """Wall-clock one fully cold ``run_pipeline`` per round, in milliseconds.

    "Cold" means no caches anywhere: ``run_pipeline`` itself never touches
    the pipeline caches, and the two process-level warm spots -- the
    memoised stdlib AST and the logical-type intern table -- are dropped
    before every round.  (The stdlib *snapshot* stays: deserialising it is
    the shipped cold path.)
    """
    runs: list[float] = []
    result = None
    for _ in range(ROUNDS):
        compile_mod._parsed_stdlib.cache_clear()
        clear_intern_table()
        start = time.perf_counter()
        result = run_pipeline(sources, options)
        runs.append((time.perf_counter() - start) * 1000)
    return runs, result


def test_cold_compile_speedup(benchmark):
    sources = fleet_workload()
    options = CompileOptions()

    was_enabled = STAGES.enabled
    STAGES.enable()
    STAGES.reset()
    try:
        runs, result = run_once(benchmark, lambda: _cold_runs(sources, options))
        profile = STAGES.stage_view()["stages"]
    finally:
        if not was_enabled:
            STAGES.disable()

    # The workload must actually compile (and compile *the* fleet design).
    assert not result.diagnostics.has_errors()
    stats = result.project.statistics()
    assert stats["instances"] > 2000, "fleet workload shrank; benchmark is meaningless"

    calibration = _calibrate()
    cold_ms = min(runs)
    scaled_pre_opt_ms = PRE_OPT_COLD_MS * (calibration / REFERENCE_CALIBRATION_S)
    speedup = scaled_pre_opt_ms / cold_ms
    files_per_second = len(sources) / (cold_ms / 1000)

    payload = {
        "benchmark": "cold-compile",
        "files": len(sources),
        "rounds": ROUNDS,
        "cold_ms": round(cold_ms, 3),
        "runs_ms": [round(value, 3) for value in runs],
        "calibration_s": round(calibration, 6),
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
        "pre_opt_cold_ms": PRE_OPT_COLD_MS,
        "scaled_pre_opt_ms": round(scaled_pre_opt_ms, 3),
        "speedup": round(speedup, 3),
        "files_per_second": round(files_per_second, 1),
        "target_speedup": TARGET_SPEEDUP,
        "profile": profile,
    }
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    (ARTIFACT_DIR / "cold-compile.json").write_text(json.dumps(payload, indent=2))

    print("\ncold compile of the 16-file fleet design (all caches cold):")
    print(f"  best of {ROUNDS}: {cold_ms:.1f} ms ({files_per_second:.0f} files/s)")
    print(
        f"  pre-optimisation reference: {PRE_OPT_COLD_MS:.1f} ms "
        f"(scaled to this machine: {scaled_pre_opt_ms:.1f} ms)"
    )
    print(f"  speedup: {speedup:.2f}x (floor: {TARGET_SPEEDUP}x)")

    assert speedup >= TARGET_SPEEDUP, (
        f"cold compile regressed: {cold_ms:.1f} ms is only "
        f"{speedup:.2f}x the scaled pre-optimisation time "
        f"{scaled_pre_opt_ms:.1f} ms (floor: {TARGET_SPEEDUP}x)"
    )
