"""Benchmark: the workspace edit loop (warm ``update_file`` + re-query).

Not a paper artefact but the acceptance benchmark of the session API
(:mod:`repro.workspace`): it models the editor/service loop the workspace
exists for -- hold one design open, edit one file, re-ask for the IR --
and asserts the property the session promises:

* **warm >= 3x cold** -- an ``update_file`` of one file followed by a
  ``result`` re-query is at least three times faster than a fresh one-shot
  ``compile_sources`` of the same design, because the session's stage cache
  re-parses only the edited file, and
* **warm == cold** -- the re-queried artefacts are byte-identical to the
  fresh compile (spot-checked here; the full property lives in
  ``tests/test_workspace_properties.py``).

The run also writes ``benchmark-artifacts/workspace-editloop.json`` (cold /
warm timings, speedup, stage-cache counters) which CI uploads as a build
artifact, so the edit-loop latency is tracked per commit.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from conftest import run_once

from repro.lang.compile import compile_sources
from repro.testing import build_chain_design
from repro.workspace import Workspace

#: Where the JSON artifact lands (CI uploads this directory).
ARTIFACT_DIR = pathlib.Path(os.environ.get("TYDI_BENCH_ARTIFACTS", "benchmark-artifacts"))


def _edit_workload(num_files: int = 16, decls_per_file: int = 100):
    """An N-file design heavy enough that parsing dominates the frontend
    (same shape as the stage-cache benchmark: constant-library padding)."""
    sources = build_chain_design(num_files - 1)
    padded = []
    for file_index, (text, name) in enumerate(sources):
        pad = "\n".join(
            f"const pad_{file_index}_{i} = {i} * 3 + 1;" for i in range(decls_per_file)
        )
        padded.append((text + pad + "\n", name))
    return padded


def test_workspace_edit_loop_speedup(benchmark):
    sources = _edit_workload()
    options = {"include_stdlib": False}

    # Cold reference: a fresh one-shot compile of the same design, no cache
    # of any kind (best of 3, timing noise guard).
    def cold_compile():
        return compile_sources(sources, cache=None, **options)

    cold_result = run_once(benchmark, cold_compile)
    cold_times = []
    for _ in range(3):
        start = time.perf_counter()
        compile_sources(sources, cache=None, **options)
        cold_times.append(time.perf_counter() - start)
    cold_time = min(cold_times)

    # The session under test: one workspace holding the design, queried
    # once to warm the memo and the stage cache.
    workspace = Workspace(options=options)
    workspace.add_design("chain", sources)
    workspace.result("chain")
    stage_stats = workspace.cache.stats
    stage_stats.reset()

    # The edit loop: distinct one-file edits (accumulating in the session,
    # as a real editing history does), each followed by a re-query.
    warm_times = []
    final_sources = list(sources)
    for round_index in range(3):
        text, filename = sources[round_index]
        edited_text = text + f"const edit_{round_index} = {round_index};\n"
        final_sources[round_index] = (edited_text, filename)
        start = time.perf_counter()
        workspace.update_file("chain", filename, edited_text)
        warm_result = workspace.result("chain")
        warm_times.append(time.perf_counter() - start)
    warm_time = min(warm_times)

    # The session's answer is still byte-identical to a fresh compile of
    # the fully-edited state.
    reference = compile_sources(final_sources, cache=None, **options)
    assert warm_result.ir_text() == reference.ir_text()
    assert [str(s) for s in warm_result.stages] == [str(s) for s in reference.stages]
    # Each round re-parsed exactly the edited file.
    assert stage_stats.parse_misses == 3
    assert stage_stats.parse_hits == 3 * (len(sources) - 1)

    speedup = cold_time / warm_time if warm_time > 0 else float("inf")
    payload = {
        "design_files": len(sources),
        "cold_oneshot_ms": round(cold_time * 1000, 3),
        "warm_editloop_ms": round(warm_time * 1000, 3),
        "speedup": round(speedup, 2),
        "stage_cache": stage_stats.as_dict(),
    }
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    (ARTIFACT_DIR / "workspace-editloop.json").write_text(json.dumps(payload, indent=2))

    print("\nWorkspace edit loop (update_file + re-query) vs fresh compile")
    print(f"  design:            {len(sources)} files")
    print(f"  cold one-shot:     {cold_time * 1000:8.1f} ms")
    print(f"  warm edit+query:   {warm_time * 1000:8.1f} ms")
    print(f"  speedup:           {speedup:8.1f}x")
    print(f"  stage cache:       {stage_stats.as_dict()}")
    assert cold_result.project is not None

    # Acceptance criterion: warm update_file + re-query >= 3x faster than a
    # cold one-shot compile of the same design.
    assert speedup >= 3.0, f"edit loop only {speedup:.1f}x faster than one-shot"
