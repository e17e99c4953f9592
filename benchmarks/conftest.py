"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and prints it,
so running ``pytest benchmarks/ --benchmark-only -s`` reproduces the paper's
evaluation artefacts in one go.  Heavyweight artefacts (the compiled TPC-H
designs and the synthetic dataset) are built once per session.
"""

from __future__ import annotations

import pytest

from repro.arrow.tpch import generate_tpch_data


@pytest.fixture(scope="session")
def tpch_tables():
    """The dataset used by the simulation-backed benchmarks."""
    return generate_tpch_data(800, seed=5)


@pytest.fixture(scope="session")
def compiled_queries():
    """Compile the whole suite once, through the batch driver."""
    from repro.pipeline import StageCache
    from repro.queries import compile_all

    return compile_all(cache=StageCache(), executor="serial")


def run_once(benchmark, func):
    """Run a benchmark exactly once (the artefacts are deterministic and the
    heavier ones compile six full designs; statistical repetition adds nothing)."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)
