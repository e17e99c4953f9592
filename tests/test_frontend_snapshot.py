"""Oracle: the shared post-DRC snapshot is read-only for every consumer.

The stage cache serves one frontend snapshot (project, diagnostics and
reports) to every compile of an unchanged design without copying it, so
nothing downstream may mutate it.  For the six Table-IV designs this pins
the served project's pickle bytes before and after every consumer the
toolchain runs over a compiled project: all five backends (through the
per-implementation unit cache), the Tydi-IR interchange emitter and a
full simulation run with every analysis (what ``Workspace.simulate``
runs).
"""

from __future__ import annotations

import pickle

import pytest

from repro.arrow.fletcher import reader_behaviors
from repro.arrow.tpch import generate_tpch_data
from repro.backends import available_backends
from repro.interchange import emit_document
from repro.pipeline import StageCache
from repro.queries import ALL_QUERIES
from repro.sim import run_simulation


@pytest.fixture(scope="module")
def tables():
    return generate_tpch_data(60, seed=3)


@pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda query: query.name)
def test_consumers_leave_the_served_project_unchanged(query, tables):
    cache = StageCache()
    options = query.compile_job().compile_options()
    served = cache.compile(query.sources(), options).project
    before = pickle.dumps(served)

    # A warm compile for every backend serves the same project object.
    backends = tuple(available_backends())
    assert len(backends) == 5
    result = cache.compile(query.sources(), options.replace(targets=backends))
    assert result.project is served
    assert set(result.outputs) == set(backends)
    emit_document(served)
    behaviors = reader_behaviors(query.schemas, query.dataset_builder(tables))
    report = run_simulation(served, query.default_plan(), behaviors=behaviors)
    assert report.events_processed > 0

    assert pickle.dumps(served) == before
    assert cache.stats.evaluate_hits == 1
