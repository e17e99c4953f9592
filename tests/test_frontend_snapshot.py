"""Oracle: the shared post-DRC snapshot is read-only for every consumer.

The stage cache serves one frontend snapshot (project, diagnostics and
reports) to every compile of an unchanged design without copying it, so
nothing downstream may mutate it.  For the six Table-IV designs this pins
the served project's pickle bytes before and after every consumer the
toolchain runs over a compiled project: all five backends (through the
per-implementation unit cache), the Tydi-IR interchange emitter and a
full simulation run with every analysis (what ``Workspace.simulate``
runs).  The same oracle covers each design re-opened from its ``tydi-ir``
emission, whose snapshot the ingest frontend builds.
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


def check_consumers(query, tables, cache, compile_design) -> None:
    """Run every consumer over the project ``compile_design(options)``
    serves through ``cache`` and require its pickle bytes unchanged."""
    options = query.compile_job().options
    served = compile_design(options).project
    before = pickle.dumps(served)

    # A warm compile for every backend serves the same project object.
    backends = tuple(available_backends())
    assert len(backends) == 5
    result = compile_design(options.replace(targets=backends))
    assert result.project is served
    assert set(result.outputs) == set(backends)
    emit_document(served)
    behaviors = reader_behaviors(query.schemas, query.dataset_builder(tables))
    report = run_simulation(served, query.default_plan(), behaviors=behaviors)
    assert report.events_processed > 0

    assert pickle.dumps(served) == before
    assert cache.stats.evaluate_hits == 1


@pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda query: query.name)
def test_consumers_leave_the_served_project_unchanged(query, tables):
    cache = StageCache()
    sources = query.sources()
    check_consumers(query, tables, cache, lambda options: cache.compile(sources, options))


@pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda query: query.name)
def test_consumers_leave_the_served_ingested_project_unchanged(query, tables):
    emission = query.compile_job().with_options(targets=("tydi-ir",)).compile()
    (document,) = emission.outputs["tydi-ir"].values()
    cache = StageCache()
    check_consumers(
        query, tables, cache, lambda options: cache.compile_ir(document, options)
    )
