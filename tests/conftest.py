"""Shared fixtures and builders.

Fixtures: synthetic TPC-H data and cached compiled query designs.

Builders: the randomized multi-file design generators backing the
staged-vs-monolithic differential harness
(``tests/test_stage_differential.py``).  The implementations live in
:mod:`repro.testing` (the benchmark suite needs the same notion of "an
N-file design with a one-file edit" and has its own conftest namespace);
they are re-exported here so harness code can treat them as test-suite
builders.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.arrow.tpch import generate_tpch_data
from repro.testing import (  # noqa: F401 - shared differential-harness builders
    build_chain_design,
    build_random_design,
    mutate_design,
)


#: ``--hypothesis-profile=soak``: the served read memo's state machine
#: (``tests/test_server_memo.py``) with many more examples and steps.
#: Tier-1 runs keep hypothesis's default profile.
settings.register_profile(
    "soak",
    max_examples=150,
    stateful_step_count=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the pinned expectations under tests/golden/ from the "
        "current outputs instead of comparing against them",
    )


@pytest.fixture(scope="session")
def update_golden(request):
    """Whether this run regenerates the golden files (``--update-golden``)."""
    return bool(request.config.getoption("--update-golden"))


@pytest.fixture(scope="session")
def tpch_tables():
    """A small, seeded TPC-H dataset shared by the integration tests."""
    return generate_tpch_data(200, seed=7)


@pytest.fixture(scope="session")
def tpch_tables_medium():
    """A larger dataset for the selective multi-table queries (Q3/Q5/Q19)."""
    return generate_tpch_data(1200, seed=11)


@pytest.fixture(scope="session")
def compiled_queries():
    """Compile every TPC-H design once per test session."""
    from repro.queries import ALL_QUERIES

    return {query.name: query.compile() for query in ALL_QUERIES}
