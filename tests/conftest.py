"""Shared fixtures and builders.

Fixtures: synthetic TPC-H data, cached compiled query designs, and
``disk_rows`` (a cache dir's disk tier read with the test's own SQL).

Builders: the randomized multi-file design generators backing the
staged-vs-monolithic differential harness
(``tests/test_stage_differential.py``).  The implementations live in
:mod:`repro.testing` (the benchmark suite needs the same notion of "an
N-file design with a one-file edit" and has its own conftest namespace);
they are re-exported here so harness code can treat them as test-suite
builders.
"""

from __future__ import annotations

import os
import sqlite3
from pathlib import Path
from typing import Iterable, Optional

import pytest
from hypothesis import HealthCheck, settings

from repro.arrow.tpch import generate_tpch_data
from repro.pipeline.store import DB_NAME
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


class DiskRows:
    """One cache dir's disk-tier database, read and written with its own SQL.

    Tests observe the disk tier through this, never through
    :class:`~repro.pipeline.store.TieredStore`, so the code under test
    cannot vouch for itself.  Reads never create the file.
    """

    def __init__(self, cache_dir) -> None:
        self.path = Path(cache_dir) / DB_NAME

    def sql(self, statement: str, params=()) -> list:
        connection = sqlite3.connect(f"file:{self.path}?mode=rw", uri=True, isolation_level=None)
        try:
            return connection.execute(statement, params).fetchall()
        finally:
            connection.close()

    def keys(self, namespace: str) -> list[str]:
        return [key for (key,) in self.sql("SELECT key FROM blobs WHERE ns = ? ORDER BY key", (namespace,))]

    def namespaces(self) -> set[str]:
        return {ns for (ns,) in self.sql("SELECT DISTINCT ns FROM blobs")}

    def blob(self, namespace: str, key: str) -> bytes:
        (row,) = self.sql("SELECT data FROM blobs WHERE ns = ? AND key = ?", (namespace, key))
        return row[0]

    def overwrite(self, namespace: str, data: bytes, key: Optional[str] = None) -> int:
        """Replace the blob of every row of ``namespace`` (or of one key);
        the number of rows changed."""
        where, params = ("ns = ?", (namespace,)) if key is None else ("ns = ? AND key = ?", (namespace, key))
        self.sql(f"UPDATE blobs SET data = ?, size = ? WHERE {where}", (data, len(data), *params))
        return self.sql(f"SELECT count(*) FROM blobs WHERE {where}", params)[0][0]

    def insert(self, namespace: str, keys: Iterable[str], data: bytes) -> None:
        """Insert one row of ``data`` per key, in one transaction, as least
        recently used."""
        connection = sqlite3.connect(f"file:{self.path}?mode=rw", uri=True, isolation_level=None)
        try:
            connection.execute("BEGIN")
            connection.executemany(
                "INSERT INTO blobs (ns, key, used, size, data) VALUES (?, ?, 0, ?, ?)",
                ((namespace, key, len(data), data) for key in keys),
            )
            connection.execute("COMMIT")
        finally:
            connection.close()

    def used(self, namespace: str, key: str) -> int:
        return self.sql("SELECT used FROM blobs WHERE ns = ? AND key = ?", (namespace, key))[0][0]

    def set_used(self, namespace: str, key: str, stamp: int) -> None:
        self.sql("UPDATE blobs SET used = ? WHERE ns = ? AND key = ?", (stamp, namespace, key))

    def stored_bytes(self) -> int:
        """``sum(length(data))``: what the budget bounds."""
        return self.sql("SELECT coalesce(sum(length(data)), 0) FROM blobs")[0][0]

    def ledger(self) -> int:
        return self.sql("SELECT bytes FROM ledger")[0][0]

    def rows(self) -> int:
        return self.sql("SELECT count(*) FROM blobs")[0][0]

    def file_bytes(self) -> int:
        """The database file's size once its write-ahead log is checkpointed."""
        self.sql("PRAGMA wal_checkpoint(TRUNCATE)")
        return os.path.getsize(self.path)


@pytest.fixture
def disk_rows():
    """``disk_rows(cache_dir)``: a :class:`DiskRows` over that dir."""
    return DiskRows
