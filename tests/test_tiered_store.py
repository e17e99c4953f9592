"""Robustness tests for :class:`repro.pipeline.store.TieredStore`.

Every cache tier (the ``ast`` / ``eval`` / ``backend`` / ``sim`` tiers of
the stage cache) is one store, so the corruption, dead-remote, promotion,
sharing and eviction rules are pinned here once.  The disk tier is
observed through the ``disk_rows`` fixture's own SQL.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import select
import socket
import sys
import threading
import time

import pytest

from repro.lang.compile import compile_sources
from repro.pipeline import RemoteCacheClient, StageCache
from repro.pipeline import store as store_module
from repro.pipeline.store import DB_NAME, TieredStore

VALUE = {"unit.vhd": "entity unit is end;", "nested": ["a", "b"]}

SOURCE = (
    "type byte_t = Stream(Bit(8), d=1);\n"
    "streamlet echo_s { i: byte_t in, o: byte_t out, }\n"
    "impl echo_i of echo_s { i => o, }\n"
    "top echo_i;\n"
)


class FakeRemote:
    """An in-process stand-in for :class:`RemoteCacheClient`."""

    def __init__(self) -> None:
        self.blobs: dict[str, bytes] = {}
        self.gets: list[str] = []
        self.puts: list[str] = []
        self.corrupt: list[str] = []

    def get(self, key: str):
        self.gets.append(key)
        return self.blobs.get(key)

    def put(self, key: str, payload: bytes) -> None:
        self.puts.append(key)
        self.blobs[key] = payload

    def note_corrupt(self, key: str) -> None:
        self.corrupt.append(key)


def dead_endpoint() -> str:
    """An endpoint that refuses connections (bound, never accepted, closed)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"127.0.0.1:{port}"


def written_row(tmp_path, namespace: str = "backend") -> TieredStore:
    """A fresh store over ``tmp_path`` after another wrote ``VALUE`` under ``k``."""
    TieredStore(namespace, 8, cache_dir=tmp_path).put("k", VALUE)
    return TieredStore(namespace, 8, cache_dir=tmp_path)


class TestLayout:
    def test_stage_namespace_files_and_remote_keys(self, tmp_path, disk_rows):
        remote = FakeRemote()
        TieredStore("eval", 4, cache_dir=tmp_path, remote=remote).put("abc", VALUE)
        assert disk_rows(tmp_path).keys("eval") == ["abc"]
        assert pickle.loads(disk_rows(tmp_path).blob("eval", "abc")) == VALUE
        assert remote.puts == ["eval:abc"]

    def test_every_namespace_lives_under_the_stage_dir(self, tmp_path, disk_rows):
        """One database file per cache dir holds all four namespaces."""
        for namespace in ("ast", "eval", "backend", "sim"):
            TieredStore(namespace, 4, cache_dir=tmp_path).put("abc", VALUE)
        names = {path.name for path in tmp_path.iterdir()}
        assert DB_NAME in names and names <= {DB_NAME, f"{DB_NAME}-wal", f"{DB_NAME}-shm"}
        rows = disk_rows(tmp_path)
        assert rows.namespaces() == {"ast", "eval", "backend", "sim"}
        assert rows.rows() == 4 and rows.ledger() == rows.stored_bytes()


class TestDiskCorruption:
    @pytest.mark.parametrize(
        "blob",
        [b"definitely not a pickle", pickle.dumps(VALUE)[:-7], pickle.dumps(["wrong", "type"])],
        ids=["corrupt", "truncated", "wrong-type"],
    )
    def test_bad_blob_is_a_counted_miss_and_dropped(self, tmp_path, blob, disk_rows):
        store = written_row(tmp_path)
        rows = disk_rows(tmp_path)
        assert rows.overwrite("backend", blob, key="k") == 1
        assert store.get("k", dict) is None
        assert store.stats.misses == 1 and store.stats.hits == 0
        assert store.stats.disk_errors == 1 and store.stats.disk_hits == 0
        assert rows.keys("backend") == [] and rows.ledger() == 0
        # The dropped row is simply rebuilt by the next put.
        store.put("k", VALUE)
        assert TieredStore("backend", 8, cache_dir=tmp_path).get("k", dict) == VALUE

    def test_bad_disk_blob_falls_through_to_the_remote(self, tmp_path, disk_rows):
        """A corrupt row must not hide a good remote entry: the lookup asks
        the remote and promotes its blob back to disk."""
        remote = FakeRemote()
        TieredStore("backend", 8, cache_dir=tmp_path, remote=remote).put("k", VALUE)
        disk_rows(tmp_path).overwrite("backend", b"definitely not a pickle", key="k")
        store = TieredStore("backend", 8, cache_dir=tmp_path, remote=remote)
        assert store.get("k", dict) == VALUE
        assert remote.gets == ["backend:k"] and remote.puts == ["backend:k"]
        counts = store.stats_snapshot()
        assert counts["disk_errors"] == 1 and counts["hits"] == 1 and counts["disk_hits"] == 0
        assert counts["disk_stores"] == 1  # the promotion
        assert pickle.loads(disk_rows(tmp_path).blob("backend", "k")) == VALUE

    def test_good_blob_is_a_disk_hit_refreshing_a_stale_stamp(self, tmp_path, disk_rows):
        """A hit queues a stamp that is ``RECENCY_REFRESH_S`` old, and the
        next budget pass rewrites the queue in one transaction; a recent
        stamp is left alone.  So no hit writes anything itself."""
        store = written_row(tmp_path)
        cache = StageCache(cache_dir=tmp_path)
        rows = disk_rows(tmp_path)
        stale = int(time.time()) - 1000
        rows.set_used("backend", "k", stale)
        assert store.get("k", dict) == VALUE
        assert store.stats.disk_hits == 1 and store.stats.hits == 1
        assert rows.used("backend", "k") == stale
        cache.enforce_disk_budget()
        assert rows.used("backend", "k") > stale + 500

        recent = int(time.time()) - store_module.RECENCY_REFRESH_S // 2
        rows.set_used("backend", "k", recent)
        assert TieredStore("backend", 8, cache_dir=tmp_path).get("k", dict) == VALUE
        cache.enforce_disk_budget()
        assert rows.used("backend", "k") == recent


class TestRemoteTier:
    def test_remote_hit_is_promoted_without_reupload(self, tmp_path, disk_rows):
        remote = FakeRemote()
        TieredStore("ast", 8, remote=remote).put("k", VALUE)
        assert remote.puts == ["ast:k"]

        store = TieredStore("ast", 8, cache_dir=tmp_path, remote=remote)
        assert store.get("k", dict) == VALUE
        assert remote.puts == ["ast:k"]  # no echo upload
        assert disk_rows(tmp_path).keys("ast") == ["k"]
        assert store.stats.disk_stores == 1 and store.stats.disk_hits == 0
        # Promoted into memory too: the next get never asks the remote.
        asked = len(remote.gets)
        assert store.get("k", dict) == VALUE
        assert len(remote.gets) == asked

    @pytest.mark.parametrize(
        "blob", [b"not a pickle", pickle.dumps(["wrong", "type"])], ids=["corrupt", "wrong-type"]
    )
    def test_bad_remote_blob_is_reported_and_not_promoted(self, tmp_path, blob):
        remote = FakeRemote()
        remote.blobs["sim:k"] = blob
        store = TieredStore("sim", 8, cache_dir=tmp_path, remote=remote)
        assert store.get("k", dict) is None
        assert remote.corrupt == ["sim:k"]
        assert store.stats.misses == 1 and store.stats.disk_errors == 0
        assert list(tmp_path.iterdir()) == []  # a lookup creates no database
        assert len(store) == 0

    def test_dead_remote_runs_local_only(self, tmp_path):
        remote = RemoteCacheClient.from_url(dead_endpoint(), connect_timeout=0.2)
        try:
            store = TieredStore("backend", 8, cache_dir=tmp_path, remote=remote)
            assert store.get("k", dict) is None
            store.put("k", VALUE)
            assert store.get("k", dict) == VALUE
            reader = TieredStore("backend", 8, cache_dir=tmp_path, remote=remote)
            assert reader.get("k", dict) == VALUE
            assert reader.stats.disk_hits == 1
        finally:
            remote.close()


class TestCodecs:
    def test_shared_codec_serves_the_stored_object(self):
        store = TieredStore("backend", 8)
        store.put("k", VALUE)
        assert store.get("k", dict) is VALUE


class TestLru:
    def test_eviction_at_capacity(self):
        store = TieredStore("ast", 2)
        for key in ("a", "b"):
            store.put(key, VALUE)
        assert store.get("a", dict) == VALUE  # a is now most recent
        store.put("c", VALUE)  # evicts b
        assert store.get("b", dict) is None
        assert store.get("a", dict) == VALUE and store.get("c", dict) == VALUE
        assert store.stats.evictions == 1 and len(store) == 2

    def test_evicted_entry_survives_on_disk(self, tmp_path):
        store = TieredStore("ast", 1, cache_dir=tmp_path)
        store.put("a", VALUE)
        store.put("b", VALUE)
        assert store.get("a", dict) == VALUE
        assert store.stats.disk_hits == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            TieredStore("ast", 0)


class TestUnwritableCacheDir:
    def test_disk_errors_counted_and_compile_succeeds(self, tmp_path):
        """A cache dir that cannot be created or written (here: a path below
        a regular file, which even root cannot write) costs only counted
        disk errors, never the compile."""
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cache = StageCache(cache_dir=blocker / "cache")
        result = compile_sources([(SOURCE, "a.td")], cache=cache)
        assert result.project.top == "echo_i"
        # One failed read (the lookup) and one failed write (the store)
        # for each of the ast and eval tiers.
        assert cache.stats.disk_errors == 4 and cache.stats.disk_stores == 0
        again = compile_sources([(SOURCE, "a.td")], cache=cache)
        assert again.project is result.project  # the memory tier still works
        assert cache.stats.evaluate_hits == 1


class TestDatabaseFaults:
    def test_file_that_is_not_a_database_runs_memory_only_until_clear(self, tmp_path, disk_rows):
        garbage = b"definitely not a database" * 40
        (tmp_path / DB_NAME).write_bytes(garbage)
        cache = StageCache(cache_dir=tmp_path)
        result = compile_sources([(SOURCE, "a.td")], cache=cache)
        assert result.project.top == "echo_i"
        # A failed read and a failed write for each of the ast and eval tiers.
        assert cache.stats.disk_errors == 4 and cache.stats.disk_stores == 0
        assert (tmp_path / DB_NAME).read_bytes() == garbage  # left alone
        assert compile_sources([(SOURCE, "a.td")], cache=cache).project is result.project

        cache.clear(disk=True)  # recreates the file in place
        cache.stats.reset()
        compile_sources([(SOURCE, "a.td")], cache=cache)
        assert cache.stats.disk_errors == 0 and cache.stats.disk_stores == 2
        assert disk_rows(tmp_path).namespaces() == {"ast", "eval"}

    def test_without_sqlite3_the_disk_tier_counts_errors(self, tmp_path, monkeypatch):
        monkeypatch.setitem(sys.modules, "sqlite3", None)  # import sqlite3 now fails
        cache = StageCache(cache_dir=tmp_path / "cache", remote=FakeRemote())
        result = compile_sources([(SOURCE, "a.td")], cache=cache)
        assert result.project.top == "echo_i"
        # No database yet, so the lookups are plain misses; both puts fail.
        assert cache.stats.disk_errors == 2 and cache.stats.disk_stores == 0
        assert len(cache.remote.puts) == 2  # memory + remote still run
        assert not (tmp_path / "cache" / DB_NAME).exists()

    def test_put_that_cannot_take_the_write_lock_is_dropped_in_bounded_time(
        self, tmp_path, monkeypatch, disk_rows
    ):
        import sqlite3

        monkeypatch.setattr(store_module, "BUSY_TIMEOUT_S", 0.05)
        store = written_row(tmp_path)
        blocker = sqlite3.connect(tmp_path / DB_NAME, isolation_level=None)
        blocker.execute("BEGIN IMMEDIATE")  # holds the write lock
        try:
            start = time.perf_counter()
            store.put("other", VALUE)
            assert time.perf_counter() - start < 1.0
            assert store.stats.disk_errors == 1 and store.stats.disk_stores == 0
            assert store.get("other", dict) == VALUE  # memory still has it
            assert store.get("k", dict) == VALUE  # reads are not blocked
        finally:
            blocker.execute("ROLLBACK")
            blocker.close()
        assert disk_rows(tmp_path).keys("backend") == ["k"]


def value_for(key: str) -> dict:
    return {"key": key, "pad": key * (40 + len(key) % 7)}


def fork_child(body) -> tuple[int, int]:
    """Fork a child that runs ``body()`` and writes the dict it returns
    (``{"error": ...}`` if it raised) to a pipe: ``(pid, read end)``."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: never return into pytest
        status = 0
        try:
            os.close(read_end)
            try:
                report = body()
            except BaseException as exc:  # noqa: BLE001 - reported to the parent
                report, status = {"error": repr(exc)}, 1
            os.write(write_end, json.dumps(report).encode())
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, read_end


def collect(pid: int, read_end: int, timeout: float = 30.0) -> dict:
    """The report of a :func:`fork_child` child; kills a child that hangs."""
    chunks = []
    deadline = time.monotonic() + timeout
    try:
        while True:
            ready, _, _ = select.select([read_end], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                os.kill(pid, 9)
                raise AssertionError("forked child hung")
            chunk = os.read(read_end, 65536)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(read_end)
        os.waitpid(pid, 0)
    return json.loads(b"".join(chunks) or b'{"error": "no report"}')


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
class TestSharedAcrossProcesses:
    def test_forked_processes_and_threads_share_one_budgeted_dir(self, tmp_path, disk_rows):
        """Two forked processes, two threads each, overlapping and distinct
        keys, a budget that evicts: every get is a miss or the right value,
        no process counts a disk error, and the ledger matches the rows."""
        shared = [f"shared-{index}" for index in range(12)]

        def work() -> dict:
            cache = StageCache(cache_dir=tmp_path, max_disk_bytes=6_000)
            store = TieredStore("backend", 2, cache_dir=tmp_path)
            wrong = []

            def thread(seed: int) -> None:
                rng = random.Random(seed)
                own = [f"p{os.getpid()}-t{seed}-{index}" for index in range(12)]
                for step in range(60):
                    key = rng.choice(shared + own)
                    if step % 2:
                        store.put(key, value_for(key))
                    got = store.get(rng.choice(shared + own), dict)
                    if got is not None and got != value_for(got["key"]):
                        wrong.append(got["key"])
                    if step % 5 == 0:
                        cache.enforce_disk_budget()

            threads = [threading.Thread(target=thread, args=(seed,)) for seed in (1, 2)]
            for each in threads:
                each.start()
            for each in threads:
                each.join()
            return {
                "wrong": wrong,
                "disk_errors": store.stats.disk_errors + cache.stats.disk_errors,
                "disk_hits": store.stats.disk_hits,
                "evictions": cache.stats.disk_evictions,
            }

        TieredStore("backend", 2, cache_dir=tmp_path).put("seed", value_for("seed"))
        children = [fork_child(work) for _ in range(2)]
        reports = [collect(*child) for child in children]
        for report in reports:
            assert report.get("error") is None, report
            assert report["wrong"] == [] and report["disk_errors"] == 0
            assert report["disk_hits"] > 0
        assert sum(report["evictions"] for report in reports) > 0
        rows = disk_rows(tmp_path)
        assert rows.ledger() == rows.stored_bytes()
        for key in rows.keys("backend"):
            assert pickle.loads(rows.blob("backend", key)) == value_for(key)

    def test_store_keeps_working_in_parent_and_forked_child(self, tmp_path):
        store = TieredStore("backend", 1, cache_dir=tmp_path)
        store.put("parent", VALUE)
        parent_connection = store_module.disk_tier(tmp_path)._conn
        assert parent_connection is not None

        def child() -> dict:
            fresh = TieredStore("backend", 1, cache_dir=tmp_path)
            seen = fresh.get("parent", dict)
            store.put("child", VALUE)  # the inherited store, on its own connection
            tier = store_module.disk_tier(tmp_path)
            return {
                "seen": seen == VALUE,
                "own_connection": tier._conn is not parent_connection,
                "pinned": any(conn is parent_connection for conn in store_module._INHERITED),
                "disk_errors": store.stats.disk_errors + fresh.stats.disk_errors,
            }

        report = collect(*fork_child(child))
        assert report == {"seen": True, "own_connection": True, "pinned": True, "disk_errors": 0}
        assert store_module.disk_tier(tmp_path)._conn is parent_connection
        reader = TieredStore("backend", 1, cache_dir=tmp_path)
        assert reader.get("child", dict) == VALUE
        store.put("after", VALUE)
        assert TieredStore("backend", 1, cache_dir=tmp_path).get("after", dict) == VALUE
        assert store.stats.disk_errors == 0 and reader.stats.disk_errors == 0
