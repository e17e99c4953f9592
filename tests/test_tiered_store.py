"""Robustness tests for :class:`repro.pipeline.store.TieredStore`.

Every cache tier (the ``ast`` / ``eval`` / ``backend`` / ``sim`` tiers of
the stage cache) is one store, so the corruption, dead-remote, promotion,
sharing and eviction rules are pinned here once.
"""

from __future__ import annotations

import os
import pickle
import socket
import time

import pytest

from repro.lang.compile import compile_sources
from repro.pipeline import RemoteCacheClient, StageCache
from repro.pipeline.store import STAGE_DIR_NAME, TieredStore

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


def written_file(tmp_path, namespace: str = "backend") -> tuple[TieredStore, object]:
    """A store over ``tmp_path`` that has written ``VALUE`` under key ``k``."""
    TieredStore(namespace, 8, cache_dir=tmp_path).put("k", VALUE)
    fresh = TieredStore(namespace, 8, cache_dir=tmp_path)
    return fresh, tmp_path / STAGE_DIR_NAME / f"{namespace}-k.pkl"


class TestLayout:
    def test_stage_namespace_files_and_remote_keys(self, tmp_path):
        remote = FakeRemote()
        TieredStore("eval", 4, cache_dir=tmp_path, remote=remote).put("abc", VALUE)
        assert (tmp_path / STAGE_DIR_NAME / "eval-abc.pkl").is_file()
        assert remote.puts == ["eval:abc"]

    def test_every_namespace_lives_under_the_stage_dir(self, tmp_path):
        for namespace in ("ast", "eval", "backend", "sim"):
            TieredStore(namespace, 4, cache_dir=tmp_path).put("abc", VALUE)
        assert [path.name for path in tmp_path.iterdir()] == [STAGE_DIR_NAME]
        assert len(list((tmp_path / STAGE_DIR_NAME).glob("*-abc.pkl"))) == 4


class TestDiskCorruption:
    @pytest.mark.parametrize(
        "blob",
        [b"definitely not a pickle", pickle.dumps(VALUE)[:-7], pickle.dumps(["wrong", "type"])],
        ids=["corrupt", "truncated", "wrong-type"],
    )
    def test_bad_blob_is_a_counted_miss_and_dropped(self, tmp_path, blob):
        store, path = written_file(tmp_path)
        path.write_bytes(blob)
        assert store.get("k", dict) is None
        assert store.stats.misses == 1 and store.stats.hits == 0
        assert store.stats.disk_errors == 1 and store.stats.disk_hits == 0
        assert not path.exists()
        # The dropped file is simply rebuilt by the next put.
        store.put("k", VALUE)
        assert TieredStore("backend", 8, cache_dir=tmp_path).get("k", dict) == VALUE

    def test_good_blob_is_a_disk_hit_that_refreshes_mtime(self, tmp_path):
        store, path = written_file(tmp_path)
        stale = time.time() - 1000
        os.utime(path, (stale, stale))
        assert store.get("k", dict) == VALUE
        assert store.stats.disk_hits == 1 and store.stats.hits == 1
        assert path.stat().st_mtime > stale + 500


class TestRemoteTier:
    def test_remote_hit_is_promoted_without_reupload(self, tmp_path):
        remote = FakeRemote()
        TieredStore("ast", 8, remote=remote).put("k", VALUE)
        assert remote.puts == ["ast:k"]

        store = TieredStore("ast", 8, cache_dir=tmp_path, remote=remote)
        assert store.get("k", dict) == VALUE
        assert remote.puts == ["ast:k"]  # no echo upload
        assert (tmp_path / STAGE_DIR_NAME / "ast-k.pkl").is_file()
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
        assert not (tmp_path / STAGE_DIR_NAME).exists()
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
