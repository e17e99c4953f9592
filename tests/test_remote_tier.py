"""Tests for the remote L2 cache tier: wire format, server, client, and the
cache-stack integration (lookup order, corruption recovery, degradation)."""

import pickle
import socket
import threading

import pytest

from repro.lang import compile_sources
from repro.pipeline import RemoteCacheClient, StageCache, parse_endpoint
from repro.pipeline.remote import (
    DEFAULT_CACHE_PORT,
    pack_put,
    recv_frame,
    send_frame,
    unpack_put,
)
from repro.server.cachesvc import CacheServerThread, CacheStore

SOURCE = """
type byte_t = Stream(Bit(8), d=1);
streamlet echo_s { i: byte_t in, o: byte_t out, }
impl echo_i of echo_s { i => o, }
top echo_i;
"""

OTHER_SOURCE = SOURCE.replace("Bit(8)", "Bit(16)")


@pytest.fixture()
def server():
    with CacheServerThread() as svc:
        yield svc


def _client(server, **kwargs) -> RemoteCacheClient:
    kwargs.setdefault("retry_interval", 0.05)
    return RemoteCacheClient.from_url(server.endpoint, **kwargs)


def _dead_endpoint() -> str:
    """An endpoint that refuses connections (bound, never accepted, closed)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"127.0.0.1:{port}"


def _drop_namespace(store: CacheStore, prefix: str) -> int:
    return sum(store.drop(key) for key in store.keys() if key.startswith(prefix))


def _replace_namespace(store: CacheStore, prefix: str, blob: bytes) -> int:
    matched = [key for key in store.keys() if key.startswith(prefix)]
    for key in matched:
        store.put(key, blob)
    return len(matched)


class TestWireFormat:
    def test_parse_endpoint_forms(self):
        assert parse_endpoint("example.com:4781") == ("example.com", 4781)
        assert parse_endpoint("tcp://10.0.0.1:99/") == ("10.0.0.1", 99)
        assert parse_endpoint("example.com") == ("example.com", DEFAULT_CACHE_PORT)

    @pytest.mark.parametrize("bad", ["", "host:", "host:notaport", "host:0", "host:70000"])
    def test_parse_endpoint_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_endpoint(bad)

    def test_put_roundtrip(self):
        key, blob = "eval:" + "a" * 64, b"\x00\xffpayload"
        assert unpack_put(pack_put(key, blob)) == (key, blob)

    def test_put_roundtrip_empty_payload(self):
        assert unpack_put(pack_put("k", b"")) == ("k", b"")

    def test_frame_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, b"hello")
            send_frame(a, b"")
            assert recv_frame(b) == b"hello"
            assert recv_frame(b) == b""
            a.close()
            assert recv_frame(b) is None  # clean EOF
        finally:
            b.close()

    def test_truncated_frame_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00\x00\x10part")  # claims 16 bytes, sends 4
            a.close()
            with pytest.raises(ConnectionError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_frame_rejected_on_send(self):
        a, b = socket.socketpair()
        try:
            with pytest.raises(ValueError):
                send_frame(a, b"x" * (64 * 1024 * 1024 + 64 * 1024 + 1))
        finally:
            a.close()
            b.close()


class TestCacheStore:
    def test_lru_eviction_into_byte_budget(self):
        store = CacheStore(max_bytes=100)
        store.put("a", b"x" * 60)
        store.put("b", b"y" * 30)
        assert store.get("a") is not None  # refresh a: b is now LRU
        store.put("c", b"z" * 40)  # 130 bytes total: evict b
        assert store.get("b") is None
        assert store.get("a") is not None
        assert store.get("c") is not None
        assert store.evictions == 1

    def test_entry_bigger_than_budget_leaves_store_empty(self):
        store = CacheStore(max_bytes=10)
        assert store.put("big", b"x" * 20)
        assert len(store) == 0

    def test_oversized_entry_rejected(self):
        store = CacheStore(max_bytes=1000, max_entry_bytes=10)
        assert not store.put("big", b"x" * 11)
        assert store.rejected == 1
        assert len(store) == 0

    def test_replacing_entry_does_not_leak_bytes(self):
        store = CacheStore(max_bytes=100)
        store.put("a", b"x" * 80)
        store.put("a", b"y" * 80)  # same key: must not count 160
        assert store.stats_snapshot()["bytes"] == 80


class TestClientServer:
    def test_get_put_roundtrip(self, server):
        with _client(server) as client:
            assert client.get("eval:deadbeef") is None
            client.put("eval:deadbeef", b"payload")
            assert client.flush()
            assert client.get("eval:deadbeef") == b"payload"
            snap = client.stats_snapshot()
            assert snap["hits"] == 1
            assert snap["misses"] == 1
            assert snap["puts"] == 1
            assert snap["errors"] == 0

    def test_remote_stats_document(self, server):
        with _client(server) as client:
            client.put("k", b"v")
            client.flush()
            doc = client.remote_stats()
            assert doc is not None
            assert doc["entries"] == 1
            assert doc["puts"] == 1

    def test_dead_endpoint_degrades_without_raising(self):
        with RemoteCacheClient.from_url(
            _dead_endpoint(), connect_timeout=0.2, retry_interval=30.0
        ) as client:
            assert client.get("k") is None  # transport error, not an exception
            client.put("k", b"v")
            client.flush(timeout=2.0)
            snap = client.stats_snapshot()
            assert snap["errors"] >= 1
            assert snap["down"] is True
            # While down, lookups skip the network entirely.
            assert client.get("k2") is None
            assert client.stats_snapshot()["skips"] >= 1

    def test_server_killed_mid_run_degrades(self):
        svc = CacheServerThread()
        svc.__enter__()
        client = RemoteCacheClient.from_url(
            svc.endpoint, connect_timeout=0.2, retry_interval=30.0
        )
        try:
            client.put("k", b"v")
            assert client.flush()
            assert client.get("k") == b"v"
            svc.stop()
            assert client.get("k") is None  # miss, never an exception
            client.put("k2", b"w")
            client.flush(timeout=2.0)
            snap = client.stats_snapshot()
            assert snap["errors"] >= 1 or snap["put_drops"] >= 1
        finally:
            client.close()

    def test_queue_overflow_sheds_oldest(self, server):
        client = _client(server, max_pending=2)
        try:
            # Stall the writer by filling the queue faster than it drains is
            # racy; instead exercise the shed path with the endpoint down.
            client._down_until = float("inf")
            for index in range(5):
                client.put(f"k{index}", b"v")
            assert client.stats_snapshot()["put_drops"] >= 3
        finally:
            client.close()

    def test_close_is_idempotent(self, server):
        client = _client(server)
        client.close()
        client.close()
        assert client.get("k") is None  # closed client answers miss-by-skip


class TestCacheIntegration:
    def test_cold_cache_hits_warm_remote_whole_result(self, server, tmp_path):
        """A cold cache over a warm remote runs no stage at all: the
        frontend snapshot and every backend unit come over the wire."""
        with _client(server) as writer:
            warm = StageCache(cache_dir=tmp_path / "w", remote=writer)
            expected = compile_sources([(SOURCE, "a.td")], cache=warm, targets=["vhdl"])
            assert writer.flush()

        with _client(server) as reader:
            cold = StageCache(cache_dir=tmp_path / "c", remote=reader)
            result = compile_sources([(SOURCE, "a.td")], cache=cold, targets=["vhdl"])
            assert result.ir_text() == expected.ir_text()
            assert result.outputs == expected.outputs
            counts = cold.stats_snapshot()
            assert counts["evaluate_hits"] == 1 and counts["evaluate_misses"] == 0
            assert counts["backend_misses"] == 0
            assert counts["parse_hits"] == counts["parse_misses"] == 0
            assert reader.stats_snapshot()["hits"] == 1 + counts["backend_hits"]
            # The hits were promoted to local disk: a rebuilt local-only
            # cache serves them without the remote.
            local = StageCache(cache_dir=tmp_path / "c")
            compile_sources([(SOURCE, "a.td")], cache=local, targets=["vhdl"])
            assert local.stats.disk_hits == 1 + local.stats.backend_hits
            assert local.stats.evaluate_misses == local.stats.backend_misses == 0

    def test_stage_tiers_hit_warm_remote(self, server):
        with _client(server) as writer:
            warm = StageCache(remote=writer)
            compile_sources([(SOURCE, "a.td")], cache=warm, targets=["vhdl"])
            assert writer.flush()
            # Drop the frontend snapshot so the frontend must run.
            assert _drop_namespace(server.store, "eval:") >= 1

        with _client(server) as reader:
            cold = StageCache(remote=reader)
            result = compile_sources([(SOURCE, "a.td")], cache=cold, targets=["vhdl"])
            assert result.outputs["vhdl"]
            stage_stats = cold.stats
            assert stage_stats.parse_misses == 0
            assert stage_stats.parse_hits >= 1
            assert stage_stats.evaluate_misses == 1
            assert stage_stats.backend_hits >= 1
            assert reader.stats_snapshot()["corrupt"] == 0

    def test_corrupt_remote_result_is_a_miss(self, server):
        from repro.lang.compile import CompileOptions

        key = StageCache().snapshot_key([(SOURCE, "a.td")], CompileOptions())
        server.store.put(f"eval:{key}", b"not a pickle")
        with _client(server) as client:
            cold = StageCache(remote=client)
            result = compile_sources([(SOURCE, "a.td")], cache=cold)
            assert result.project.top == "echo_i"
            assert cold.stats.evaluate_misses == 1
            snap = client.stats_snapshot()
            assert snap["corrupt"] >= 1
            assert snap["errors"] >= 1

    def test_corrupt_remote_snapshot_is_a_miss(self, server):
        with _client(server) as writer:
            warm = StageCache(remote=writer)
            compile_sources([(SOURCE, "a.td")], cache=warm)
            assert writer.flush()
        # Corrupt every eval snapshot in place; asts stay valid.
        corrupted = _replace_namespace(server.store, "eval:", b"not a pickle")
        assert corrupted >= 1
        with _client(server) as reader:
            cold = StageCache(remote=reader)
            result = compile_sources([(SOURCE, "a.td")], cache=cold)
            assert result.project.top == "echo_i"
            assert reader.stats_snapshot()["corrupt"] >= 1
            assert cold.stats.evaluate_misses == 1
            assert cold.stats.parse_misses == 0

    def test_wrong_typed_remote_ast_is_a_miss(self, server):
        with _client(server) as writer:
            warm = StageCache(remote=writer)
            compile_sources([(SOURCE, "a.td")], cache=warm)
            assert writer.flush()
        # Replace every ast blob with a validly-pickled wrong type.
        swapped = _replace_namespace(
            server.store, "ast:", pickle.dumps({"not": "a SourceUnit"})
        )
        assert swapped >= 1
        _drop_namespace(server.store, "eval:")
        with _client(server) as reader:
            cold = StageCache(remote=reader)
            result = compile_sources([(SOURCE, "a.td")], cache=cold)
            assert result.project.top == "echo_i"
            assert reader.stats_snapshot()["corrupt"] >= 1

    def test_compile_succeeds_with_dead_remote(self, tmp_path):
        cache = StageCache(
            cache_dir=tmp_path,
            remote=RemoteCacheClient.from_url(_dead_endpoint(), connect_timeout=0.2),
        )
        try:
            result = compile_sources([(SOURCE, "a.td")], cache=cache)
            assert result.project.top == "echo_i"
            again = compile_sources([(SOURCE, "a.td")], cache=cache)
            assert again.ir_text() == result.ir_text()
            assert cache.stats.evaluate_hits == 1
        finally:
            cache.remote.close()

    def test_workspace_rejects_remote_with_explicit_cache(self):
        from repro.errors import TydiWorkspaceError
        from repro.workspace import Workspace

        with pytest.raises(TydiWorkspaceError):
            Workspace(cache=StageCache(), remote_cache="127.0.0.1:4781")


class TestConcurrency:
    def test_concurrent_get_put_accounting(self, server):
        with _client(server) as client:
            errors: list[BaseException] = []

            def worker(index: int) -> None:
                try:
                    for round_no in range(25):
                        key = f"k{index}:{round_no % 5}"
                        client.put(key, b"v" * 64)
                        client.get(key)
                except BaseException as exc:  # pragma: no cover - fail loudly
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert client.flush()
            snap = client.stats_snapshot()
            # Against a live server every attempted lookup resolves.
            assert snap["gets"] == snap["hits"] + snap["misses"] == 200
            assert snap["puts"] + snap["put_drops"] == 200
            assert snap["pending_puts"] == 0

    def test_stats_snapshot_consistent_under_concurrent_readers(self, server):
        with _client(server) as client:
            stop = threading.Event()
            failures: list[BaseException] = []

            def reader() -> None:
                try:
                    while not stop.is_set():
                        snap = client.stats_snapshot()
                        assert snap["gets"] >= snap["hits"] + snap["misses"] - snap["errors"]
                        assert snap["pending_puts"] >= 0
                except BaseException as exc:  # pragma: no cover
                    failures.append(exc)

            readers = [threading.Thread(target=reader) for _ in range(3)]
            for thread in readers:
                thread.start()
            for index in range(100):
                client.put(f"k{index}", b"v")
                client.get(f"k{index % 10}")
            stop.set()
            for thread in readers:
                thread.join()
            assert not failures
