"""Tests of the multi-process worker pool (:mod:`repro.server.pool`).

What the pool must prove:

* **sharding is stable** -- the design-name hash is pinned by golden
  values (a salted or platform-dependent hash would shuffle every
  design's warm shard on restart);
* **differential identity** -- a ``workers=N`` service answers every
  request byte-identically to the ``workers=0`` in-process thread path
  (same envelopes, same IR, same backend outputs, same error shapes);
* **lifespan** -- a SIGKILLed worker is respawned, its shard's designs
  replayed, and the in-flight request retried; an exhausted restart
  budget degrades to structured errors instead of fork-bombing;
* **backpressure and drain** -- full bounded queues and draining
  services reject with the structured :class:`TydiBackpressureError` /
  :class:`TydiDrainingError` types, never by hanging or dropping;
* **the shutdown race is fixed** -- a shutdown racing an in-flight
  compile never drops the compile's response (the PR-5 transport
  force-closed connections; the drain path waits).

The pool requires ``fork``; the whole module is skipped where it is
unavailable (the service's ``workers=0`` path is tested everywhere else).
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import threading
import time

import pytest

from repro.errors import TydiBackpressureError, TydiDrainingError
from repro.server import CompileClient, CompileService, ServerThread
from repro.server.methods import METHODS
from repro.server.pool import WorkerPool, fork_available, shard_for
from repro.server.worker import read_frame, write_frame
from repro.testing import build_chain_design

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="worker pool requires the fork start method"
)


def _files(num_steps: int = 3) -> dict[str, str]:
    return {filename: text for text, filename in build_chain_design(num_steps)}


# -- sharding ------------------------------------------------------------------


def test_shard_for_is_pinned_by_golden_values():
    # These values must never change: a daemon restart (or a different
    # platform) must route every design to the same shard it warmed.
    golden = {
        "alpha": [0, 0, 2, 6],
        "beta": [0, 1, 1, 1],
        "gamma": [0, 0, 0, 0],
        "tpch_q6": [0, 1, 1, 5],
        "adder": [0, 1, 3, 3],
        "chain": [0, 1, 1, 5],
    }
    for name, expected in golden.items():
        assert [shard_for(name, n) for n in (1, 2, 4, 8)] == expected


def test_shard_for_spreads_designs():
    shards = [shard_for(f"design_{i}", 4) for i in range(200)]
    counts = [shards.count(k) for k in range(4)]
    assert sum(counts) == 200
    assert min(counts) > 20  # roughly uniform, no empty shard

    with pytest.raises(ValueError):
        shard_for("x", 0)


# -- the frame protocol --------------------------------------------------------


def test_frame_roundtrip_and_truncation():
    r, w = os.pipe()
    try:
        write_frame(w, (7, "get_ir", {"design": "d"}))
        assert read_frame(r) == (7, "get_ir", {"design": "d"})

        # A truncated frame (peer died mid-write) reads as None, not junk.
        os.write(w, b"\x00\x00\x00\x00\x00\x00\x00\x10abc")
        os.close(w)
        assert read_frame(r) is None
        assert read_frame(r) is None  # EOF afterwards
    finally:
        for fd in (r,):
            try:
                os.close(fd)
            except OSError:
                pass


def test_frame_header_bound_rejects_corrupt_lengths():
    r, w = os.pipe()
    try:
        os.write(w, (1 << 62).to_bytes(8, "big"))
        with pytest.raises(ValueError):
            read_frame(r)
    finally:
        os.close(r)
        os.close(w)


# -- differential identity: workers=N == workers=0 -----------------------------


def _drive(service: CompileService) -> list[bytes]:
    """One fixed request script, returning every raw response line."""
    lines = []

    def send(method, **params):
        message = {"id": len(lines) + 1, "method": method}
        if params:
            message["params"] = params
        line, _ = asyncio.run(service.respond(message))
        lines.append(line)

    send("open_design", design="alpha", files=_files(3))
    send("open_design", design="beta", files=_files(4))
    send("get_ir", design="alpha")  # a memo miss ...
    send("get_ir", design="alpha")  # ... and its hit
    send("get_ir", design="beta")
    send("get_ir", design="beta")
    send("update_file", design="alpha", filename="step1.td", text="const k = 1;\n")
    send("get_diagnostics", design="alpha")
    send("get_outputs", design="beta", target="ir")
    send("get_outputs", design="beta", target="bogus")  # backend error envelope
    send("get_ir", design="nope")  # unknown design: error envelope
    send("remove_file", design="beta", filename="missing.td")  # error envelope
    send("remove_design", design="beta")
    send("get_ir", design="beta")  # now unknown: error envelope
    return lines


def _scrub(line: bytes) -> bytes:
    """An unknown-design error lists the designs it knows, and a worker
    legitimately lists its *shard*, not the whole session."""
    return re.sub(rb"\(designs: [^)]*\)", b"(designs: <elided>)", line)


def test_pooled_service_is_byte_identical_to_threaded():
    with CompileService(jobs=2) as threaded:
        reference_lines = _drive(threaded)
        assert threaded.read_memo.stats()["hits"] == 2
    with CompileService(workers=2) as pooled:
        assert pooled.pool is not None
        observed_lines = _drive(pooled)
        assert pooled.read_memo.stats()["hits"] == 2
    reference = [json.loads(line) for line in reference_lines]
    observed = [json.loads(line) for line in observed_lines]

    # The raw lines: a result is encoded on a compile thread in one mode
    # and in a worker process in the other, and the front splices both.
    # Success lines (IR text, outputs, diagnostics, fingerprints) are
    # byte-identical, memo hits included; error lines match once scrubbed.
    assert len(observed_lines) == len(reference_lines)
    for envelope, mine, theirs in zip(reference, observed_lines, reference_lines):
        if envelope["ok"]:
            assert mine == theirs
        else:
            assert _scrub(mine) == _scrub(theirs)

    # Success envelopes (IR text, outputs, diagnostics, fingerprints) are
    # byte-identical.  Error envelopes match in type/stage/id; only the
    # "(designs: ...)" tail of unknown-design messages may differ, since a
    # worker legitimately lists its *shard*, not the whole session.
    def normalized(envelope):
        if envelope["ok"]:
            return envelope
        scrubbed = dict(envelope, error=dict(envelope["error"]))
        for key in ("message", "rendered"):
            scrubbed["error"][key] = re.sub(
                r"\(designs: [^)]*\)", "(designs: <elided>)", scrubbed["error"][key]
            )
        return scrubbed

    assert [normalized(e) for e in observed] == [normalized(e) for e in reference]

    # Sanity: the script exercised successes *and* structured errors.
    assert sum(1 for e in reference if e["ok"]) >= 7
    errors = [e for e in reference if not e["ok"]]
    assert len(errors) >= 4
    # update_file overwrote step1.td, so alpha also fails resolution --
    # compile errors, backend errors and session errors all round-trip
    # identically through the pool.
    assert {e["error"]["stage"] for e in errors} == {"workspace", "backend", "resolve"}


def test_pooled_methods_cover_every_design_addressed_method():
    # Every method with a 'design' parameter must route to its shard;
    # a new design-addressed method that forgets to register here would
    # silently run on the parent (where no designs live).
    design_addressed = {name for name, entry in METHODS.items() if "design" in entry.params}
    pooled = {name for name, entry in METHODS.items() if entry.pooled}
    # watch_design is the one deliberate exception: the subscription is
    # per NDJSON connection so it lives on the parent, and the events it
    # pushes come from get_diagnostics/simulate_design calls that *do*
    # route to the owning shard.
    assert design_addressed == pooled | {"watch_design"}


# -- lifespan: crash, respawn, replay, budget ----------------------------------


def test_sigkilled_worker_is_respawned_and_request_retried():
    with CompileService(workers=2) as service:
        with ServerThread(service) as server:
            with CompileClient(*server.address, connect_retry_for=5) as client:
                client.open_design("gamma", files=_files(3))
                ir_before = client.get_ir("gamma")

                shard = service.pool.shard_of("gamma")
                victim = service.pool.workers[shard]
                os.kill(victim.proc.pid, signal.SIGKILL)

                # The very next request on that shard (a read the front
                # process has not memoised) hits the corpse, respawns,
                # replays the design mirror, retries -- and the caller
                # never notices.
                client.get_diagnostics("gamma")
                assert service.pool.total_restarts == 1
                # The respawn dropped the shard's memoised reads, so the
                # repeat read is answered by the replayed worker.
                ir_after = client.get_ir("gamma")
                assert ir_after == ir_before

                stats = client.stats()
                assert stats["pool"]["restarts"] == 1
                assert stats["pool"]["per_worker"][shard]["restarts"] == 1
                assert stats["pool"]["per_worker"][shard]["retries"] == 1
                # open, get_ir, then get_diagnostics and get_ir after the kill.
                assert stats["pool"]["per_worker"][shard]["dispatched"] == 4
                client.shutdown()


def test_exhausted_restart_budget_degrades_to_structured_errors():
    with CompileService(workers=1, restart_budget=0) as service:
        envelope = service.handle_sync(
            {
                "id": 1,
                "method": "open_design",
                "params": {"design": "alpha", "files": _files(2)},
            }
        )
        assert envelope["ok"]
        os.kill(service.pool.workers[0].proc.pid, signal.SIGKILL)

        dead = service.handle_sync({"id": 2, "method": "get_ir", "params": {"design": "alpha"}})
        assert not dead["ok"]
        assert dead["error"]["type"] == "TydiServerError"
        assert "restart budget" in dead["error"]["message"]

        # The shard stays out of service (no fork-bombing), keeps answering.
        again = service.handle_sync({"id": 3, "method": "get_ir", "params": {"design": "alpha"}})
        assert not again["ok"]
        assert "restart budget" in again["error"]["message"]

        stats = service.handle_sync({"id": 4, "method": "stats"})["result"]
        assert stats["pool"]["per_worker"][0]["alive"] is False


# -- backpressure and drain ----------------------------------------------------


def test_full_worker_queue_rejects_with_backpressure_error():
    with WorkerPool(1, backlog=1) as pool:
        worker = pool.workers[0]
        open_future = pool.submit("open_design", {"design": "alpha", "files": _files(2)})
        assert open_future.result(timeout=30)[0]

        # Freeze the worker process: the dispatcher blocks mid-exchange,
        # so the bounded queue fills deterministically.
        os.kill(worker.proc.pid, signal.SIGSTOP)
        try:
            futures = [pool.submit("get_ir", {"design": "alpha"})]  # in flight
            with pytest.raises(TydiBackpressureError) as excinfo:
                for _ in range(3):  # one fills the backlog, the next rejects
                    futures.append(pool.submit("get_ir", {"design": "alpha"}))
            assert "back off" in str(excinfo.value)
        finally:
            os.kill(worker.proc.pid, signal.SIGCONT)
        for future in futures:
            assert future.result(timeout=30)[0]


def test_draining_pool_rejects_new_submits():
    pool = WorkerPool(1)
    assert pool.submit("open_design", {"design": "a", "files": {}}).result(30)[0]
    assert pool.drain(timeout=30) is True
    with pytest.raises(TydiDrainingError):
        pool.submit("get_ir", {"design": "a"})
    assert pool.drain(timeout=30) is True  # idempotent


def test_draining_service_rejects_compile_work_but_answers_observability():
    with CompileService(jobs=1) as service:
        service.draining.set()
        rejected = service.handle_sync(
            {"id": 1, "method": "open_design", "params": {"design": "a"}}
        )
        assert not rejected["ok"]
        assert rejected["error"]["type"] == "TydiDrainingError"
        assert rejected["error"]["stage"] == "server"

        # Operators can still watch the drain.
        assert service.handle_sync({"id": 2, "method": "ping"})["ok"]
        stats = service.handle_sync({"id": 3, "method": "stats"})
        assert stats["ok"]
        assert stats["result"]["server"]["draining"] is True


# -- the shutdown race (PR-5 regression) ---------------------------------------


def _slow_files() -> dict[str, str]:
    sources = build_chain_design(12)
    padded = {}
    for index, (text, filename) in enumerate(sources):
        pad = "\n".join(f"const pad_{index}_{i} = {i} * 3 + 1;" for i in range(80))
        padded[filename] = text + pad + "\n"
    return padded


@pytest.mark.parametrize("workers", [0, 2])
def test_shutdown_never_drops_inflight_responses(workers):
    # PR-5's transport force-closed connections on shutdown: a compile
    # still in flight lost its response.  The drain path must hold the
    # socket open until every accepted request has answered.
    service = CompileService(workers=workers) if workers else CompileService(jobs=2)
    with ServerThread(service) as server:
        outcome: dict[str, object] = {}

        def slow_query():
            try:
                with CompileClient(*server.address, connect_retry_for=5) as client:
                    client.open_design("slow", files=_slow_files())
                    outcome["ir"] = client.get_ir("slow")
            except Exception as exc:  # pragma: no cover - the regression
                outcome["error"] = exc

        worker_thread = threading.Thread(target=slow_query)
        worker_thread.start()
        time.sleep(0.05)  # let the compile get in flight
        with CompileClient(*server.address, connect_retry_for=5) as client:
            reply = client.shutdown()
        worker_thread.join(timeout=60)

    assert reply["stopping"] is True
    assert reply["drained"] is True
    assert "error" not in outcome, f"in-flight response dropped: {outcome.get('error')!r}"
    assert "Stream" in outcome["ir"] or "ir" in outcome


def test_concurrent_shutdowns_share_one_drain():
    with CompileService(jobs=2) as service:
        with ServerThread(service) as server:
            replies = []
            # Every client completes a round trip before any asks to stop, so
            # none can still be connecting when the first shutdown closes the
            # listener.
            connected = threading.Barrier(3, timeout=30)

            def send_shutdown():
                with CompileClient(*server.address, connect_retry_for=5) as client:
                    client.ping()
                    connected.wait()
                    replies.append(client.shutdown())

            threads = [threading.Thread(target=send_shutdown) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    assert len(replies) == 3
    assert all(reply["stopping"] for reply in replies)
    assert all(reply["drained"] for reply in replies)


# -- pipelined batches ---------------------------------------------------------


def test_request_batch_pipelines_and_reorders_by_id():
    with CompileService(workers=2) as service:
        with ServerThread(service) as server:
            with CompileClient(*server.address, connect_retry_for=5) as client:
                batch = [
                    ("open_design", {"design": "alpha", "files": _files(3)}),
                    ("open_design", {"design": "beta", "files": _files(4)}),
                ]
                opened = client.request_batch(batch)
                assert all(envelope["ok"] for envelope in opened)

                envelopes = client.request_batch(
                    [
                        ("get_ir", {"design": "alpha"}),
                        ("get_ir", {"design": "beta"}),
                        ("ping", {}),
                        ("get_ir", {"design": "missing"}),
                    ]
                )
                # Request order is restored regardless of completion order.
                assert envelopes[0]["ok"] and envelopes[0]["result"]["design"] == "alpha"
                assert envelopes[1]["ok"] and envelopes[1]["result"]["design"] == "beta"
                assert envelopes[2]["ok"] and "methods" in envelopes[2]["result"]
                assert not envelopes[3]["ok"]
                assert envelopes[3]["error"]["stage"] == "workspace"

                # The sync primitive still works on the same connection.
                assert client.ping()["workers"] == 2
                client.shutdown()


# -- stats aggregation and labels ----------------------------------------------


def test_pool_stats_aggregate_worker_workspaces():
    with CompileService(workers=2) as service:
        for index in range(4):
            envelope = service.handle_sync(
                {
                    "id": index + 1,
                    "method": "open_design",
                    "params": {"design": f"design_{index}", "files": _files(2)},
                }
            )
            assert envelope["ok"]
        service.handle_sync({"id": 9, "method": "get_ir", "params": {"design": "design_0"}})

        stats = service.handle_sync({"id": 10, "method": "stats"})["result"]
        # The aggregated workspace view keeps the single-process shape.
        assert stats["workspace"]["designs"]["total"] == 4
        assert stats["workspace"]["designs"]["fresh"] >= 1
        assert stats["server"]["workers"] == 2
        assert stats["server"]["latency"]["get_ir"]["latency"]["count"] == 1
        assert stats["server"]["latency"]["get_ir"]["ok"] == 1

        per_worker = stats["pool"]["per_worker"]
        assert [entry["worker"] for entry in per_worker] == [0, 1]
        assert sum(entry["designs"] for entry in per_worker) == 4
        labels = {entry["workspace"]["label"] for entry in per_worker}
        assert labels == {"worker-0", "worker-1"}

        report = service.handle_sync({"id": 11, "method": "get_report"})["result"]
        assert set(report["designs"]) == {f"design_{i}" for i in range(4)}


def test_stats_of_stopped_workers_share_one_deadline():
    with WorkerPool(2) as pool:
        assert all(entry["workspace"] for entry in pool.stats(timeout=30)["per_worker"])
        pids = [worker.proc.pid for worker in pool.workers]
        for pid in pids:
            os.kill(pid, signal.SIGSTOP)
        try:
            started = time.monotonic()
            stats = pool.stats(timeout=0.5)
            elapsed = time.monotonic() - started
        finally:
            for pid in pids:
                os.kill(pid, signal.SIGCONT)
        # One 0.5 s deadline for both workers, not 0.5 s each.
        assert elapsed < 0.9, elapsed
        assert [entry["workspace"] for entry in stats["per_worker"]] == [None, None]

        # Resumed, the pool answers normally.
        assert pool.submit("open_design", {"design": "alpha", "files": _files(2)}).result(30)[0]
        assert all(entry["workspace"] for entry in pool.stats(timeout=30)["per_worker"])


def test_pool_mode_rejects_explicit_workspace():
    from repro.workspace import Workspace

    with pytest.raises(ValueError):
        CompileService(workspace=Workspace(), workers=2)
