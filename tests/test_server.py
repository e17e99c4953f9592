"""Tests of the compile service (:mod:`repro.server`).

Three layers, mirroring the subsystem's structure:

* protocol: envelope parsing/encoding and the structured error objects,
* service: :meth:`CompileService.handle_sync` driven directly (no sockets),
* transport: a live :class:`ServerThread` driven through
  :class:`CompileClient` (NDJSON) and :func:`http_post` (HTTP/1.1).
"""

from __future__ import annotations

import asyncio
import json
import socket
import time

import pytest

from repro.errors import TydiServerError
from repro.lang.compile import compile_sources
from repro.server import (
    CompileClient,
    CompileService,
    PROTOCOL_VERSION,
    RemoteCompileError,
    ServerThread,
    http_post,
)
from repro.server import protocol, transport

GOOD_SOURCE = (
    "type link_t = Stream(Bit(8));\n"
    "streamlet pass_s { i: link_t in, o: link_t out, }\n"
    "external impl pass_i of pass_s;\n"
    "top pass_i;\n"
)

BROKEN_SOURCE = "type ?! = Stream(;\n"


class TestProtocol:
    def test_parse_request_roundtrip(self):
        request_id, method, params = protocol.parse_request(
            {"id": 3, "method": "get_ir", "params": {"design": "d"}}
        )
        assert (request_id, method, params) == (3, "get_ir", {"design": "d"})

    def test_params_default_to_empty(self):
        assert protocol.parse_request({"method": "ping"}) == (None, "ping", {})

    @pytest.mark.parametrize(
        "message",
        [None, 7, [], {"params": {}}, {"method": 3}, {"method": ""}, {"method": "x", "params": 1}],
    )
    def test_malformed_requests_are_server_errors(self, message):
        with pytest.raises(TydiServerError):
            protocol.parse_request(message)

    def test_encode_tydi_error_carries_stage(self):
        from repro.errors import TydiSyntaxError

        error = protocol.encode_error(TydiSyntaxError("bad token"))
        assert error["type"] == "TydiSyntaxError"
        assert error["stage"] == "parse"
        assert error["message"] == "bad token"

    @pytest.mark.parametrize(
        "text, column", [("const x = 1\u00b2;", 11), ("\u00b2", 1), ("const y = 1.5e\u00b2;", 11)]
    )
    def test_encode_unreadable_number_literal_is_a_parse_error(self, text, column):
        from repro.errors import TydiError
        from repro.lang.compile import compile_sources

        with pytest.raises(TydiError) as raised:
            compile_sources([(text, "d.td")])
        error = protocol.encode_error(raised.value)
        assert error["type"] == "TydiSyntaxError"
        assert error["stage"] == "parse"
        assert error["span"] == f"d.td:1:{column}"
        assert error["rendered"] == f"d.td:1:{column}: {error['message']}"

    def test_encode_plain_exception_is_internal(self):
        error = protocol.encode_error(RuntimeError("boom"))
        assert error["stage"] == "internal"
        assert error["type"] == "RuntimeError"

    def test_remote_error_preserves_identity(self):
        exc = RemoteCompileError(
            {"type": "TydiDRCError", "stage": "drc", "rendered": "x.td:1:2: bad"}
        )
        assert exc.remote_type == "TydiDRCError"
        assert exc.remote_stage == "drc"
        assert exc.stage == "drc"
        assert "x.td:1:2" in str(exc)


@pytest.fixture
def service():
    service = CompileService(jobs=2)
    yield service
    service.close()


def call(service: CompileService, method: str, **params):
    message = {"id": 1, "method": method}
    if params:
        message["params"] = params
    return service.handle_sync(message)


class TestService:
    def test_ping_reports_protocol_and_methods(self, service):
        envelope = call(service, "ping")
        assert envelope["ok"] and envelope["id"] == 1
        assert envelope["result"]["protocol"] == PROTOCOL_VERSION
        assert "get_ir" in envelope["result"]["methods"]

    def test_open_then_query(self, service):
        opened = call(service, "open_design", design="d", files={"d.td": GOOD_SOURCE})
        assert opened["ok"]
        assert opened["result"]["files"] == ["d.td"]
        ir = call(service, "get_ir", design="d")
        assert ir["ok"]
        reference = compile_sources([(GOOD_SOURCE, "d.td")], cache=None)
        assert ir["result"]["ir"] == reference.ir_text()
        assert ir["result"]["fingerprint"] == opened["result"]["fingerprint"]

    def test_update_file_moves_fingerprint(self, service):
        opened = call(service, "open_design", design="d", files={"d.td": GOOD_SOURCE})
        call(service, "get_ir", design="d")
        updated = call(
            service, "update_file", design="d", filename="d.td",
            text=GOOD_SOURCE.replace("Bit(8)", "Bit(16)"),
        )
        assert updated["ok"]
        assert updated["result"]["fingerprint"] != opened["result"]["fingerprint"]
        assert updated["result"]["fresh"] is False
        assert "Bit(16)" in call(service, "get_ir", design="d")["result"]["ir"]

    def test_identical_update_keeps_design_fresh(self, service):
        call(service, "open_design", design="d", files={"d.td": GOOD_SOURCE})
        call(service, "get_ir", design="d")
        updated = call(service, "update_file", design="d", filename="d.td", text=GOOD_SOURCE)
        assert updated["result"]["fresh"] is True

    def test_compile_failure_is_structured_envelope(self, service):
        call(service, "open_design", design="broken", files={"x.td": BROKEN_SOURCE})
        envelope = call(service, "get_ir", design="broken")
        assert not envelope["ok"]
        assert envelope["error"]["type"] == "TydiSyntaxError"
        assert envelope["error"]["stage"] == "parse"
        assert envelope["id"] == 1

    def test_unknown_design_is_workspace_error(self, service):
        envelope = call(service, "get_ir", design="nope")
        assert not envelope["ok"]
        assert envelope["error"]["type"] == "TydiWorkspaceError"

    def test_unknown_method_suggests(self, service):
        envelope = call(service, "get_irr")
        assert not envelope["ok"]
        assert envelope["error"]["stage"] == "server"
        assert "get_ir" in envelope["error"]["message"]

    def test_unknown_parameter_suggests(self, service):
        envelope = call(service, "get_ir", desing="d")
        assert not envelope["ok"]
        assert "design" in envelope["error"]["message"]

    def test_missing_parameter(self, service):
        envelope = call(service, "update_file", design="d")
        assert not envelope["ok"]
        assert "filename" in envelope["error"]["message"]

    def test_malformed_envelope_recovers_id(self, service):
        envelope = service.handle_sync({"id": 9, "params": {}})
        assert not envelope["ok"]
        assert envelope["id"] == 9
        assert envelope["error"]["stage"] == "server"

    def test_options_ride_through(self, service):
        call(
            service,
            "open_design",
            design="d",
            files={"d.td": GOOD_SOURCE},
            options={
                "targets": ["dot"],
                "backend_options": {"dot": {"rankdir": "TB"}},
                "project_name": "served",
            },
        )
        outputs = call(service, "get_outputs", design="d", target="dot")
        assert outputs["ok"]
        (text,) = outputs["result"]["files"].values()
        assert 'rankdir="TB"' in text

    def test_lazy_backend_outputs(self, service):
        call(service, "open_design", design="d", files={"d.td": GOOD_SOURCE})
        outputs = call(service, "get_outputs", design="d", target="vhdl")
        assert outputs["ok"] and outputs["result"]["files"]

    def test_get_diagnostics(self, service):
        call(service, "open_design", design="d", files={"d.td": GOOD_SOURCE})
        envelope = call(service, "get_diagnostics", design="d")
        assert envelope["ok"]
        for diag in envelope["result"]["diagnostics"]:
            assert {"severity", "stage", "message", "span"} <= set(diag)

    def test_report_and_stats(self, service):
        call(service, "open_design", design="d", files={"d.td": GOOD_SOURCE})
        call(service, "get_ir", design="d")
        report = call(service, "get_report")["result"]
        assert report["designs"]["d"]["status"] == "fresh"
        stats = call(service, "stats")["result"]
        assert stats["workspace"]["designs"]["fresh"] == 1
        assert stats["server"]["requests"] >= 3
        assert stats["server"]["methods"]["get_ir"] == 1

    def test_remove_file_and_design(self, service):
        call(
            service, "open_design", design="d",
            files={"d.td": GOOD_SOURCE, "extra.td": "const x = 1;\n"},
        )
        removed = call(service, "remove_file", design="d", filename="extra.td")
        assert removed["ok"]
        gone = call(service, "remove_design", design="d")
        assert gone["ok"] and gone["result"]["removed"]
        assert not call(service, "get_ir", design="d")["ok"]

    def test_list_backends(self, service):
        backends = call(service, "list_backends")["result"]["backends"]
        by_name = {b["name"]: b for b in backends}
        assert {"vhdl", "verilog", "ir", "tydi-ir", "dot"} <= set(by_name)
        # The option schemas ride along for remote --backend-opt tooling.
        dot_options = {o["name"]: o for o in by_name["dot"]["options"]}
        assert dot_options["rankdir"]["default"] == "LR"
        assert by_name["tydi-ir"]["options"] == []

    def test_shutdown_sets_event(self, service):
        envelope = call(service, "shutdown")
        assert envelope["ok"] and envelope["result"]["stopping"]
        assert service.shutdown_requested.is_set()

    def test_errors_count_in_stats(self, service):
        call(service, "get_ir", design="nope")
        stats = call(service, "stats")["result"]["server"]
        assert stats["errors"] >= 1

    def test_service_rejects_conflicting_wiring(self):
        from repro.workspace import Workspace

        with pytest.raises(ValueError):
            CompileService(Workspace(cache=None), cache_dir="somewhere")

    def test_service_shares_cache_dir_with_cli_sessions(self, tmp_path, disk_rows):
        service = CompileService(cache_dir=tmp_path / "cache", jobs=1)
        try:
            call(service, "open_design", design="d", files={"d.td": GOOD_SOURCE})
            assert call(service, "get_ir", design="d")["ok"]
            assert disk_rows(tmp_path / "cache").keys("eval")
        finally:
            service.close()


class TestTransport:
    def test_full_session_over_tcp(self):
        with ServerThread() as server:
            with CompileClient(*server.address) as client:
                assert client.ping()["protocol"] == PROTOCOL_VERSION
                client.open_design("d", files={"d.td": GOOD_SOURCE})
                reference = compile_sources([(GOOD_SOURCE, "d.td")], cache=None)
                assert client.get_ir("d") == reference.ir_text()
                assert client.get_outputs("d", "ir")
                assert client.get_diagnostics("d") == []
                assert client.get_report()["designs"]["d"]["status"] == "fresh"
                assert client.stats()["server"]["requests"] >= 5
                client.shutdown()

    def test_remote_compile_error_raises(self):
        with ServerThread() as server:
            with CompileClient(*server.address) as client:
                client.open_design("broken", files={"x.td": BROKEN_SOURCE})
                with pytest.raises(RemoteCompileError) as excinfo:
                    client.get_ir("broken")
                assert excinfo.value.remote_type == "TydiSyntaxError"
                assert excinfo.value.remote_stage == "parse"

    def test_error_envelope_matches_oneshot_error(self):
        """The served error is the same error one-shot compilation raises."""
        from repro.errors import TydiError

        with pytest.raises(TydiError) as oneshot:
            compile_sources([(BROKEN_SOURCE, "x.td")], cache=None)
        with ServerThread() as server:
            with CompileClient(*server.address) as client:
                client.open_design("broken", files={"x.td": BROKEN_SOURCE})
                with pytest.raises(RemoteCompileError) as served:
                    client.get_ir("broken")
        assert served.value.remote_type == type(oneshot.value).__name__
        assert served.value.envelope["rendered"] == oneshot.value.render()

    def test_many_requests_one_connection(self):
        with ServerThread() as server:
            with CompileClient(*server.address) as client:
                client.open_design("d", files={"d.td": GOOD_SOURCE})
                first = client.get_ir("d")
                for _ in range(10):
                    assert client.get_ir("d") == first

    def test_malformed_json_line_gets_error_envelope(self):
        with ServerThread() as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=10) as sock:
                handle = sock.makefile("rwb")
                handle.write(b"this is not json\n")
                handle.flush()
                envelope = json.loads(handle.readline())
        assert not envelope["ok"]
        assert envelope["error"]["stage"] == "server"
        assert envelope["id"] is None

    def test_every_malformed_request_counts_in_stats(self):
        """A line or body that is not JSON (too deeply nested to decode,
        too) counts like any other request that names no method: under
        ``<unknown>``, over NDJSON and HTTP."""
        lines = (b"{not json", b"[" * 100_000, b"[1, 2]", b'{"id": 3, "method": "bogus"}')
        with ServerThread() as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=10) as sock:
                handle = sock.makefile("rwb")
                for line in lines:
                    handle.write(line + b"\n")
                    handle.flush()
                    assert not json.loads(handle.readline())["ok"]
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n{not json")
                assert sock.makefile("rb").readline().startswith(b"HTTP/1.1 400")
            with CompileClient(host, port) as client:
                stats = client.stats()["server"]
        assert (stats["requests"], stats["errors"]) == (5, 5)
        assert stats["methods"] == {"<unknown>": 5}
        assert stats["latency"]["<unknown>"]["errors"] == 5

    def test_each_request_line_makes_at_most_one_task(self, monkeypatch):
        """The read loop awaits each line itself: the only task a request
        line makes is the one that answers it."""
        created = [0]

        def counting(loop, coro, **kwargs):
            created[0] += 1
            return asyncio.Task(coro, loop=loop, **kwargs)

        serve = transport.serve

        async def counted(*args, **kwargs):
            asyncio.get_running_loop().set_task_factory(counting)
            await serve(*args, **kwargs)

        monkeypatch.setattr(transport, "serve", counted)
        with ServerThread() as server:
            with CompileClient(*server.address) as client:
                client.open_design("d", files={"d.td": GOOD_SOURCE})
                client.get_ir("d")  # the miss that fills the memo
                before = created[0]
                for _ in range(100):
                    client.get_ir("d")
                for _ in range(100):
                    client.ping()
                tasks = created[0] - before
                memo = client.stats()["server"]["read_memo"]
        assert memo["hits"] == 100
        assert tasks <= 200, f"{tasks / 200:.2f} tasks per request line"

    def test_http_post_ping(self):
        with ServerThread() as server:
            envelope = http_post(*server.address, {"id": 4, "method": "ping"})
        assert envelope["ok"] and envelope["id"] == 4
        assert envelope["result"]["protocol"] == PROTOCOL_VERSION

    def test_http_post_compile(self):
        with ServerThread() as server:
            host, port = server.address
            opened = http_post(
                host, port,
                {"method": "open_design",
                 "params": {"design": "d", "files": {"d.td": GOOD_SOURCE}}},
            )
            assert opened["ok"]
            ir = http_post(host, port, {"method": "get_ir", "params": {"design": "d"}})
        reference = compile_sources([(GOOD_SOURCE, "d.td")], cache=None)
        assert ir["result"]["ir"] == reference.ir_text()

    def test_http_get_is_rejected(self):
        with ServerThread() as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
                raw = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    raw += chunk
        assert raw.startswith(b"HTTP/1.1 405")
        envelope = json.loads(raw.partition(b"\r\n\r\n")[2])
        assert not envelope["ok"]

    def test_shutdown_stops_server_thread(self):
        server = ServerThread().start()
        with CompileClient(*server.address) as client:
            client.shutdown()
        server.stop(timeout=10)  # raises if the thread hangs

    def test_connect_to_dead_server_is_clean_error(self):
        with ServerThread() as probe:
            address = probe.address
        client = CompileClient(*address, timeout=2)
        with pytest.raises(TydiServerError):
            client.ping()

    def test_shutdown_completes_with_an_idle_connection_open(self):
        """An idle client parked in a read must not hold shutdown hostage
        (Python 3.12+ wait_closed() waits for every connection handler)."""
        server = ServerThread().start()
        idle = CompileClient(*server.address).connect()  # never sends anything
        try:
            start = time.perf_counter()
            with CompileClient(*server.address) as client:
                client.shutdown()
            server.stop(timeout=15)  # raises if the idle connection wedges it
            assert time.perf_counter() - start < 1.0
        finally:
            idle.close()

    def test_shutdown_completes_with_a_stalled_http_body(self, caplog):
        """HTTP clients stalled mid-body or mid-headers are woken at close
        like an idle NDJSON one: they neither hold shutdown up nor leave a
        traceback, and the requests they never finished get no answer."""
        server = ServerThread().start()
        stalled = [socket.create_connection(server.address, timeout=10) for _ in range(2)]
        try:
            stalled[0].sendall(b"POST / HTTP/1.1\r\nContent-Length: 20\r\n\r\n{")
            stalled[1].sendall(b"POST / HTTP/1.1\r\nHost: tydi\r\n")
            time.sleep(0.2)  # let the server reach the body and header reads
            start = time.perf_counter()
            with CompileClient(*server.address) as client:
                client.shutdown()
            server.stop(timeout=15)
            assert time.perf_counter() - start < 1.0
            assert [sock.recv(4096) for sock in stalled] == [b"", b""]
        finally:
            for sock in stalled:
                sock.close()
        assert server.service.stats()["server"]["methods"] == {"shutdown": 1}
        assert not [record for record in caplog.records if record.exc_info], caplog.text

    def test_request_racing_the_close_is_answered(self, monkeypatch):
        """A client whose request arrives just after the server began
        closing still gets its reply instead of a closed connection."""
        # A linger no scheduling delay between the close and the request
        # can outlast; connections that hang up end theirs at once.
        monkeypatch.setattr(transport, "CLOSE_LINGER_S", 30.0)
        with ServerThread() as server:
            with CompileClient(*server.address) as late:
                late.ping()
                with CompileClient(*server.address) as first:
                    first.shutdown()
                # The listener closes once the server is closing.  A probe
                # that reaches it mid-close is reset instead of refused.
                deadline = time.monotonic() + 10
                while True:
                    try:
                        socket.create_connection(server.address, timeout=1).close()
                    except (ConnectionRefusedError, ConnectionResetError):
                        break
                    assert time.monotonic() < deadline, "the server never closed"
                    time.sleep(0.005)
                assert late.shutdown() == {"stopping": True, "drained": True}

    def test_unknown_methods_are_bucketed_in_stats(self):
        service = CompileService(jobs=1)
        try:
            for index in range(5):
                service.handle_sync({"method": f"bogus_{index}"})
            stats = service.handle_sync({"method": "stats"})["result"]["server"]
            assert stats["methods"]["<unknown>"] == 5
            assert not any(key.startswith("bogus_") for key in stats["methods"])
        finally:
            service.close()

    def test_two_clients_share_the_warm_workspace(self):
        with ServerThread() as server:
            with CompileClient(*server.address) as one:
                one.open_design("d", files={"d.td": GOOD_SOURCE})
                ir = one.get_ir("d")
            with CompileClient(*server.address) as two:
                assert two.get_ir("d") == ir
                stats = two.stats()
        assert stats["workspace"]["designs"]["fresh"] == 1
