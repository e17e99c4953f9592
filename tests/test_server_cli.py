"""Tests of the ``tydi-serve`` CLI (:mod:`repro.server.cli`).

``serve`` is driven for real on a background thread (the same daemon code
path CI's smoke job exercises), ``request``/``shutdown`` against live
servers, and the parameter plumbing (``--param`` JSON coercion,
``--json`` merging, ``--file`` attachment) as units.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.server import CompileClient, ServerThread
from repro.server.cli import _collect_params, _parse_param_value, build_arg_parser, main

GOOD_SOURCE = (
    "type link_t = Stream(Bit(8));\n"
    "streamlet pass_s { i: link_t in, o: link_t out, }\n"
    "external impl pass_i of pass_s;\n"
    "top pass_i;\n"
)


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestServeCommand:
    def test_serve_until_shutdown_request(self, tmp_path, disk_rows):
        port = _free_port()
        exit_codes: list[int] = []

        def run_daemon() -> None:
            exit_codes.append(
                main(["serve", "--port", str(port), "--jobs", "1",
                      "--cache-dir", str(tmp_path / "cache")])
            )

        daemon = threading.Thread(target=run_daemon, daemon=True)
        daemon.start()
        with CompileClient(port=port, connect_retry_for=15.0) as client:
            assert client.ping()["jobs"] == 1
            client.open_design("d", files={"d.td": GOOD_SOURCE})
            assert client.get_ir("d")
        assert main(["shutdown", "--port", str(port)]) == 0
        daemon.join(timeout=30)
        assert not daemon.is_alive(), "serve did not exit after shutdown"
        assert exit_codes == [0]
        # The served session left warm on-disk artefacts behind.
        assert disk_rows(tmp_path / "cache").keys("eval")

    def test_serve_rejects_bad_cache_wiring(self, capsys):
        assert main(["serve", "--max-cache-mb", "10"]) == 1
        assert "cache_dir" in capsys.readouterr().err

    def test_serve_rejects_bad_jobs(self, capsys):
        assert main(["serve", "--jobs", "0"]) == 1


class TestRequestCommand:
    def test_request_ping_prints_envelope(self, capsys):
        with ServerThread() as server:
            host, port = server.address
            code = main(["request", "ping", "--host", host, "--port", str(port)])
        assert code == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] and envelope["result"]["protocol"] >= 1

    def test_request_open_and_query_with_files(self, tmp_path, capsys):
        source = tmp_path / "design.td"
        source.write_text(GOOD_SOURCE)
        with ServerThread() as server:
            host, port = server.address
            endpoint = ["--host", host, "--port", str(port)]
            assert main(["request", "open_design", *endpoint,
                         "--param", "design=d", "--file", str(source)]) == 0
            capsys.readouterr()
            assert main(["request", "get_ir", *endpoint, "--param", "design=d"]) == 0
            envelope = json.loads(capsys.readouterr().out)
        assert "streamlet pass_s" in envelope["result"]["ir"]

    def test_request_error_envelope_exits_nonzero(self, capsys):
        with ServerThread() as server:
            host, port = server.address
            code = main(["request", "get_ir", "--host", host, "--port", str(port),
                         "--param", "design=missing"])
        assert code == 1
        envelope = json.loads(capsys.readouterr().out)
        assert not envelope["ok"]
        assert envelope["error"]["type"] == "TydiWorkspaceError"

    def test_request_against_dead_server_fails_cleanly(self, capsys):
        port = _free_port()
        code = main(["request", "ping", "--port", str(port), "--retry-for", "0"])
        assert code == 1
        assert "cannot connect" in capsys.readouterr().err


class TestParamPlumbing:
    def _args(self, *argv: str):
        return build_arg_parser().parse_args(["request", "ping", *argv])

    def test_param_values_parse_as_json_with_string_fallback(self):
        assert _parse_param_value("true") is True
        assert _parse_param_value("3") == 3
        assert _parse_param_value('{"a": 1}') == {"a": 1}
        assert _parse_param_value("plain text") == "plain text"

    def test_json_and_param_merge(self):
        args = self._args("--json", '{"design": "d", "replace": false}',
                          "--param", "replace=true")
        assert _collect_params(args) == {"design": "d", "replace": True}

    def test_file_attaches_source(self, tmp_path):
        source = tmp_path / "x.td"
        source.write_text("const a = 1;\n")
        args = self._args("--param", "design=d", "--file", str(source))
        params = _collect_params(args)
        assert params["files"] == {str(source): "const a = 1;\n"}

    def test_bad_param_is_systemexit(self):
        with pytest.raises(SystemExit):
            _collect_params(self._args("--param", "no-equals-sign"))

    def test_bad_json_is_systemexit(self):
        with pytest.raises(SystemExit):
            _collect_params(self._args("--json", "{not json"))

    def test_missing_file_is_systemexit(self, tmp_path):
        with pytest.raises(SystemExit):
            _collect_params(self._args("--file", str(tmp_path / "absent.td")))
