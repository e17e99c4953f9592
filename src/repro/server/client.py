"""The synchronous client of the compile service.

:class:`CompileClient` speaks the NDJSON protocol of
:mod:`repro.server.transport` over one TCP connection: every call sends a
JSON request line and blocks for the matching response line.  Successful
responses return the ``result`` payload directly; error envelopes raise
:class:`~repro.server.protocol.RemoteCompileError`, which preserves the
server-side exception type and pipeline stage -- so remote callers handle
failures exactly as in-process ones do::

    with CompileClient(port=4780) as client:
        client.open_design("adder", files={"adder.td": source})
        try:
            print(client.get_ir("adder"))
        except RemoteCompileError as exc:
            print(f"[{exc.remote_stage}] {exc}")

One client instance serves one thread (requests are strictly
request/response on the shared socket); concurrent callers each open
their own -- connections are cheap and the server multiplexes them.
:meth:`CompileClient.request_batch` is the pipelined exception: it writes
a whole batch of request lines before reading any response, letting the
server overlap them (responses may return out of order; the echoed ``id``
re-pairs them), and returns the envelopes in request order.

:func:`http_post` is the one-shot HTTP sibling used for interop tests and
quick probes (``curl`` works too).
"""

from __future__ import annotations

import json
import socket
import time
from collections import deque
from typing import Any, Mapping, Optional

from repro.errors import TydiServerError
from repro.server.protocol import MAX_MESSAGE_BYTES, RemoteCompileError


class CompileClient:
    """A blocking NDJSON connection to one ``tydi-serve`` daemon."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 4780,
        *,
        timeout: float = 60.0,
        connect_retry_for: float = 0.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: Keep retrying a refused connect for this many seconds -- covers
        #: the race against a server still binding (CI smoke, ServerThread).
        self.connect_retry_for = connect_retry_for
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._next_id = 0
        #: Event frames (``watch_design`` pushes) read while waiting for a
        #: response; drained by :meth:`next_event` in arrival order.
        self._events: deque[dict[str, Any]] = deque()

    # -- connection lifecycle --------------------------------------------------

    def connect(self) -> "CompileClient":
        if self._sock is not None:
            return self
        deadline = time.monotonic() + self.connect_retry_for
        while True:
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
                break
            except OSError as exc:
                if time.monotonic() >= deadline:
                    raise TydiServerError(
                        f"cannot connect to tydi-serve at {self.host}:{self.port}: {exc}"
                    ) from exc
                time.sleep(0.05)
        self._file = self._sock.makefile("rwb")
        return self

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "CompileClient":
        return self.connect()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the request primitive -------------------------------------------------

    def request(self, method: str, **params: Any) -> dict[str, Any]:
        """Send one request, block for its response, unwrap the envelope."""
        envelope = self.request_envelope(method, params)
        if envelope.get("ok"):
            result = envelope.get("result")
            if not isinstance(result, dict):
                raise TydiServerError(
                    f"{method}: server returned a {type(result).__name__} result "
                    f"payload, not an object (protocol mismatch?)"
                )
            return result
        raise RemoteCompileError(envelope.get("error") or {})

    def request_envelope(self, method: str, params: Mapping[str, Any]) -> dict[str, Any]:
        """Send one request and return the raw response envelope."""
        self.connect()
        request_id, payload = self._encode(method, params)
        try:
            self._file.write(payload)
            self._file.flush()
            while True:
                envelope = self._read_envelope()
                # Watch events may interleave with the response on a
                # watching connection; buffer them for next_event().
                if isinstance(envelope, dict) and "event" in envelope:
                    self._events.append(envelope)
                    continue
                break
        except OSError as exc:
            self.close()
            raise TydiServerError(
                f"connection to {self.host}:{self.port} failed mid-request: {exc}"
            ) from exc
        if isinstance(envelope, dict) and envelope.get("id") not in (None, request_id):
            self.close()
            raise TydiServerError(
                f"response id {envelope.get('id')!r} does not match request {request_id}"
            )
        return envelope if isinstance(envelope, dict) else {"ok": False, "error": {}}

    def _encode(self, method: str, params: Mapping[str, Any]) -> tuple[int, bytes]:
        """The next request id and its request line, checked against the bound."""
        self._next_id += 1
        message: dict[str, Any] = {"id": self._next_id, "method": method}
        if params:
            message["params"] = dict(params)
        payload = json.dumps(message, separators=(",", ":")).encode() + b"\n"
        if len(payload) > MAX_MESSAGE_BYTES:
            raise TydiServerError(f"request of {len(payload)} bytes exceeds the protocol bound")
        return self._next_id, payload

    def _read_envelope(self) -> Any:
        """Read and decode one NDJSON frame (response or event)."""
        line = self._file.readline(MAX_MESSAGE_BYTES)
        if not line:
            self.close()
            raise TydiServerError(
                f"server at {self.host}:{self.port} closed the connection"
            )
        if len(line) >= MAX_MESSAGE_BYTES and not line.endswith(b"\n"):
            self.close()
            raise TydiServerError(
                f"response exceeds the protocol bound of {MAX_MESSAGE_BYTES} bytes"
            )
        try:
            return json.loads(line)
        except ValueError as exc:
            self.close()
            raise TydiServerError(f"unreadable response from server: {exc}") from exc

    def request_batch(
        self, requests: "list[tuple[str, Mapping[str, Any]]]"
    ) -> list[dict[str, Any]]:
        """Pipeline a batch of requests on this connection.

        All request lines are written before any response is read, so the
        server works on them concurrently (a multi-worker server spreads
        them across shards).  Responses arrive in *completion* order; the
        echoed ``id`` re-pairs them, and the returned envelopes are in
        the original request order.  No envelope is unwrapped -- callers
        inspect ``ok`` per entry, since a batch can mix successes and
        failures.
        """
        self.connect()
        ids: list[int] = []
        lines: list[bytes] = []
        for method, params in requests:
            request_id, payload = self._encode(method, params)
            ids.append(request_id)
            lines.append(payload)
        if not ids:
            return []
        by_id: dict[Any, dict[str, Any]] = {}
        try:
            self._file.write(b"".join(lines))
            self._file.flush()
            while len(by_id) < len(ids):
                envelope = self._read_envelope()
                if not isinstance(envelope, dict):
                    raise TydiServerError("batch response line is not a JSON object")
                if "event" in envelope:
                    self._events.append(envelope)
                    continue
                by_id[envelope.get("id")] = envelope
        except (OSError, TydiServerError):
            self.close()
            raise
        missing = [request_id for request_id in ids if request_id not in by_id]
        if missing:
            self.close()
            raise TydiServerError(
                f"batch responses missing for request id(s) {missing} "
                f"(got ids {sorted(k for k in by_id if k is not None)!r})"
            )
        return [by_id[request_id] for request_id in ids]

    # -- convenience methods (one per service method) --------------------------

    def ping(self) -> dict[str, Any]:
        return self.request("ping")

    def open_design(
        self,
        design: str,
        *,
        files: Mapping[str, str] | list | None = None,
        options: Optional[Mapping[str, Any]] = None,
        replace: bool = True,
    ) -> dict[str, Any]:
        params: dict[str, Any] = {"design": design, "replace": replace}
        if files is not None:
            params["files"] = files
        if options is not None:
            params["options"] = dict(options)
        return self.request("open_design", **params)

    def open_ir_design(
        self,
        design: str,
        text: str,
        *,
        options: Optional[Mapping[str, Any]] = None,
        replace: bool = True,
    ) -> dict[str, Any]:
        """Open a design from one Tydi-IR interchange document (``.tir``)."""
        params: dict[str, Any] = {"design": design, "text": text, "replace": replace}
        if options is not None:
            params["options"] = dict(options)
        return self.request("open_ir_design", **params)

    def update_file(self, design: str, filename: str, text: str) -> dict[str, Any]:
        return self.request("update_file", design=design, filename=filename, text=text)

    def remove_file(self, design: str, filename: str) -> dict[str, Any]:
        return self.request("remove_file", design=design, filename=filename)

    def remove_design(self, design: str) -> dict[str, Any]:
        return self.request("remove_design", design=design)

    def get_ir(self, design: str) -> str:
        return self.request("get_ir", design=design)["ir"]

    def get_outputs(self, design: str, target: str) -> dict[str, str]:
        return self.request("get_outputs", design=design, target=target)["files"]

    def get_diagnostics(self, design: str) -> list[dict[str, Any]]:
        return self.request("get_diagnostics", design=design)["diagnostics"]

    def simulate_design(
        self, design: str, plan: Optional[Mapping[str, Any]] = None
    ) -> dict[str, Any]:
        """Simulate one design; returns ``{design, fingerprint, report}``.

        ``plan`` is the wire form of a
        :class:`~repro.sim.harness.SimulationPlan` (any object with an
        ``as_dict()`` also works); ``None`` runs the default plan.
        """
        params: dict[str, Any] = {"design": design}
        if plan is not None:
            params["plan"] = dict(plan.as_dict() if hasattr(plan, "as_dict") else plan)
        return self.request("simulate_design", **params)

    def watch_design(
        self, design: str, plan: Optional[Mapping[str, Any]] = None
    ) -> dict[str, Any]:
        """Subscribe this connection to a design's update notifications.

        After each successful ``update_file`` on the design the server
        pushes an event frame (``{"event": "design_update", ...}``) with
        fresh diagnostics and -- when it changed -- the simulation report
        for ``plan``.  Read events with :meth:`next_event`.
        """
        params: dict[str, Any] = {"design": design}
        if plan is not None:
            params["plan"] = dict(plan.as_dict() if hasattr(plan, "as_dict") else plan)
        return self.request("watch_design", **params)

    def next_event(self, timeout: Optional[float] = None) -> Optional[dict[str, Any]]:
        """The next pushed event frame, or ``None`` after ``timeout``.

        Events buffered while pairing earlier responses are returned
        first; otherwise blocks reading the socket for up to ``timeout``
        seconds (``None``: the client's default timeout).
        """
        if self._events:
            return self._events.popleft()
        self.connect()
        previous = self._sock.gettimeout()
        self._sock.settimeout(timeout if timeout is not None else self.timeout)
        try:
            envelope = self._read_envelope()
        except TimeoutError:
            return None
        except OSError as exc:
            self.close()
            raise TydiServerError(
                f"connection to {self.host}:{self.port} failed reading events: {exc}"
            ) from exc
        finally:
            if self._sock is not None:
                self._sock.settimeout(previous)
        if isinstance(envelope, dict) and "event" in envelope:
            return envelope
        self.close()
        raise TydiServerError(
            "received a response frame while waiting for events "
            "(concurrent requests on a watching connection?)"
        )

    def get_report(self) -> dict[str, Any]:
        return self.request("get_report")

    def list_backends(self) -> list[dict[str, str]]:
        return self.request("list_backends")["backends"]

    def stats(self) -> dict[str, Any]:
        return self.request("stats")

    def shutdown(self) -> dict[str, Any]:
        return self.request("shutdown")


def http_post(
    host: str,
    port: int,
    message: Mapping[str, Any],
    *,
    timeout: float = 30.0,
    path: str = "/",
) -> dict[str, Any]:
    """POST one request document over HTTP/1.1 and return the envelope.

    The stdlib-only sibling of the NDJSON client for the HTTP front; the
    HTTP status is folded into the envelope (protocol violations are 4xx,
    but the envelope already says so via ``stage: "server"``).
    """
    body = json.dumps(dict(message)).encode()
    request = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    ).encode("latin-1") + body
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head, _, payload = raw.partition(b"\r\n\r\n")
    if not payload:
        raise TydiServerError("HTTP response carried no body")
    try:
        envelope = json.loads(payload)
    except ValueError as exc:
        raise TydiServerError(f"unreadable HTTP response body: {exc}") from exc
    if not isinstance(envelope, dict):
        raise TydiServerError("HTTP response body is not a JSON object")
    return envelope
