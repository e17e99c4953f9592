"""The compile service's response bytes, checked against an independent encoder.

A read the memo holds is not encoded again: the service splices the request
id into the JSON bytes the read was first sent as
(:func:`repro.server.protocol.success_line`).  The oracle here is
``json.dumps`` of the whole envelope.  For request ids of every JSON type --
ints past 64 bits, negatives, floats, ``null``, booleans, strings with
non-ASCII characters, quotes, backslashes and control characters, nested
lists and objects -- and for every read method and target of a design whose
name and sources carry non-ASCII text, the line a memo hit sends must equal
the line its miss sent for the same id, and both must equal
``json.dumps({"id": id, "ok": True, "result": result}, separators=(",", ":"))``
plus a newline, with ``result`` decoded from the miss.

The test writes raw NDJSON lines to a live server and reads raw lines back,
so no client code sits between it and the wire.  It runs against
``workers=0`` and, where fork is available, ``workers=2``.
"""

from __future__ import annotations

import json
import socket

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.backends import available_backends
from repro.server import CompileService, ServerThread
from repro.server.pool import fork_available

READS = (("get_ir", None), ("get_diagnostics", None)) + tuple(
    ("get_outputs", target) for target in available_backends()
)

#: The design's name is echoed in every read's result, so non-ASCII text,
#: quotes and backslashes reach the stored bytes as well as the ids.
DESIGN = 'écho "日本" \\ ✓'
FILES = {
    "écho.td": (
        "// Entrée : un flux d'octets, 日本語のコメント ✓ \"quoted\" \\ backslash\n"
        "type byte_t = Stream(Bit(8), d=1);\n"
        "/* Größe: 8 bits ☃ */\n"
        "streamlet echo_s { i: byte_t in, o: byte_t out, }\n"
        "impl echo_i of echo_s { i => o, }\n"
        "top echo_i;\n"
    )
}

AWKWARD_TEXT = ('"', "\\", '\\"', "\x00\x01\x1f\x7f", "\n\r\t", "é", "日本", " ", "😀", "")
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63, max_value=2**100)
    | st.integers(min_value=-(2**100), max_value=-1)
    | st.floats()
    | st.text()
    | st.sampled_from(AWKWARD_TEXT)
)
request_ids = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4) | st.sampled_from(AWKWARD_TEXT), children, max_size=3),
    max_leaves=6,
)


class Wire:
    """One raw NDJSON connection: a line out, a line back."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=60)
        self.handle = self.sock.makefile("rwb")

    def send(self, request_id, method: str, params: dict) -> bytes:
        message = {"id": request_id, "method": method, "params": params}
        self.handle.write(json.dumps(message).encode() + b"\n")
        self.handle.flush()
        return self.handle.readline()

    def memo(self) -> dict:
        return json.loads(self.send(0, "stats", {}))["result"]["server"]["read_memo"]

    def close(self) -> None:
        self.handle.close()
        self.sock.close()


@pytest.fixture(scope="module", params=[0, 2], ids=["workers0", "workers2"])
def wire(request):
    if request.param and not fork_available():  # pragma: no cover - non-fork platforms
        pytest.skip("worker pool requires the fork start method")
    service = CompileService(workers=request.param, jobs=2)
    with service, ServerThread(service) as server:
        connection = Wire(server.address)
        try:
            yield connection
        finally:
            connection.close()


@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(request_id=request_ids)
@example(request_id=2**64 + 1)
@example(request_id=-(2**70))
@example(request_id=-0.5e-300)
@example(request_id='é "日本" \\ \x00\n ✓')
@example(request_id=[None, True, [1.5, {"k\"\\é": ["\x1f", 2**80]}], {}])
def test_a_memo_hit_sends_the_bytes_its_miss_sent(wire, request_id):
    opened = json.loads(wire.send(1, "open_design", {"design": DESIGN, "files": FILES}))
    assert opened["ok"], opened  # a mutation: every read below misses once
    before = wire.memo()
    for method, target in READS:
        params = {"design": DESIGN} if target is None else {"design": DESIGN, "target": target}
        miss = wire.send(request_id, method, params)
        hit = wire.send(request_id, method, params)
        result = json.loads(miss)["result"]
        oracle = json.dumps({"id": request_id, "ok": True, "result": result}, separators=(",", ":"))
        assert miss == oracle.encode() + b"\n", (method, target)
        assert hit == miss, (method, target)
    after = wire.memo()
    assert after["misses"] - before["misses"] == len(READS)
    assert after["hits"] - before["hits"] == len(READS)
