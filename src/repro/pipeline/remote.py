"""The remote L2 cache tier: wire format and the :class:`RemoteCacheClient`.

The content-addressed cache stack is three tiers deep once a remote is
configured -- in-memory LRU, local disk, then a shared **remote cache
server** (:mod:`repro.server.cachesvc`) -- so N pool workers, CI runs and
every ``--watch`` loop share one warm store, the way Bazel and sccache
fleets do.  What makes remote sharing *safe* is the fingerprint discipline
the local tiers already enforce: ``CACHE_VERSION``,
``STAGE_SCHEMA_VERSION`` and the compiler version all participate in every
key, so an entry written by an incompatible compiler simply misses instead
of deserialising stale state.

Design constraints, in order:

* **A dead or slow remote must never fail (or stall) a compile.**  Every
  public client method swallows every transport error: a failed ``get`` is
  a miss, a failed ``put`` is a dropped upload, and after any socket error
  the client marks the endpoint *down* for ``retry_interval`` seconds and
  answers misses locally without touching the network.
* **Misses never pay upload latency.**  ``put`` only enqueues: a single
  daemon thread drains a bounded write-behind queue in the background.  A
  full queue drops the oldest upload (counted) rather than blocking a
  compile.
* **Observability.**  The client counts gets / hits / misses / skips /
  puts / drops / corrupt payloads / transport errors and bytes both ways;
  :meth:`RemoteCacheClient.stats_snapshot` surfaces them through
  ``Workspace.stats()["cache"]["remote"]`` -> the service ``stats``
  endpoint.

Wire format (shared with the server, both stdlib-only): length-prefixed
binary frames over one TCP connection, ``!I`` big-endian payload length
then the payload.  Request payloads are one opcode byte plus operands::

    b"G" + key                          -> b"H" + blob | b"M" | b"E" + msg
    b"P" + !H keylen + key + blob       -> b"O"        | b"E" + msg
    b"S"                                -> b"S" + JSON stats | b"E" + msg

Keys are namespaced fingerprints (``ast:<sha256>``, ``eval:<sha256>``,
``backend:<sha256>``, ``sim:<sha256>``) so the artefact kinds can never be
confused; payloads are the same pickle bytes the disk tier stores.  The client never interprets payloads -- corruption is detected by
the cache layer's unpickle guard, which reports it back through
:meth:`RemoteCacheClient.note_corrupt`.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from collections import deque
from typing import Optional

#: Frame header: one unsigned 32-bit big-endian payload length.
FRAME_HEADER = struct.Struct("!I")

#: Key-length prefix inside a PUT payload.
KEY_HEADER = struct.Struct("!H")

#: Bound on one cached blob (an evaluate snapshot of a large design is
#: ~100s of KiB; anything near this bound is misconfiguration or attack).
MAX_ENTRY_BYTES = 64 * 1024 * 1024

#: Bound on one frame: an entry plus its key and opcode, with headroom.
MAX_FRAME_BYTES = MAX_ENTRY_BYTES + 64 * 1024

#: Default TCP port of the cache server (the compile daemon's 4780 + 1).
DEFAULT_CACHE_PORT = 4781

OP_GET = b"G"
OP_PUT = b"P"
OP_STATS = b"S"
RESP_HIT = b"H"
RESP_MISS = b"M"
RESP_OK = b"O"
RESP_STATS = b"S"
RESP_ERROR = b"E"


def send_frame(sock: socket.socket, payload: bytes) -> None:
    """Write one length-prefixed frame (raises ``OSError``/``ValueError``)."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(payload)} bytes exceeds the cache bound")
    sock.sendall(FRAME_HEADER.pack(len(payload)) + payload)


def recv_frame(sock: socket.socket) -> Optional[bytes]:
    """Read one frame; ``None`` on clean EOF before any header byte."""
    header = _recv_exactly(sock, FRAME_HEADER.size)
    if header is None:
        return None
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"frame header claims {length} bytes (corrupt stream?)")
    payload = _recv_exactly(sock, length)
    if payload is None:
        raise ConnectionError("peer closed mid-frame")
    return payload


def _recv_exactly(sock: socket.socket, length: int) -> Optional[bytes]:
    chunks: list[bytes] = []
    remaining = length
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            return None if not chunks else _raise_truncated()
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _raise_truncated() -> bytes:
    raise ConnectionError("peer closed mid-frame")


def pack_put(key: str, payload: bytes) -> bytes:
    key_bytes = key.encode()
    return OP_PUT + KEY_HEADER.pack(len(key_bytes)) + key_bytes + payload


def unpack_put(payload: bytes) -> tuple[str, bytes]:
    (key_len,) = KEY_HEADER.unpack_from(payload, 1)
    start = 1 + KEY_HEADER.size
    key = payload[start : start + key_len].decode()
    return key, payload[start + key_len :]


def parse_endpoint(url: str, *, default_port: int = DEFAULT_CACHE_PORT) -> tuple[str, int]:
    """``host``, ``host:port`` or ``tcp://host:port`` -> ``(host, port)``."""
    text = url.strip()
    if text.startswith("tcp://"):
        text = text[len("tcp://") :]
    text = text.rstrip("/")
    if not text:
        raise ValueError(f"empty cache endpoint {url!r}")
    host, _, port_text = text.rpartition(":")
    if not host:
        return text, default_port
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid cache endpoint {url!r} (want host[:port])") from None
    if not 0 < port < 65536:
        raise ValueError(f"cache endpoint port out of range in {url!r}")
    return host, port


class RemoteCacheStats:
    """The client-side per-tier counters (mutated under the client's lock)."""

    __slots__ = (
        "gets",
        "hits",
        "misses",
        "skips",
        "puts",
        "put_drops",
        "corrupt",
        "errors",
        "bytes_in",
        "bytes_out",
    )

    def __init__(self) -> None:
        self.gets = 0  # lookups attempted (down-endpoint skips excluded)
        self.hits = 0
        self.misses = 0
        self.skips = 0  # lookups skipped because the endpoint is down
        self.puts = 0  # uploads completed by the write-behind thread
        self.put_drops = 0  # uploads dropped (queue full, endpoint down, too big)
        self.corrupt = 0  # remote blobs that failed to unpickle (also errors)
        self.errors = 0  # transport failures + corrupt payloads
        self.bytes_in = 0
        self.bytes_out = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class RemoteCacheClient:
    """A shared-nothing TCP client for the remote cache tier.

    One socket, strictly request/response, guarded by one I/O lock -- the
    cache layers call ``get`` from many compile threads, and serialising
    on one connection keeps the protocol trivial (the server is the fan-in
    point, not the client).  Uploads ride a bounded write-behind queue
    drained by a daemon thread, so the compile path never blocks on the
    network after a miss.

    Every public method is safe to call with the server dead, slow, or
    mid-restart: errors are counted, the endpoint is marked down for
    ``retry_interval`` seconds, and the caller sees only misses.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connect_timeout: float = 1.0,
        op_timeout: float = 2.0,
        retry_interval: float = 5.0,
        max_pending: int = 256,
        max_entry_bytes: int = MAX_ENTRY_BYTES,
    ) -> None:
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.op_timeout = op_timeout
        self.retry_interval = retry_interval
        self.max_entry_bytes = max_entry_bytes
        self.stats = RemoteCacheStats()
        self._sock: Optional[socket.socket] = None
        self._io_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._down_until = 0.0
        self._closed = False
        #: Write-behind state: pending uploads plus an in-flight count, so
        #: flush() can wait for "queue empty AND nothing mid-upload".
        self._queue: deque[tuple[str, bytes]] = deque()
        self._max_pending = max_pending
        self._pending_cv = threading.Condition()
        self._in_flight = 0
        self._writer = threading.Thread(
            target=self._writer_loop, name="tydi-cache-writer", daemon=True
        )
        self._writer.start()

    @classmethod
    def from_url(cls, url: str, **kwargs) -> "RemoteCacheClient":
        host, port = parse_endpoint(url)
        return cls(host, port, **kwargs)

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    # -- the cache surface -----------------------------------------------------

    def get(self, key: str) -> Optional[bytes]:
        """The blob stored under ``key``, or ``None`` (miss, down, error)."""
        if self._closed or self._is_down():
            with self._stats_lock:
                self.stats.skips += 1
            return None
        with self._stats_lock:
            self.stats.gets += 1
        reply = self._request(OP_GET + key.encode())
        if reply is None:
            return None
        if reply[:1] == RESP_HIT:
            blob = reply[1:]
            with self._stats_lock:
                self.stats.hits += 1
                self.stats.bytes_in += len(blob)
            return blob
        with self._stats_lock:
            if reply[:1] != RESP_MISS:
                self.stats.errors += 1
            self.stats.misses += 1
        return None

    def put(self, key: str, payload: bytes) -> None:
        """Enqueue one upload (write-behind; never blocks on the network)."""
        if self._closed or len(payload) > self.max_entry_bytes or self._is_down():
            with self._stats_lock:
                self.stats.put_drops += 1
            return
        with self._pending_cv:
            if len(self._queue) >= self._max_pending:
                self._queue.popleft()  # shed oldest: fresh artefacts win
                with self._stats_lock:
                    self.stats.put_drops += 1
            self._queue.append((key, payload))
            self._pending_cv.notify_all()

    def note_corrupt(self, key: str) -> None:
        """Record that a blob served for ``key`` failed to deserialise.

        Called by the cache layer (which owns unpickling); the corrupt
        entry was already counted as a hit, so this re-classifies it as an
        error for the operator -- a fleet whose ``corrupt`` counter moves
        has a schema-version or bitrot problem.
        """
        with self._stats_lock:
            self.stats.corrupt += 1
            self.stats.errors += 1

    def remote_stats(self, timeout: Optional[float] = None) -> Optional[dict]:
        """The *server's* stats document, or ``None`` if unreachable."""
        if self._closed or self._is_down():
            return None
        reply = self._request(OP_STATS, timeout=timeout)
        if reply is None or reply[:1] != RESP_STATS:
            return None
        try:
            return json.loads(reply[1:].decode())
        except ValueError:
            return None

    def stats_snapshot(self) -> dict[str, object]:
        """A consistent copy of the client counters plus endpoint health."""
        with self._stats_lock:
            snapshot: dict[str, object] = self.stats.as_dict()
        with self._pending_cv:
            snapshot["pending_puts"] = len(self._queue) + self._in_flight
        snapshot["endpoint"] = self.endpoint
        snapshot["down"] = self._is_down()
        return snapshot

    # -- lifecycle -------------------------------------------------------------

    def flush(self, timeout: float = 10.0) -> bool:
        """Wait until the write-behind queue has drained (tests/benchmarks).

        Returns ``False`` on timeout or when pending uploads were dropped
        because the endpoint went down mid-drain.
        """
        deadline = time.monotonic() + timeout
        with self._pending_cv:
            while self._queue or self._in_flight:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._pending_cv.wait(remaining)
        return True

    def close(self) -> None:
        """Stop the writer thread and close the socket (idempotent).

        Pending uploads are dropped -- close is for teardown, call
        :meth:`flush` first when they matter.
        """
        if self._closed:
            return
        self._closed = True
        with self._pending_cv:
            self._queue.clear()
            self._pending_cv.notify_all()
        self._writer.join(timeout=5.0)
        with self._io_lock:
            self._close_socket_locked()

    def __enter__(self) -> "RemoteCacheClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- transport internals ---------------------------------------------------

    def _is_down(self) -> bool:
        return time.monotonic() < self._down_until

    def _note_failure(self) -> None:
        """One transport error: count it, drop the socket, back off."""
        with self._stats_lock:
            self.stats.errors += 1
        self._down_until = time.monotonic() + self.retry_interval

    def _close_socket_locked(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _connected_socket_locked(self, timeout: Optional[float]) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        self._sock.settimeout(timeout if timeout is not None else self.op_timeout)
        return self._sock

    def _request(
        self, payload: bytes, *, timeout: Optional[float] = None
    ) -> Optional[bytes]:
        """One framed round trip; ``None`` and a backoff on any error."""
        with self._io_lock:
            try:
                sock = self._connected_socket_locked(timeout)
                send_frame(sock, payload)
                reply = recv_frame(sock)
                if reply is None:
                    raise ConnectionError("cache server closed the connection")
                return reply
            except (OSError, ValueError, ConnectionError):
                self._close_socket_locked()
                self._note_failure()
                return None

    # -- the write-behind thread -----------------------------------------------

    def _writer_loop(self) -> None:
        while True:
            with self._pending_cv:
                while not self._queue and not self._closed:
                    self._pending_cv.wait()
                if self._closed:
                    self._pending_cv.notify_all()
                    return
                key, payload = self._queue.popleft()
                self._in_flight += 1
            try:
                if self._is_down():
                    with self._stats_lock:
                        self.stats.put_drops += 1
                    continue
                reply = self._request(pack_put(key, payload))
                with self._stats_lock:
                    if reply is not None and reply[:1] == RESP_OK:
                        self.stats.puts += 1
                        self.stats.bytes_out += len(payload)
                    else:
                        if reply is not None:
                            # Transport was fine; the server refused the
                            # entry (too big, shedding) -- count the drop.
                            self.stats.errors += 1
                        self.stats.put_drops += 1
            finally:
                with self._pending_cv:
                    self._in_flight -= 1
                    self._pending_cv.notify_all()
