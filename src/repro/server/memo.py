"""The compile service's read memo: repeat reads answered in the front process.

A read of an unchanged design (``get_ir``, ``get_outputs``,
``get_diagnostics``) depends only on the design's sources and options, and
every change to those comes through one of the service's mutating methods.
:class:`ReadMemo` keeps the last ``ok`` result of each (design, method,
target) as the JSON bytes it was sent as, so a repeat read costs a dict
lookup and one splice of the request id into those bytes
(:func:`repro.server.protocol.success_line`) on the event loop, instead of
a pool round trip or a thread hop, and no JSON encode.

Invalidation goes by per-design *generation*:

* every mutation bumps its design's generation and drops the design's
  entries twice: when it is submitted and again when it completes;
* a read notes its design's generation before it is submitted, and its
  result is stored only if the generation has not moved by the time the
  read completes.

So a read submitted before a mutation is never stored once the mutation was
submitted.  A read submitted after it may still run before it (the thread
pool keeps no order), and its stale result may be stored; but the
completion bump drops it before the mutation's response is sent, so no read
sent after that response is answered from it.

Stored results are immutable ``bytes``: a caller decodes its own objects
from the line it was sent, so it can never edit the memo, and no copy is
made.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Optional

#: Byte budget of the stored results (the length of their JSON bytes); past
#: it, the least recently used entries are evicted.
READ_MEMO_BYTES = 32 * 1024 * 1024

#: Designs whose generations the memo tracks before it forgets them all at
#: once (so arbitrary design names from a peer cannot grow it without bound).
MAX_TRACKED_DESIGNS = 4096

Key = tuple[str, str, Optional[str]]


class ReadMemo:
    """Last ``ok`` read results, as JSON bytes, by (design, method, target);
    LRU by bytes.

    Thread-safe: the service calls it from the event loop, the worker pool's
    dispatcher threads drop a shard's entries on a respawn, and ``stats``
    snapshots it from a compile thread.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Key, bytes]" = OrderedDict()
        self._keys: dict[str, set[Key]] = {}
        self._bytes = 0
        self._clock = 0
        #: A design's generation: the clock at its last invalidation, or
        #: ``_floor`` for a design the memo does not track.  Every forgotten
        #: design moves to a fresh floor, so no generation ever comes back.
        self._generations: dict[str, int] = {}
        self._floor = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def lookup(self, key: Key) -> Optional[bytes]:
        """The stored result's JSON bytes, or ``None`` (counted as a miss)."""
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
        return result

    def generation(self, design: str) -> int:
        """The design's generation, to hand back to :meth:`store`."""
        with self._lock:
            return self._generations.get(design, self._floor)

    def store(self, key: Key, generation: int, result: bytes) -> None:
        """Store a result's JSON bytes if ``key``'s design is still at ``generation``."""
        if len(result) > READ_MEMO_BYTES:
            return
        design = key[0]
        with self._lock:
            if self._generations.get(design, self._floor) != generation:
                return
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= len(old)
            self._entries[key] = result
            self._keys.setdefault(design, set()).add(key)
            self._bytes += len(result)
            while self._bytes > READ_MEMO_BYTES:
                evicted, evicted_result = self._entries.popitem(last=False)
                self._bytes -= len(evicted_result)
                keys = self._keys[evicted[0]]
                keys.discard(evicted)
                if not keys:
                    del self._keys[evicted[0]]
                self._evictions += 1

    def invalidate(self, design: str) -> None:
        """Bump the design's generation and drop its entries."""
        with self._lock:
            if design not in self._generations and len(self._generations) >= MAX_TRACKED_DESIGNS:
                self._generations.clear()
                self._clock += 1
                self._floor = self._clock
            self._bump(design)

    def invalidate_where(self, owns: Callable[[str], bool]) -> None:
        """:meth:`invalidate` every design ``owns`` accepts (a shard's, on a
        worker respawn)."""
        with self._lock:
            for design in [d for d in self._generations.keys() | self._keys.keys() if owns(d)]:
                self._bump(design)

    def stats(self) -> dict[str, int]:
        """The counters, copied under the lock (one consistent snapshot)."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "entries": len(self._entries),
                "bytes": self._bytes,
            }

    def _bump(self, design: str) -> None:
        self._clock += 1
        self._generations[design] = self._clock
        for key in self._keys.pop(design, ()):
            self._bytes -= len(self._entries.pop(key))
