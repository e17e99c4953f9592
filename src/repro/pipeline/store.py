"""The one tiered store behind every cache tier.

:class:`~repro.pipeline.stages.StageCache` is built from
:class:`TieredStore` instances, one per namespace (``ast``, ``eval``,
``backend``, ``sim``).  A store owns the whole lookup policy:

* ``get`` walks a bounded in-memory LRU, then the file under
  ``cache_dir``, then the remote L2 (:class:`~repro.pipeline.remote.
  RemoteCacheClient`) under the key ``"<namespace>:<key>"``.  A disk hit
  refreshes the file's mtime (its LRU recency for :func:`evict_lru_files`);
  a remote hit is promoted into memory and disk, never re-uploaded.
* ``put`` pickles once, writes the file atomically and queues the same
  bytes for a write-behind upload.
* A corrupt, truncated or wrong-type blob is a counted miss: a bad file is
  dropped (``disk_errors``), a bad remote blob is reported through the
  client's ``note_corrupt``.  No tier can make a lookup raise.

Memory keeps the object itself, so every hit returns that same object and
callers treat it as immutable.

On disk every namespace lives under ``<cache_dir>/stages/<namespace>-<key>.pkl``.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

#: Subdirectory of the cache dir holding the stage tiers' artefacts.
STAGE_DIR_NAME = "stages"

#: A ``*.tmp`` file older than this is a leak from a crashed writer
#: (``atomic_write_bytes`` holds its temp file for milliseconds, not
#: minutes) and is reclaimed during budget enforcement.
TMP_SWEEP_AGE_S = 300.0


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via write-to-temp-then-rename.

    Concurrent readers either see the old complete file or the new complete
    file, never a torn write.  Raises ``OSError`` for the caller to account.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def evict_lru_files(
    root: Path, max_bytes: int, *, tmp_sweep_age_s: float = TMP_SWEEP_AGE_S
) -> int:
    """Delete the least-recently-used ``*.pkl`` artefacts under ``root``.

    Scans recursively (the tiers live in a ``stages/`` subdirectory of
    the cache dir), sums artefact sizes, and unlinks
    oldest-mtime-first until the total is within ``max_bytes``.  Loads
    refresh mtimes, so mtime order *is* recency order.  Returns the number
    of files deleted; unreadable or already-gone files are skipped.

    ``*.tmp`` files are the write-in-progress side of
    :func:`atomic_write_bytes`; a writer SIGKILLed between ``mkstemp`` and
    ``os.replace`` leaks one forever.  Every enforcement pass therefore
    sweeps tmp files older than ``tmp_sweep_age_s`` (uncounted -- garbage
    collection, not eviction) and charges the *fresh* ones, which are
    about to become artefacts, against the byte budget.
    """
    entries: list[tuple[float, int, Path]] = []
    total = 0
    now = time.time()
    for path in root.rglob("*.tmp"):
        try:
            stat = path.stat()
        except OSError:
            continue
        if now - stat.st_mtime >= tmp_sweep_age_s:
            try:
                path.unlink()
            except OSError:
                pass
            continue
        total += stat.st_size
    for path in root.rglob("*.pkl"):
        try:
            stat = path.stat()
        except OSError:
            continue
        entries.append((stat.st_mtime, stat.st_size, path))
        total += stat.st_size
    if total <= max_bytes:
        return 0
    evicted = 0
    for _, size, path in sorted(entries):
        try:
            path.unlink()
        except OSError:
            continue
        total -= size
        evicted += 1
        if total <= max_bytes:
            break
    return evicted


@dataclass
class CacheStats:
    """The counters of one :class:`TieredStore`.

    ``hits``/``misses`` count lookups, ``stores`` puts and ``evictions``
    memory-LRU evictions.  ``disk_hits`` counts lookups the disk answered,
    ``disk_stores`` files written (remote promotions included) and
    ``disk_errors`` unreadable, unwritable, corrupt or unpicklable
    artefacts.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_stores: int = 0
    disk_errors: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)

    def reset(self) -> None:
        for counter in fields(self):
            setattr(self, counter.name, 0)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class TieredStore:
    """Memory LRU -> ``cache_dir`` file -> remote L2, for one namespace.

    Parameters
    ----------
    namespace:
        Names the remote keys (``"<namespace>:<key>"``) and the files
        (``<cache_dir>/stages/<namespace>-<key>.pkl``).
    capacity:
        In-memory LRU capacity; the least-recently-used entry is evicted
        on overflow (it stays on disk).
    cache_dir / remote:
        The optional disk and remote tiers.

    Thread-safe: counters and the LRU are guarded by one lock, and
    :meth:`stats_snapshot` reads the counters under it.
    """

    def __init__(
        self,
        namespace: str,
        capacity: int,
        *,
        cache_dir: Optional[str | Path] = None,
        remote: Optional[object] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"{namespace} store capacity must be >= 1, got {capacity}")
        self.namespace = namespace
        self.capacity = capacity
        self.remote = remote
        self._dir = Path(cache_dir) / STAGE_DIR_NAME if cache_dir is not None else None
        self._prefix = f"{namespace}-"
        self.stats = CacheStats()
        self._memory: OrderedDict[str, object] = OrderedDict()
        self._lock = threading.Lock()

    # -- lookup / store -------------------------------------------------------

    def get(self, key: str, kind: type = object) -> Optional[object]:
        """The value under ``key``, or ``None`` when no tier holds one.

        A blob that does not unpickle to an instance of ``kind`` is a miss.
        """
        with self._lock:
            held = self._memory.get(key)
            if held is not None:
                self._memory.move_to_end(key)
                self.stats.hits += 1
                return held
        payload = self._read_file(key)
        from_disk = payload is not None
        if payload is None and self.remote is not None:
            payload = self.remote.get(self._remote_key(key))
        value = self._decode(key, payload, kind, from_disk) if payload is not None else None
        with self._lock:
            if value is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            if from_disk:
                self.stats.disk_hits += 1
            self._remember(key, value)
        if not from_disk:
            self._write_file(key, payload)  # promote; the remote already has it
        return value

    def put(self, key: str, value: object) -> None:
        """Store ``value`` in memory and the durable tiers."""
        with self._lock:
            self.stats.stores += 1
            self._remember(key, value)
        if self._dir is None and self.remote is None:
            return
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PickleError, TypeError, AttributeError):
            self.count("disk_errors")
            return
        self._write_file(key, payload)
        if self.remote is not None:
            self.remote.put(self._remote_key(key), payload)

    def clear(self) -> None:
        """Drop the memory tier (the owning cache clears the directory)."""
        with self._lock:
            self._memory.clear()

    def count(self, counter: str, amount: int = 1) -> None:
        """Add to one counter under the store lock."""
        with self._lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + amount)

    def stats_snapshot(self) -> dict[str, int]:
        """A consistent copy of the counters, taken under the store lock."""
        with self._lock:
            return self.stats.as_dict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    # -- internals ------------------------------------------------------------

    def _remember(self, key: str, held: object) -> None:
        """Insert into the LRU (caller holds the lock), evicting on overflow."""
        self._memory[key] = held
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def _path(self, key: str) -> Path:
        return self._dir / f"{self._prefix}{key}.pkl"

    def _remote_key(self, key: str) -> str:
        return f"{self.namespace}:{key}"

    def _read_file(self, key: str) -> Optional[bytes]:
        if self._dir is None:
            return None
        path = self._path(key)
        try:
            payload = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            self.count("disk_errors")
            return None
        try:
            os.utime(path)  # refresh mtime: LRU recency for eviction
        except OSError:
            pass
        return payload

    def _write_file(self, key: str, payload: bytes) -> None:
        if self._dir is None:
            return
        try:
            atomic_write_bytes(self._path(key), payload)
        except OSError:
            self.count("disk_errors")
        else:
            self.count("disk_stores")

    def _decode(self, key: str, payload: bytes, kind: type, from_disk: bool) -> Optional[object]:
        """Unpickle one blob read from disk or the remote; a bad one is
        dropped (disk) or reported (remote) and reads as a miss."""
        try:
            value = pickle.loads(payload)
        except Exception:  # noqa: BLE001 - corrupt pickles raise UnpicklingError,
            value = None  # ValueError, TypeError, MemoryError, OverflowError, ...
        if value is not None and isinstance(value, kind):
            return value
        if from_disk:
            self.count("disk_errors")
            try:
                self._path(key).unlink()
            except OSError:
                pass
        else:
            note = getattr(self.remote, "note_corrupt", None)
            if note is not None:
                note(self._remote_key(key))
        return None
