"""The one tiered store behind every cache tier.

:class:`~repro.pipeline.stages.StageCache` is built from
:class:`TieredStore` instances, one per namespace (``ast``, ``eval``,
``backend``, ``sim``).  A store owns the whole lookup policy:

* ``get`` walks a bounded in-memory LRU, then the disk tier, then the
  remote L2 (:class:`~repro.pipeline.remote.RemoteCacheClient`) under the
  key ``"<namespace>:<key>"``.  A remote hit is promoted into memory and
  disk, never re-uploaded.
* ``put`` pickles once, writes the disk row and queues the same bytes for
  a write-behind upload.
* A corrupt, truncated or wrong-type blob is a counted miss: a bad row is
  deleted (``disk_errors``) and the lookup goes on to the remote; a bad
  remote blob is reported through the client's ``note_corrupt``.  No tier
  can make a lookup or a put raise.

Memory keeps the object itself, so every hit returns that same object and
callers treat it as immutable.

The disk tier is one SQLite database per cache dir,
``<cache_dir>/stages.sqlite3`` (:class:`DiskTier`): one row per
(namespace, key) holding the pickle bytes, and a byte ledger of their sum
that the disk budget reads instead of scanning a directory.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
import time
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

#: The disk tier's database file, one per cache dir.
DB_NAME = "stages.sqlite3"

#: Where the retired one-file-per-blob layout kept its ``*.pkl`` files
#: (and, before that, the cache dir itself); see :func:`remove_retired_layout`.
RETIRED_DIR = "stages"

#: How long a statement waits for another connection's write lock.  A put
#: that cannot take it in time is dropped as one ``disk_errors``, so a busy
#: database delays a compile by at most this much.
BUSY_TIMEOUT_S = 1.0

#: Each connection's page cache in KiB (SQLite's default is 2 MiB).  A row
#: is read once and then held by the memory tier, so a bigger cache buys
#: little but resident memory.
PAGE_CACHE_KIB = 64

#: A checkpoint truncates the write-ahead log back to this many bytes.
WAL_LIMIT_BYTES = 1 << 20

#: A disk hit queues its row's recency stamp (in seconds) for a rewrite
#: only when the stamp is at least this old, and :meth:`DiskTier.refresh`
#: rewrites the queue in one transaction: hits cost no write transaction
#: of their own, and the budget evicts in least-recently-used order to
#: within this many seconds.
RECENCY_REFRESH_S = 60

#: ``PRAGMA user_version`` of a database that holds :data:`_SCHEMA`.
_LAYOUT = 1

#: The ledger is kept by triggers, so every insert, update and delete, from
#: any process, is counted in the transaction that makes it.  Puts are
#: upserts: ``INSERT OR REPLACE`` would delete the old row without firing
#: ``ledger_delete`` (SQLite runs no delete trigger for a replace unless
#: ``recursive_triggers`` is on).
_SCHEMA = f"""
BEGIN IMMEDIATE;
CREATE TABLE IF NOT EXISTS blobs (
    ns TEXT NOT NULL,
    key TEXT NOT NULL,
    used INTEGER NOT NULL,
    size INTEGER NOT NULL,
    data BLOB NOT NULL,
    PRIMARY KEY (ns, key)
);
CREATE INDEX IF NOT EXISTS blobs_by_use ON blobs (used);
CREATE TABLE IF NOT EXISTS ledger (bytes INTEGER NOT NULL);
INSERT INTO ledger SELECT 0 WHERE NOT EXISTS (SELECT 1 FROM ledger);
CREATE TRIGGER IF NOT EXISTS ledger_insert AFTER INSERT ON blobs
    BEGIN UPDATE ledger SET bytes = bytes + new.size; END;
CREATE TRIGGER IF NOT EXISTS ledger_update AFTER UPDATE OF size ON blobs
    BEGIN UPDATE ledger SET bytes = bytes - old.size + new.size; END;
CREATE TRIGGER IF NOT EXISTS ledger_delete AFTER DELETE ON blobs
    BEGIN UPDATE ledger SET bytes = bytes - old.size; END;
PRAGMA user_version = {_LAYOUT};
COMMIT;
"""

_UPSERT = (
    "INSERT INTO blobs (ns, key, used, size, data) VALUES (?, ?, ?, ?, ?) "
    "ON CONFLICT (ns, key) DO UPDATE "
    "SET used = excluded.used, size = excluded.size, data = excluded.data"
)


class DiskFault(Exception):
    """A disk-tier operation failed; the caller counts one ``disk_errors``.

    ``malformed`` is set when the file is not (or no longer) a database.
    """

    def __init__(self, message: str, *, malformed: bool = False) -> None:
        super().__init__(message)
        self.malformed = malformed


def _fault_kind(exc: BaseException) -> Optional[bool]:
    """``None`` when ``exc`` is no disk-tier failure (a bug: let it
    propagate); else whether it says the file is malformed."""
    sqlite3 = sys.modules.get("sqlite3")  # loaded by the first open, if at all
    if sqlite3 is not None and isinstance(exc, sqlite3.Error):
        # SQLITE_CORRUPT and SQLITE_NOTADB raise the base class itself.
        return type(exc) is sqlite3.DatabaseError
    return False if isinstance(exc, (OSError, ImportError)) else None


class DiskTier:
    """One cache dir's SQLite database, shared by every store of a process.

    Get one through :func:`disk_tier`.  The connection opens lazily -- a
    lookup in a dir without a database creates nothing -- and belongs to
    the process that opened it: a forked child opens its own.  Threads
    share it under one lock.  The database runs in WAL mode with
    ``synchronous=NORMAL``: no fsync per commit, and a consistent file
    after a power loss.  Every failure (no ``sqlite3`` module, an
    unwritable or full dir, a file that is not a database, a busy timeout)
    raises :class:`DiskFault`.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._conn = None
        self._pid = 0
        self._lock = threading.Lock()
        #: (namespace, key) of the hits whose stamp :meth:`refresh` rewrites.
        self._stale: set[tuple[str, str]] = set()

    def __del__(self, getpid=os.getpid) -> None:
        # A sqlite3 connection sits in a reference cycle (its statement
        # cache), so without this it would stay open until the garbage
        # collector runs, and close -- checkpointing the file -- in the
        # middle of whatever work triggered that collection.
        if self._conn is not None and self._pid == getpid():
            self._conn.close()

    def read(self, namespace: str, key: str) -> Optional[bytes]:
        """The stored blob, or ``None``; queues a stale recency stamp."""
        with self._use(create=False) as conn:
            if conn is None:
                return None
            row = conn.execute(
                "SELECT data, used FROM blobs WHERE ns = ? AND key = ?", (namespace, key)
            ).fetchone()
            if row is None:
                return None
            if time.time() - row[1] >= RECENCY_REFRESH_S:
                self._stale.add((namespace, key))
            return row[0]

    def refresh(self) -> None:
        """Rewrite the recency stamps queued by :meth:`read`, in one transaction."""
        if not self._stale:
            return
        with self._use(create=False) as conn:
            stale, self._stale = self._stale, set()
            if conn is None:
                return
            now = int(time.time())
            conn.execute("BEGIN IMMEDIATE")
            conn.executemany(
                "UPDATE blobs SET used = ? WHERE ns = ? AND key = ?",
                [(now, namespace, key) for namespace, key in stale],
            )
            conn.execute("COMMIT")

    def write(self, namespace: str, key: str, payload: bytes) -> None:
        with self._use(create=True) as conn:
            conn.execute(_UPSERT, (namespace, key, int(time.time()), len(payload), payload))

    def delete(self, namespace: str, key: str) -> None:
        with self._use(create=False) as conn:
            if conn is not None:
                conn.execute("DELETE FROM blobs WHERE ns = ? AND key = ?", (namespace, key))

    def evict(self, max_bytes: int) -> int:
        """Delete least-recently-used rows until the ledger is within
        ``max_bytes``; the number deleted.  Under budget it reads one row."""
        with self._use(create=False) as conn:
            if conn is None or _ledger(conn) <= max_bytes:
                return 0
            conn.execute("BEGIN IMMEDIATE")
            excess = _ledger(conn) - max_bytes  # another process may have evicted
            victims = []
            cursor = conn.execute("SELECT rowid, size FROM blobs ORDER BY used")
            for rowid, size in cursor:
                if excess <= 0:
                    break
                victims.append((rowid,))
                excess -= size
            cursor.close()
            conn.executemany("DELETE FROM blobs WHERE rowid = ?", victims)
            conn.execute("COMMIT")
            self._shrink(conn)
            return len(victims)

    def clear(self) -> None:
        """Delete every row in place: other processes may hold the file
        open, so it is never unlinked.  A file that is not a database is
        truncated, with its write-ahead log, to an empty one."""
        try:
            with self._use(create=False) as conn:
                if conn is not None:
                    conn.execute("DELETE FROM blobs")
                    self._shrink(conn)
        except DiskFault as fault:
            if not fault.malformed:
                raise
            with self._lock:
                try:
                    for path in (self.path, f"{self.path}-wal"):
                        if os.path.exists(path):
                            os.truncate(path, 0)
                except OSError as exc:
                    raise DiskFault(f"{self.path}: {exc}") from exc

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _shrink(conn) -> None:
        """Return the freed pages to the file system (``auto_vacuum`` is
        incremental; ``executescript`` steps the pragma to the end)."""
        conn.executescript("PRAGMA incremental_vacuum")

    @contextmanager
    def _use(self, *, create: bool):
        """The connection under the lock (``None``: no database and not
        ``create``), with every failure turned into :class:`DiskFault`."""
        with self._lock:
            try:
                yield self._connection(create)
            except Exception as exc:
                malformed = _fault_kind(exc)
                if malformed is None:
                    raise
                conn = self._conn
                if conn is not None and (malformed or conn.in_transaction):
                    # Closing rolls back; the next operation reopens (and
                    # re-checks) the file.
                    self._conn = None
                    conn.close()
                raise DiskFault(f"{self.path}: {exc}", malformed=bool(malformed)) from exc

    def _connection(self, create: bool):
        if self._conn is not None and self._pid == os.getpid():
            return self._conn
        # Never opened, or opened by the parent of this forked process: the
        # parent's connection stays pinned in _INHERITED, unused.
        self._conn = None
        try:
            os.stat(self.path)
        except FileNotFoundError:
            if not create:
                return None
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
        import sqlite3

        conn = sqlite3.connect(
            self.path, timeout=BUSY_TIMEOUT_S, isolation_level=None, check_same_thread=False
        )
        try:
            conn.execute(f"PRAGMA cache_size = -{PAGE_CACHE_KIB}")
            conn.execute(f"PRAGMA journal_size_limit = {WAL_LIMIT_BYTES}")
            if conn.execute("PRAGMA user_version").fetchone()[0] != _LAYOUT:
                # A new file holds nothing to lose: create it without fsyncs.
                conn.execute("PRAGMA synchronous = OFF")
                conn.execute("PRAGMA auto_vacuum = INCREMENTAL")  # before the first table
                conn.execute("PRAGMA journal_mode = WAL")
                conn.executescript(_SCHEMA)
            conn.execute("PRAGMA synchronous = NORMAL")
        except BaseException:
            conn.close()
            raise
        self._conn, self._pid = conn, os.getpid()
        return conn


def _ledger(conn) -> int:
    return conn.execute("SELECT bytes FROM ledger").fetchone()[0]


#: Every live tier by database path: the stores of one process share one
#: connection per cache dir.
_TIERS: "weakref.WeakValueDictionary[str, DiskTier]" = weakref.WeakValueDictionary()
_TIERS_LOCK = threading.Lock()

#: Connections a forked child inherited.  It never uses them, and must not
#: close them either: closing a file drops every POSIX lock this process
#: holds on it, its own connection's included.
_INHERITED: list = []


def disk_tier(cache_dir: str | Path) -> DiskTier:
    """This process's :class:`DiskTier` for ``cache_dir``."""
    path = os.path.abspath(os.path.join(cache_dir, DB_NAME))
    with _TIERS_LOCK:
        tier = _TIERS.get(path)
        if tier is None:
            tier = _TIERS[path] = DiskTier(path)
    return tier


def _after_fork_in_child() -> None:
    """Pin every inherited connection, so the child never closes one, and
    replace every lock, which a thread of the parent may have held."""
    global _TIERS_LOCK
    _TIERS_LOCK = threading.Lock()
    for tier in list(_TIERS.values()):
        tier._lock = threading.Lock()
        if tier._conn is not None:
            _INHERITED.append(tier._conn)


os.register_at_fork(after_in_child=_after_fork_in_child)


def remove_retired_layout(cache_dir: Path) -> None:
    """Delete what the one-file-per-blob layout left in ``cache_dir``: the
    ``*.pkl`` blobs and the ``*.tmp`` files of crashed writers, there and
    in ``stages/``, which goes once it is empty."""
    retired = cache_dir / RETIRED_DIR
    for directory in (cache_dir, retired):
        for pattern in ("*.pkl", "*.tmp"):
            for path in directory.glob(pattern):
                try:
                    path.unlink()
                except OSError:
                    pass
    try:
        retired.rmdir()
    except OSError:
        pass


@dataclass
class CacheStats:
    """The counters of one :class:`TieredStore`.

    ``hits``/``misses`` count lookups, ``stores`` puts and ``evictions``
    memory-LRU evictions.  ``disk_hits`` counts lookups the disk answered,
    ``disk_stores`` rows written (remote promotions included) and
    ``disk_errors`` failed disk operations and corrupt or unpicklable
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
    """Memory LRU -> ``cache_dir`` database -> remote L2, for one namespace.

    Parameters
    ----------
    namespace:
        Names the remote keys (``"<namespace>:<key>"``) and the disk rows
        (column ``ns`` of ``<cache_dir>/stages.sqlite3``).
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
        self._disk = disk_tier(cache_dir) if cache_dir is not None else None
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
        payload = self._read_disk(key)
        value = self._decode(key, payload, kind, from_disk=True) if payload is not None else None
        from_disk = value is not None
        if value is None and self.remote is not None:
            payload = self.remote.get(self._remote_key(key))
            value = self._decode(key, payload, kind, from_disk=False) if payload is not None else None
        with self._lock:
            if value is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            if from_disk:
                self.stats.disk_hits += 1
            self._remember(key, value)
        if not from_disk:
            self._write_disk(key, payload)  # promote; the remote already has it
        return value

    def put(self, key: str, value: object) -> None:
        """Store ``value`` in memory and the durable tiers."""
        with self._lock:
            self.stats.stores += 1
            self._remember(key, value)
        if self._disk is None and self.remote is None:
            return
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PickleError, TypeError, AttributeError):
            self.count("disk_errors")
            return
        self._write_disk(key, payload)
        if self.remote is not None:
            self.remote.put(self._remote_key(key), payload)

    def clear(self) -> None:
        """Drop the memory tier (the owning cache clears the database)."""
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

    def _remote_key(self, key: str) -> str:
        return f"{self.namespace}:{key}"

    def _read_disk(self, key: str) -> Optional[bytes]:
        if self._disk is None:
            return None
        try:
            return self._disk.read(self.namespace, key)
        except DiskFault:
            self.count("disk_errors")
            return None

    def _write_disk(self, key: str, payload: bytes) -> None:
        if self._disk is None:
            return
        try:
            self._disk.write(self.namespace, key, payload)
        except DiskFault:
            self.count("disk_errors")
        else:
            self.count("disk_stores")

    def _decode(self, key: str, payload: bytes, kind: type, *, from_disk: bool) -> Optional[object]:
        """Unpickle one blob read from disk or the remote; a bad one is
        deleted (disk) or reported (remote) and reads as a miss."""
        try:
            value = pickle.loads(payload)
        except Exception:  # noqa: BLE001 - corrupt pickles raise UnpicklingError,
            value = None  # ValueError, TypeError, MemoryError, OverflowError, ...
        if value is not None and isinstance(value, kind):
            return value
        if from_disk:
            self.count("disk_errors")
            try:
                self._disk.delete(self.namespace, key)
            except DiskFault:
                pass
        else:
            note = getattr(self.remote, "note_corrupt", None)
            if note is not None:
                note(self._remote_key(key))
        return None
