"""Content-addressed compilation cache.

The frontend of Figure 3 is deterministic: the same source texts compiled
with the same options always produce the same :class:`~repro.lang.compile.
CompilationResult` (and therefore the same textual Tydi-IR).  That makes
compilation outputs *content-addressable* -- a stable fingerprint of the
inputs is a complete identity for the output artefact.

:func:`fingerprint_sources` computes that fingerprint: a SHA-256 over

* a cache-format version salt (so layout changes invalidate old stores),
* the compile options, serialised with sorted keys,
* the standard-library source text (when ``include_stdlib`` is set, so
  stdlib edits across revisions invalidate persistent caches), and
* every ``(filename, source_text)`` pair in order.

:class:`CompilationCache` stores results under those keys in one
:class:`~repro.pipeline.store.TieredStore`: a bounded in-memory LRU,
optionally backed by an on-disk store (conventionally ``.tydi-cache/``) that
survives across processes -- which is what lets the process-pool executor
of :mod:`repro.pipeline.batch` share warm artefacts with its workers -- and
by the remote L2.

Cached results are returned *as-is* (no defensive copy): treat a
:class:`~repro.lang.compile.CompilationResult` obtained through the cache as
immutable.  Results loaded from disk are fresh pickle round-trips and are
never aliased with a result some other compilation already holds.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Mapping, Optional, Sequence

from repro.pipeline.store import (
    RESULT_NAMESPACE,
    SHARED,
    CacheStats,
    TieredStore,
    evict_lru_files,
)

#: Bump when the pickle layout or fingerprint recipe changes; old on-disk
#: entries then simply miss instead of deserialising stale artefacts.
CACHE_VERSION = 2

#: Schema version of the *per-stage* artefacts (parse ASTs, evaluate
#: snapshots, backend unit outputs, see :mod:`repro.pipeline.stages`).  It
#: participates in every fingerprint -- whole-result keys included -- so
#: entries written by an older stage layout (e.g. the PR-1 whole-result-only
#: cache) are never deserialised into the new layout: they simply miss.
#: v2: ``CompilationResult`` gained the ``outputs`` field and the stage
#: cache its backend-output tier.
#: v3: the options normal form gained the ``backend_options`` key
#: (:class:`repro.lang.compile.CompileOptions`), so every pre-workspace
#: fingerprint recipe is orphaned wholesale.
#: v4: option values hash through :func:`canonical_option_repr` instead of
#: raw ``repr`` (mappings render sorted by key), so semantically identical
#: options always share one fingerprint -- a prerequisite for keying the
#: *shared* remote tier, where an order-dependent key would fragment (and
#: pollute) the whole fleet's cache.
#: v5: the AST/token dataclasses grew ``slots=True`` and logical types are
#: interned at the constructor (``repro.spec.logical_types``), changing the
#: pickle layout of cached parse/evaluate artefacts; entries pickled by the
#: pre-slots layout must miss rather than deserialise into the new classes.
#: v6: the stage cache gained the ``sim:`` tier (pickled
#: :class:`repro.sim.harness.SimulationReport` keyed on evaluate fingerprint
#: plus plan fingerprint); the salt bump keeps pre-sim stores from mixing
#: with the new namespace layout.
#: v7: the stage cache gained the ``iringest:`` tier (pickled post-ingest
#: projects of Tydi-IR interchange documents, keyed on the document
#: fingerprint; see :meth:`repro.pipeline.stages.StageCache.compile_ir`),
#: and the ``Project`` pickle layout may now carry interned interchange
#: types; the salt bump keeps pre-interchange stores from mixing with the
#: new namespace layout.
STAGE_SCHEMA_VERSION = 7

#: Default directory name for the on-disk store.
DEFAULT_CACHE_DIR = ".tydi-cache"


# The one normalisation shared with compile_sources, so fingerprints agree
# no matter which layer computed them (the lang layer owns the definition).
from repro.lang.compile import (  # noqa: E402
    CompilationResult,
    CompileOptions,
    normalize_sources,
)


def canonical_option_repr(value: object) -> str:
    """A deterministic rendering of one option value for fingerprinting.

    ``repr`` of a dict depends on key insertion order, so two semantically
    identical option sets (e.g. ``backend_options`` mappings built in
    different orders) would fingerprint differently -- a spurious local
    miss, and a fleet-cache polluter once keys address a shared remote
    tier.  Mappings therefore render sorted by key (recursively), sets
    sorted by element rendering; sequences keep their order, which *is*
    significant.  Everything else falls back to ``repr``.
    """
    if isinstance(value, Mapping):
        items = sorted(
            (canonical_option_repr(k), canonical_option_repr(v))
            for k, v in value.items()
        )
        return "{" + ", ".join(f"{k}: {v}" for k, v in items) + "}"
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(canonical_option_repr(v) for v in value)) + "}"
    if isinstance(value, tuple):
        inner = ", ".join(canonical_option_repr(v) for v in value)
        return "(" + inner + ("," if len(value) == 1 else "") + ")"
    if isinstance(value, list):
        return "[" + ", ".join(canonical_option_repr(v) for v in value) + "]"
    return repr(value)


def fingerprint_sources(
    sources: Sequence[tuple[str, str]] | Sequence[str],
    options: "Mapping[str, object] | CompileOptions | None" = None,
) -> str:
    """Stable SHA-256 content hash of a compilation's inputs.

    ``options`` is either the canonical :class:`~repro.lang.compile.
    CompileOptions` or a legacy options mapping; both hash through the same
    ``{option: value}`` normal form (:meth:`CompileOptions.as_dict`), so
    every layer computes identical content addresses.
    """
    import repro

    if isinstance(options, CompileOptions):
        options = options.as_dict()
    options = dict(options or {})
    hasher = hashlib.sha256()
    # The cache-format salt, the per-stage schema version and the compiler's
    # own version all participate: a new compiler release invalidates
    # persistent artefacts automatically, without anyone remembering to bump
    # CACHE_VERSION, and a stage-layout change orphans PR-1-era entries.
    hasher.update(
        f"tydi-cache-v{CACHE_VERSION}.{STAGE_SCHEMA_VERSION}:compiler-{repro.__version__}".encode()
    )
    for key in sorted(options):
        hasher.update(b"\x00opt\x00")
        hasher.update(key.encode())
        hasher.update(b"=")
        hasher.update(canonical_option_repr(options[key]).encode())
    if options.get("include_stdlib", True):
        from repro.stdlib.source import STDLIB_SOURCE

        hasher.update(b"\x00stdlib\x00")
        hasher.update(STDLIB_SOURCE.encode())
    for text, filename in normalize_sources(sources):
        hasher.update(b"\x00file\x00")
        hasher.update(filename.encode())
        hasher.update(b"\x00")
        hasher.update(text.encode())
    return hasher.hexdigest()


class CompilationCache:
    """Bounded in-memory LRU of compilation results, with disk and remote tiers.

    One :class:`~repro.pipeline.store.TieredStore` (namespace ``result``,
    shared codec) holds the results; a :class:`~repro.pipeline.stages.
    StageCache` over the same directory, budget and remote, exposed as
    ``.stages``, holds the per-stage artefacts.  ``compile_sources``
    compiles whole-result misses through it, so a one-file edit of an
    N-file design re-parses only the edited file.

    Parameters
    ----------
    max_entries:
        In-memory LRU capacity; the least-recently-used entry is evicted on
        overflow (it stays on disk if a ``cache_dir`` is configured).
    cache_dir:
        When set, every stored result is also pickled to
        ``<cache_dir>/<key>.pkl`` and in-memory misses fall through to disk.
        The directory is created lazily on first store.
    max_disk_bytes:
        When set, the on-disk store (whole-result artefacts *and* the
        per-stage tier under ``<cache_dir>/stages/``) is bounded: after every
        disk store, least-recently-used artefacts are deleted until the total
        is within budget (``stats.disk_evictions`` counts them).
    remote:
        The shared remote L2 tier: a ``host:port`` endpoint string (a
        :class:`~repro.pipeline.remote.RemoteCacheClient` is built from
        it) or an existing client instance, shared with the per-stage
        sub-cache.  Lookup order is memory -> disk -> remote; remote hits
        are promoted into the local tiers, stores upload asynchronously
        (write-behind), and a dead or slow remote degrades to local-only
        -- it can never fail a compile.

    The cache is thread-safe: the batch driver's thread executor shares one
    instance across all workers.
    """

    def __init__(
        self,
        max_entries: int = 128,
        cache_dir: Optional[str | Path] = None,
        max_disk_bytes: Optional[int] = None,
        remote: Optional[object] = None,
    ) -> None:
        if max_disk_bytes is not None and max_disk_bytes < 0:
            raise ValueError("max_disk_bytes must be >= 0")
        if isinstance(remote, str):
            from repro.pipeline.remote import RemoteCacheClient

            remote = RemoteCacheClient.from_url(remote)
        self.max_entries = max_entries
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.max_disk_bytes = max_disk_bytes
        self.remote = remote
        self._store = TieredStore(
            RESULT_NAMESPACE, SHARED, max_entries, cache_dir=self.cache_dir, remote=remote
        )
        #: The store's counters (``hits``/``misses``/``stores``/... ).
        self.stats: CacheStats = self._store.stats
        from repro.pipeline.stages import StageCache

        self.stages = StageCache(
            cache_dir=self.cache_dir, max_disk_bytes=max_disk_bytes, remote=remote
        )
        # Apply the budget to whatever is already on disk: a store that only
        # ever *hits* would otherwise never shrink after a budget decrease.
        if self.cache_dir is not None and self.cache_dir.is_dir():
            self.enforce_disk_budget()

    def key_for(
        self,
        sources: Sequence[tuple[str, str]] | Sequence[str],
        options: "Mapping[str, object] | CompileOptions | None" = None,
    ) -> str:
        """Content-address of one compilation (see :func:`fingerprint_sources`)."""
        return fingerprint_sources(sources, options)

    def get(self, key: str) -> Optional[CompilationResult]:
        """Return the cached result for ``key`` or ``None`` on a miss.

        Lookup order: in-memory LRU, local disk, then the remote tier
        (when one is configured).  A remote hit is promoted into both
        local tiers so the next process start over the same ``cache_dir``
        hits disk without touching the network.
        """
        return self._store.get(key, CompilationResult)

    def put(self, key: str, result: CompilationResult, *, disk: bool = True) -> None:
        """Store a result under its content address (memory, disk, remote).

        ``disk=False`` populates only the in-memory tier -- used when the
        on-disk artefact is known to exist already (e.g. a process-pool
        worker stored it), to avoid re-pickling the result.  The remote
        upload (when a remote is configured) is write-behind: the pickled
        payload is queued and the compile path never waits on the network.
        """
        self._store.put(key, result, disk=disk)
        if disk:
            self.enforce_disk_budget()

    def absorb_hit(self, key: str, result: CompilationResult) -> None:
        """Fold in a hit observed by another process over the same disk store.

        Process-pool workers do their lookups in their own cache instances;
        the parent calls this per warm result so its stats reflect the batch
        ("cached" designs <=> recorded hits) and its memory tier warms up.
        """
        self._store.absorb(key, result)

    def contains(self, key: str) -> bool:
        """Whether ``key`` would hit, without touching stats or LRU order."""
        return self._store.contains(key)

    def clear(self, *, disk: bool = False) -> None:
        """Drop the in-memory tiers (and, optionally, the on-disk store).

        Cascades to the per-stage sub-cache: a cleared cache serves no warm
        artefacts of any kind, and ``disk=True`` reclaims the whole
        directory including ``stages/`` and leaked ``*.tmp`` files.
        """
        self._store.clear(disk=disk)
        self.stages.clear(disk=disk)

    def __len__(self) -> int:
        return len(self._store)

    def stats_snapshot(self) -> dict[str, object]:
        """A consistent copy of the counters, taken under the store lock.

        Reading :attr:`stats` lock-free (as ``stats.as_dict()`` does) can
        observe a torn set of counters -- e.g. a ``hits`` that already
        includes a lookup whose ``disk_hits`` increment it misses.  Status
        endpoints (``Workspace.stats``, the compile service's ``stats``
        method, the CLI JSON payloads) read through this snapshot instead.
        With a remote tier configured the snapshot carries its per-tier
        counters under a nested ``"remote"`` key (hits / misses / bytes /
        errors / endpoint health).
        """
        snapshot: dict[str, object] = dict(self._store.stats_snapshot())
        if self.remote is not None:
            remote_snapshot = getattr(self.remote, "stats_snapshot", None)
            snapshot["remote"] = (
                remote_snapshot() if remote_snapshot is not None else None
            )
        return snapshot

    def enforce_disk_budget(self) -> int:
        """Apply ``max_disk_bytes`` to the on-disk store (both tiers)."""
        if self.cache_dir is None or self.max_disk_bytes is None:
            return 0
        evicted = evict_lru_files(self.cache_dir, self.max_disk_bytes)
        if evicted:
            self._store.count("disk_evictions", evicted)
        return evicted
