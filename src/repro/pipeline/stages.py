"""The compilation cache: per-stage memoisation of the Figure-3 pipeline.

Every backend consumes one checked, typed project, so that is what the
cache snapshots.  :class:`StageCache` holds four tiers:

* **Per-file parse cache** -- every source file is fingerprinted
  individually (:func:`file_fingerprint`) and its parsed
  :class:`~repro.lang.ast.SourceUnit` is memoised, so a one-file edit
  re-parses only the edited file.  Cached ASTs are shared (the evaluator
  only reads declarations -- the same immutability contract that lets
  ``compile_sources`` share its memoised stdlib AST).
* **Frontend snapshot cache** -- the post-DRC state
  (:class:`~repro.lang.compile.FrontendState`: the stage-log entries from
  parse to DRC, the project, its diagnostics and the sugaring and DRC
  reports) is keyed by the ordered file fingerprints plus every option
  that parse, evaluate, sugar and DRC read (:meth:`StageCache.
  snapshot_key`).  A hit runs no frontend stage and reads no AST; only the
  backend stage runs.  Backends and the simulator only read the project,
  so the snapshot is shared, never copied.  A Tydi-IR interchange
  document gets the same snapshot (:meth:`StageCache.compile_ir`), keyed
  by the document text plus the sugar and DRC options
  (:meth:`StageCache.ir_snapshot_key`).
* **Per-implementation backend-output cache** -- every requested output
  backend's unit files (one implementation's VHDL file, IR section, DOT
  cluster; see :mod:`repro.backends`) are memoised under the
  implementation's emission-subgraph fingerprint + backend name + backend
  options (:meth:`StageCache.backend_unit_key`), so a one-file edit
  re-emits only the implementations it actually changed.
* **Simulation reports**, keyed by the frontend snapshot key plus the
  plan fingerprint (:meth:`StageCache.sim_key`).

Each tier is one :class:`~repro.pipeline.store.TieredStore` (namespaces
``ast`` / ``eval`` / ``backend`` / ``sim``): a bounded memory LRU and, when
``cache_dir`` is set, a row of the dir's one SQLite database
(``<cache_dir>/stages.sqlite3``), then the remote L2.  A ``max_disk_bytes``
budget reads the database's byte ledger once per compile and evicts the
least recently used rows.

:meth:`StageCache.compile` runs the *same* frontend and backend functions
as the monolithic ``compile_sources``
(:func:`repro.lang.compile.run_frontend` and
:func:`~repro.lang.compile.run_backends`), which is what makes the staged
pipeline provably equivalent to a cold monolithic compile -- the property
the differential harness (``tests/test_stage_differential.py``) asserts
over randomized designs and edits.
"""

from __future__ import annotations

import hashlib
import threading
from pathlib import Path
from typing import Mapping, Optional, Sequence

from repro.lang.ast import SourceUnit
from repro.lang.compile import (
    CompilationResult,
    CompileOptions,
    FrontendState,
    normalize_sources,
    run_backends,
    run_frontend,
)
from repro.lang.parser import parse_source
from repro.pipeline.cache import (
    CACHE_VERSION,
    STAGE_SCHEMA_VERSION,
    canonical_option_repr,
)
from repro.pipeline.store import DiskFault, TieredStore, disk_tier, remove_retired_layout

#: The four stage tiers: ``StageStats`` counter prefix and store namespace.
STAGE_TIERS = (
    ("parse", "ast"),
    ("evaluate", "eval"),
    ("backend", "backend"),
    ("sim", "sim"),
)

#: In-memory LRU capacity of each stage tier, by store namespace.
STAGE_CAPACITY = {"ast": 512, "eval": 64, "backend": 1024, "sim": 128}

#: Options that change the outcome of parse+evaluate.
EVALUATE_OPTIONS = ("top", "top_args", "include_stdlib", "project_name")
#: Options that sugar and DRC read; with :data:`EVALUATE_OPTIONS` they key
#: the frontend snapshot.  ``targets`` / ``backend_options`` do not: a new
#: backend target reuses the snapshot and runs only the backend stage.
CHECK_OPTIONS = ("sugaring", "run_drc", "strict_drc")


def _stage_salt() -> str:
    import repro

    return f"tydi-stage-v{CACHE_VERSION}.{STAGE_SCHEMA_VERSION}:compiler-{repro.__version__}"


def file_fingerprint(text: str, filename: str) -> str:
    """Stable content address of one source file (text + diagnostic name).

    The filename participates because it is embedded in spans, diagnostics
    and stage logs: the same text under a different name is a different
    parse artefact.
    """
    hasher = hashlib.sha256()
    hasher.update(_stage_salt().encode())
    hasher.update(b"\x00file\x00")
    hasher.update(filename.encode())
    hasher.update(b"\x00")
    hasher.update(text.encode())
    return hasher.hexdigest()


def _options_mapping(options: "Mapping[str, object] | CompileOptions | None") -> Mapping[str, object]:
    """The ``{option: value}`` form the key recipes read."""
    if isinstance(options, CompileOptions):
        return options.as_dict()
    return options or {}


def _with_check_options(base: str, options: Mapping[str, object]) -> str:
    """A frontend snapshot key: ``base`` (what built the project) plus
    :data:`CHECK_OPTIONS` (each defaulting to ``True``, as in
    :class:`~repro.lang.compile.CompileOptions`)."""
    hasher = hashlib.sha256()
    hasher.update(base.encode())
    for name in CHECK_OPTIONS:
        hasher.update(b"\x00opt\x00")
        hasher.update(name.encode())
        hasher.update(b"=")
        hasher.update(canonical_option_repr(options.get(name, True)).encode())
    return hasher.hexdigest()


def _backend_key_prefix(backend):
    """The hash state every :meth:`StageCache.backend_unit_key` of
    ``backend`` starts from: salt, backend name and options token."""
    hasher = hashlib.sha256()
    hasher.update(_stage_salt().encode())
    hasher.update(b"\x00backend\x00")
    hasher.update(backend.name.encode())
    hasher.update(b"\x00options\x00")
    hasher.update(backend.options.token().encode())
    hasher.update(b"\x00impl\x00")
    return hasher


class StageStats:
    """The counters of a :class:`StageCache`, read live from its stores.

    ``<stage>_hits`` counts lookups any tier answered.  ``<stage>_misses``
    counts recomputed artefacts as they are stored, so a stage that raises
    (a parse error) counts nothing.  ``disk_hits`` / ``disk_stores`` /
    ``disk_errors`` sum over the four stores, and ``disk_errors`` also
    counts failed budget passes and clears; ``disk_evictions`` counts the
    rows the cache's budget passes deleted.
    """

    def __init__(self, stores: Mapping[str, TieredStore]) -> None:
        self._stores = stores
        self.disk_evictions = 0
        self.maintenance_errors = 0

    def as_dict(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        disk = dict.fromkeys(("disk_hits", "disk_stores", "disk_errors"), 0)
        for stage, namespace in STAGE_TIERS:
            tier = self._stores[namespace].stats_snapshot()
            counts[f"{stage}_hits"] = tier["hits"]
            counts[f"{stage}_misses"] = tier["stores"]
            for name in disk:
                disk[name] += tier[name]
        disk["disk_errors"] += self.maintenance_errors
        counts.update(disk, disk_evictions=self.disk_evictions)
        return counts

    def __getattr__(self, name: str) -> int:
        counts = {} if name.startswith("_") else self.as_dict()
        if name not in counts:
            raise AttributeError(name)
        return counts[name]

    def reset(self) -> None:
        for store in self._stores.values():
            store.stats.reset()
        self.disk_evictions = 0
        self.maintenance_errors = 0


class StageCache:
    """The compilation cache: every stage artefact, in four tiered stores.

    Parameters
    ----------
    cache_dir:
        Root of the on-disk store; artefacts live in the SQLite database
        ``<cache_dir>/stages.sqlite3``.
    max_disk_bytes:
        Budget on the stored blob bytes, enforced on opening and after
        every compile; least-recently-used rows are deleted first.  A
        budgeted open also deletes what the retired one-file-per-blob
        layout left in ``cache_dir``.
    remote:
        The shared remote L2 tier: a ``host:port`` endpoint string (a
        :class:`~repro.pipeline.remote.RemoteCacheClient` is built from
        it) or an existing client.  Each tier consults it after its local
        miss, promotes remote hits into memory + disk, and uploads fresh
        artefacts write-behind.  A dead remote degrades to local-only.

    The memory capacity of each tier comes from :data:`STAGE_CAPACITY`.
    Thread-safe: one instance may serve concurrent queries.
    """

    def __init__(
        self,
        *,
        cache_dir: Optional[str | Path] = None,
        max_disk_bytes: Optional[int] = None,
        remote: Optional[object] = None,
    ) -> None:
        if max_disk_bytes is not None and max_disk_bytes < 0:
            raise ValueError("max_disk_bytes must be >= 0")
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.max_disk_bytes = max_disk_bytes
        if isinstance(remote, str):
            from repro.pipeline.remote import RemoteCacheClient

            remote = RemoteCacheClient.from_url(remote)
        self.remote = remote
        self._stores = {
            namespace: TieredStore(
                namespace, STAGE_CAPACITY[namespace], cache_dir=self.cache_dir, remote=remote
            )
            for _, namespace in STAGE_TIERS
        }
        self.stats = StageStats(self._stores)
        self._disk = disk_tier(self.cache_dir) if self.cache_dir is not None else None
        self._lock = threading.Lock()
        # Apply the budget to whatever is already on disk: a store that only
        # ever *hits* would otherwise never shrink after a budget decrease.
        if self.max_disk_bytes is not None and self._disk is not None and self.cache_dir.is_dir():
            remove_retired_layout(self.cache_dir)
            self.enforce_disk_budget()

    # -- keying ---------------------------------------------------------------

    def evaluate_key(
        self,
        sources: Sequence[tuple[str, str]] | Sequence[str],
        options: "Mapping[str, object] | CompileOptions | None" = None,
    ) -> str:
        """Ordered file fingerprints + evaluate options: what parse and
        evaluate read (the base of :meth:`snapshot_key`)."""
        options = _options_mapping(options)
        hasher = hashlib.sha256()
        hasher.update(_stage_salt().encode())
        for name in EVALUATE_OPTIONS:
            hasher.update(b"\x00opt\x00")
            hasher.update(name.encode())
            hasher.update(b"=")
            hasher.update(canonical_option_repr(options.get(name)).encode())
        if options.get("include_stdlib", True):
            from repro.stdlib.source import STDLIB_SOURCE

            hasher.update(b"\x00stdlib\x00")
            hasher.update(STDLIB_SOURCE.encode())
        for text, filename in normalize_sources(sources):
            hasher.update(b"\x00unit\x00")
            hasher.update(file_fingerprint(text, filename).encode())
        return hasher.hexdigest()

    def snapshot_key(
        self,
        sources: Sequence[tuple[str, str]] | Sequence[str],
        options: "Mapping[str, object] | CompileOptions | None" = None,
    ) -> str:
        """Key of one post-DRC frontend snapshot: :meth:`evaluate_key` plus
        :data:`CHECK_OPTIONS`."""
        options = _options_mapping(options)
        return _with_check_options(self.evaluate_key(sources, options), options)

    def ir_snapshot_key(
        self, text: str, options: "Mapping[str, object] | CompileOptions | None" = None
    ) -> str:
        """Key of one Tydi-IR document's post-DRC snapshot: the document
        text plus :data:`CHECK_OPTIONS`.

        The document *is* the complete post-evaluate state, so the
        evaluate-only options (which ingest ignores) do not participate.
        """
        hasher = hashlib.sha256()
        hasher.update(_stage_salt().encode())
        hasher.update(b"\x00tydi-ir\x00")
        hasher.update(text.encode())
        return _with_check_options(hasher.hexdigest(), _options_mapping(options))

    def sim_key(
        self,
        sources: Sequence[tuple[str, str]] | Sequence[str],
        options: "Mapping[str, object] | CompileOptions | None",
        plan,
    ) -> str:
        """Cache key of one simulation: the design's :meth:`snapshot_key`
        plus the :class:`repro.sim.harness.SimulationPlan` fingerprint.

        Sugaring changes what the simulator elaborates, so it participates;
        ``targets`` / ``backend_options`` do not, so recompiling for a new
        backend target keeps sim reports warm.
        """
        hasher = hashlib.sha256()
        hasher.update(_stage_salt().encode())
        hasher.update(b"\x00sim\x00")
        hasher.update(self.snapshot_key(sources, options).encode())
        hasher.update(b"\x00plan\x00")
        hasher.update(plan.fingerprint().encode())
        return hasher.hexdigest()

    def backend_unit_key(self, backend, implementation_key: str) -> str:
        """Cache key of one implementation's output under one backend.

        Keyed by the implementation's emission-subgraph fingerprint
        (:func:`repro.backends.implementation_fingerprint`), the backend
        name, its options token, and -- via the stage salt -- the
        ``STAGE_SCHEMA_VERSION`` and compiler version.
        """
        hasher = _backend_key_prefix(backend)
        hasher.update(implementation_key.encode())
        return hasher.hexdigest()

    # -- the staged pipeline --------------------------------------------------

    def cached_parse(self, text: str, filename: str) -> SourceUnit:
        """Parse one file through the per-file AST cache.

        Drop-in for :func:`repro.lang.parser.parse_source` (it is passed to
        :func:`~repro.lang.compile.parse_stage` as ``parse_file``).  Parse
        errors propagate unchanged and are never cached.
        """
        key = file_fingerprint(text, filename)
        unit = self._stores["ast"].get(key, SourceUnit)
        if unit is None:
            unit = parse_source(text, filename)
            self._stores["ast"].put(key, unit)
        return unit

    def cached_simulation(self, key: str, compute):
        """One plan-driven simulation report, through the ``sim:`` tier.

        ``key`` comes from :meth:`sim_key`; a hit serves the memoised
        :class:`repro.sim.harness.SimulationReport` from memory, disk or
        the remote L2 (promoting as usual) without simulating; a miss calls
        ``compute()`` (expected to return the report) and stores the result
        in every tier.  Served reports are shared: treat them as immutable.
        Simulation errors propagate unchanged and are never cached.
        Standalone callers with a ``max_disk_bytes`` budget should call
        :meth:`enforce_disk_budget` after a burst of stores.
        """
        from repro.sim.harness import SimulationReport

        report = self._stores["sim"].get(key, SimulationReport)
        if report is None:
            report = compute()
            self._stores["sim"].put(key, report)
        return report

    def emit_backend(
        self, project, backend, fingerprints: Optional[dict[str, str]] = None
    ) -> dict[str, str]:
        """Emit one backend over ``project`` with per-implementation caching.

        Byte-identical to ``backend.emit(project)`` (same assemble over the
        same units -- the composition law of :class:`repro.backends.base.
        Backend`), but every unchanged implementation's unit output is
        served from the cache.  A warm call costs little more than keying,
        so the key prefix is hashed, and each implementation's metadata
        and streamlet signature rendered, once per call.

        ``fingerprints`` memoises each implementation's
        :func:`~repro.backends.implementation_fingerprint` by name; pass one
        dict to every call over the same project (any backend), and each
        implementation is fingerprinted once.

        Disk stores defer their budget pass to the caller (the single
        per-compile pass in :meth:`compile`); standalone callers with a
        ``max_disk_bytes`` budget should call :meth:`enforce_disk_budget`
        after a burst of emissions.
        """
        from repro.backends import implementation_fingerprint

        store = self._stores["backend"]
        prefix = _backend_key_prefix(backend)
        if fingerprints is None:
            fingerprints = {}
        tokens: dict[str, tuple[str, str]] = {}
        units: dict[str, dict[str, str]] = {}
        for name, implementation in project.implementations.items():
            fingerprint = fingerprints.get(name)
            if fingerprint is None:
                fingerprint = fingerprints[name] = implementation_fingerprint(
                    project, implementation, tokens
                )
            hasher = prefix.copy()
            hasher.update(fingerprint.encode())
            key = hasher.hexdigest()
            files = store.get(key, dict)
            if files is None:
                files = backend.emit_unit(project, implementation)
                store.put(key, files)
            units[name] = files
        return backend.assemble(project, backend.emit_shared(project), units)

    def compile(
        self,
        sources: Sequence[tuple[str, str]] | Sequence[str],
        options: "Mapping[str, object] | CompileOptions | None" = None,
    ) -> CompilationResult:
        """Compile through the cache: a frontend snapshot, then the backends.

        ``options`` is a :class:`~repro.lang.compile.CompileOptions` or a
        (possibly partial) options mapping.  A snapshot hit runs no
        frontend stage; a miss runs them with per-file cached parses and
        stores the post-DRC state.  Produces a
        :class:`~repro.lang.compile.CompilationResult` that is
        byte-identical (IR text, diagnostics, stage log, outputs) to what a
        cold monolithic ``compile_sources`` call with the same inputs
        produces, including raising the same exceptions on parse /
        evaluate / strict DRC failures (which are never cached).
        """
        normalized = normalize_sources(sources)
        options = CompileOptions.coerce(options)
        return self._compile_snapshot(
            self.snapshot_key(normalized, options),
            lambda: run_frontend(normalized, options, parse_file=self.cached_parse),
            options,
        )

    def compile_ir(
        self,
        text: str,
        options: "Mapping[str, object] | CompileOptions | None" = None,
        *,
        filename: str = "<tydi-ir>",
    ) -> CompilationResult:
        """The ingest twin of :meth:`compile`: one Tydi-IR document through
        the same snapshot tier, then the backends.

        The post-DRC state of :func:`repro.interchange.pipeline.
        ingest_frontend` is stored in the ``eval`` tier under
        :meth:`ir_snapshot_key`, so re-opening the same document with the
        same check options runs no stage.  Byte-identical to the uncached
        :func:`~repro.interchange.pipeline.compile_ir_document`, as the
        differential suite asserts.  Ingest and strict-DRC errors propagate
        unchanged and are never cached.
        """
        from repro.interchange.pipeline import ingest_frontend

        options = CompileOptions.coerce(options)
        return self._compile_snapshot(
            self.ir_snapshot_key(text, options),
            lambda: ingest_frontend(text, options, filename=filename),
            options,
        )

    def _compile_snapshot(self, key: str, frontend, options: CompileOptions) -> CompilationResult:
        """The frontend snapshot under ``key`` (``frontend()`` builds and
        stores it on a miss), then the backends and one budget pass."""
        state = self._stores["eval"].get(key, FrontendState)
        if state is None:
            state = frontend()
            self._stores["eval"].put(key, state)
        result = run_backends(state, options, stage_cache=self)
        self.enforce_disk_budget()
        return result

    # -- maintenance ----------------------------------------------------------

    def clear(self, *, disk: bool = False) -> None:
        """Drop the in-memory tiers and, with ``disk``, every row of the
        database (emptied in place) and what the retired one-file-per-blob
        layout left in ``cache_dir``."""
        for store in self._stores.values():
            store.clear()
        if disk and self._disk is not None:
            remove_retired_layout(self.cache_dir)
            try:
                self._disk.clear()
            except DiskFault:
                with self._lock:
                    self.stats.maintenance_errors += 1

    def __len__(self) -> int:
        return sum(len(store) for store in self._stores.values())

    def enforce_disk_budget(self) -> int:
        """Write the recency stamps disk hits queued, then apply
        ``max_disk_bytes``: read the byte ledger and, when it is over,
        delete least-recently-used rows through an index.  Scans no
        directory; the number of rows deleted."""
        if self._disk is None:
            return 0
        try:
            self._disk.refresh()
            if self.max_disk_bytes is None:
                return 0
            evicted = self._disk.evict(self.max_disk_bytes)
        except DiskFault:
            with self._lock:
                self.stats.maintenance_errors += 1
            return 0
        if evicted:
            with self._lock:
                self.stats.disk_evictions += evicted
        return evicted

    def stats_snapshot(self) -> dict[str, int]:
        """A copy of the counters, each store's read under its own lock.

        Status endpoints read the counters through this snapshot, never a
        torn set of one tier's.
        """
        return self.stats.as_dict()
