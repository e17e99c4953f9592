"""Per-stage sub-caching for the Figure-3 frontend pipeline.

The whole-result cache of :mod:`repro.pipeline.cache` only hits when an
*entire* design -- every source file plus every option -- is byte-identical.
Editing one file of an N-file design therefore recompiled everything from
scratch, even though the paper's staged frontend (parse -> evaluate ->
sugar -> DRC) produces stable intermediate artefacts that are individually
reusable.  :class:`StageCache` exploits exactly that structure:

* **Per-file parse cache** -- every source file is fingerprinted
  individually (:func:`file_fingerprint`) and its parsed
  :class:`~repro.lang.ast.SourceUnit` is memoised, so a one-file edit
  re-parses only the edited file.  Cached ASTs are shared (the evaluator
  only reads declarations -- the same immutability contract that lets
  ``compile_sources`` share its memoised stdlib AST).
* **Evaluate snapshot cache** -- the post-evaluate state (the evaluated
  :class:`~repro.ir.model.Project`, its diagnostics, the evaluate stage-log
  entry) is pickled and keyed by the ordered sequence of contributing file
  fingerprints plus the evaluate-relevant options.  Compilations that differ
  only in the *downstream* options (``sugaring`` / ``run_drc`` /
  ``strict_drc``) reuse the snapshot and re-run only sugar -> DRC on a
  fresh deserialised copy; the snapshot itself is never mutated.  Units are
  deliberately *not* part of the snapshot: the parse tier already holds
  them, so a snapshot hit reconstructs the unit list through
  :meth:`StageCache.cached_parse` (all hits) and keeps the pickled payload
  small -- the project is typically an order of magnitude lighter than the
  ASTs it was evaluated from.
* **Ingest snapshot cache** -- the post-ingest state of a Tydi-IR
  interchange document (:meth:`StageCache.compile_ir`) is pickled and keyed
  on the document fingerprint (``iringest-<key>.pkl``), so re-opening the
  same document skips parsing and referential validation entirely.
* **Per-implementation backend-output cache** -- every requested output
  backend's unit files (one implementation's VHDL file, IR section, DOT
  cluster; see :mod:`repro.backends`) are memoised under the
  implementation's emission-subgraph fingerprint + backend name + backend
  options (:meth:`StageCache.backend_unit_key`), so a one-file edit
  re-emits only the implementations it actually changed -- the remaining
  uncached stage left open by PR 2.

Each tier is one :class:`~repro.pipeline.store.TieredStore` (namespaces
``ast`` / ``eval`` / ``iringest`` / ``backend`` / ``sim``): a bounded
memory LRU and, when ``cache_dir`` is set, ``<cache_dir>/stages/<ns>-<key>.pkl``
on disk, then the remote L2.  A ``max_disk_bytes`` budget is enforced over
the *whole* cache directory -- whole-result artefacts included -- via
LRU-by-mtime eviction, so per-stage artefacts cannot grow ``.tydi-cache/``
without bound.

:meth:`StageCache.compile` composes the *same* stage functions as the
monolithic ``compile_sources`` (:func:`repro.lang.compile.parse_stage` and
friends), which is what makes the staged pipeline provably equivalent to a
cold monolithic compile -- the property the differential harness
(``tests/test_stage_differential.py``) asserts over randomized designs and
edits.
"""

from __future__ import annotations

import hashlib
import threading
from pathlib import Path
from typing import Mapping, Optional, Sequence

from repro.errors import DiagnosticSink
from repro.lang.ast import SourceUnit
from repro.lang.compile import (
    IR_STAGE_DETAIL,
    CompilationResult,
    CompilationStage,
    CompileOptions,
    backend_stage,
    drc_stage,
    evaluate_stage,
    normalize_sources,
    normalize_targets,
    parse_stage,
    sugar_stage,
)
from repro.lang.parser import parse_source
from repro.pipeline.cache import (
    CACHE_VERSION,
    STAGE_SCHEMA_VERSION,
    canonical_option_repr,
)
from repro.pipeline.store import (
    PICKLED,
    SHARED,
    STAGE_DIR_NAME,  # noqa: F401 - part of this module's public surface
    TieredStore,
    evict_lru_files,
)

#: The five stage tiers: ``StageStats`` counter prefix, store namespace and
#: codec.  ASTs, backend units and simulation reports are read-only and
#: shared; evaluate and ingest snapshots are mutated by sugar/DRC, so every
#: hit unpickles a fresh copy.
STAGE_TIERS = (
    ("parse", "ast", SHARED),
    ("evaluate", "eval", PICKLED),
    ("ingest", "iringest", PICKLED),
    ("backend", "backend", SHARED),
    ("sim", "sim", SHARED),
)

#: In-memory LRU capacity of each stage tier, by store namespace.
STAGE_CAPACITY = {"ast": 512, "eval": 64, "iringest": 64, "backend": 1024, "sim": 128}

#: Options that change the outcome of parse+evaluate (and therefore
#: participate in the snapshot key).  ``sugaring`` / ``run_drc`` /
#: ``strict_drc`` / ``targets`` deliberately do not: flipping them reuses
#: the snapshot (a new backend target re-runs sugar -> DRC -> emit only).
EVALUATE_OPTIONS = ("top", "top_args", "include_stdlib", "project_name")


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
    ``disk_errors`` sum over the five stores; ``disk_evictions`` counts
    the cache's budget passes.
    """

    def __init__(self, stores: Mapping[str, TieredStore]) -> None:
        self._stores = stores
        self.disk_evictions = 0

    def as_dict(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        disk = dict.fromkeys(("disk_hits", "disk_stores", "disk_errors"), 0)
        for stage, namespace, _ in STAGE_TIERS:
            tier = self._stores[namespace].stats_snapshot()
            counts[f"{stage}_hits"] = tier["hits"]
            counts[f"{stage}_misses"] = tier["stores"]
            for name in disk:
                disk[name] += tier[name]
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


class StageCache:
    """Memoises every frontend and backend stage artefact in five stores.

    Parameters
    ----------
    cache_dir:
        Root of the on-disk store (shared with a
        :class:`~repro.pipeline.cache.CompilationCache` when this instance
        is owned by one); per-stage artefacts live under
        ``<cache_dir>/stages/``.
    max_disk_bytes:
        Byte budget enforced over ``cache_dir`` (recursively) after every
        compile; least-recently-used ``*.pkl`` artefacts are deleted first.
    remote:
        The shared remote L2 tier (a :class:`~repro.pipeline.remote.
        RemoteCacheClient`, usually the owning
        :class:`~repro.pipeline.cache.CompilationCache`'s).  Each tier
        consults it after its local miss, promotes remote hits into memory
        + disk, and uploads fresh artefacts write-behind.  A dead remote
        degrades to local-only.

    The memory capacity of each tier comes from :data:`STAGE_CAPACITY`.
    Thread-safe; one instance may serve every worker of a thread-executor
    batch.
    """

    def __init__(
        self,
        *,
        cache_dir: Optional[str | Path] = None,
        max_disk_bytes: Optional[int] = None,
        remote: Optional[object] = None,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.max_disk_bytes = max_disk_bytes
        if isinstance(remote, str):
            from repro.pipeline.remote import RemoteCacheClient

            remote = RemoteCacheClient.from_url(remote)
        self.remote = remote
        self._stores = {
            namespace: TieredStore(
                namespace,
                codec,
                STAGE_CAPACITY[namespace],
                cache_dir=self.cache_dir,
                remote=remote,
            )
            for _, namespace, codec in STAGE_TIERS
        }
        self.stats = StageStats(self._stores)
        self._lock = threading.Lock()

    # -- keying ---------------------------------------------------------------

    def evaluate_key(
        self,
        sources: Sequence[tuple[str, str]] | Sequence[str],
        options: "Mapping[str, object] | CompileOptions | None" = None,
    ) -> str:
        """Snapshot key: ordered file fingerprints + evaluate options."""
        if isinstance(options, CompileOptions):
            options = options.as_dict()
        options = dict(options or {})
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

    def ingest_key(self, text: str) -> str:
        """Snapshot key of one Tydi-IR interchange document: its fingerprint.

        The document *is* the complete post-evaluate state (no options
        participate -- the evaluate-only options are ignored by ingest, and
        the downstream ones key nothing before sugar), so the content hash
        plus the stage salt fully addresses the ingested project.
        """
        hasher = hashlib.sha256()
        hasher.update(_stage_salt().encode())
        hasher.update(b"\x00iringest\x00")
        hasher.update(text.encode())
        return hasher.hexdigest()

    def sim_key(
        self,
        sources: Sequence[tuple[str, str]] | Sequence[str],
        options: "Mapping[str, object] | CompileOptions | None",
        plan,
    ) -> str:
        """Cache key of one simulation: the design's evaluate fingerprint
        plus the :class:`repro.sim.harness.SimulationPlan` fingerprint.

        Downstream-only options (``sugaring`` / ``targets`` / ...) do not
        participate -- they cannot change what the simulator elaborates --
        so recompiling for a new backend target keeps sim reports warm.
        """
        hasher = hashlib.sha256()
        hasher.update(_stage_salt().encode())
        hasher.update(b"\x00sim\x00")
        hasher.update(self.evaluate_key(sources, options).encode())
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

    def emit_backend(self, project, backend) -> dict[str, str]:
        """Emit one backend over ``project`` with per-implementation caching.

        Byte-identical to ``backend.emit(project)`` (same assemble over the
        same units -- the composition law of :class:`repro.backends.base.
        Backend`), but every unchanged implementation's unit output is
        served from the cache.  A warm call costs little more than keying,
        so the key prefix is hashed, and each implementation's metadata
        and streamlet signature rendered, once per call.

        Disk stores defer their budget pass to the caller (the single
        per-compile pass in :meth:`compile`); standalone callers with a
        ``max_disk_bytes`` budget should call :meth:`enforce_disk_budget`
        after a burst of emissions.
        """
        from repro.backends import implementation_fingerprint

        store = self._stores["backend"]
        prefix = _backend_key_prefix(backend)
        tokens: dict[str, tuple[str, str]] = {}
        units: dict[str, dict[str, str]] = {}
        for name, implementation in project.implementations.items():
            hasher = prefix.copy()
            hasher.update(implementation_fingerprint(project, implementation, tokens).encode())
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
        """Run the staged pipeline: cached parse/evaluate, then sugar + DRC.

        ``options`` is a :class:`~repro.lang.compile.CompileOptions` or the
        legacy (possibly partial) options mapping.  Produces a
        :class:`~repro.lang.compile.CompilationResult` that is
        byte-identical (IR text, diagnostics, stage log) to what a cold
        monolithic ``compile_sources`` call with the same inputs produces,
        including raising the same exceptions on parse / evaluate / strict
        DRC failures.
        """
        normalized = normalize_sources(sources)
        if isinstance(options, CompileOptions):
            options = options.as_dict()
        options = dict(options or {})
        include_stdlib = options.get("include_stdlib", True)

        eval_key = self.evaluate_key(normalized, options)
        snapshot = self._stores["eval"].get(eval_key, tuple)
        # The unit list is served by the parse tier either way; on a
        # snapshot hit every file is a parse-cache hit (shared, immutable
        # ASTs), so only the mutable project/diagnostics ride in the pickle.
        units, parse_entry = parse_stage(
            normalized, include_stdlib=include_stdlib, parse_file=self.cached_parse
        )
        if snapshot is not None:
            project, diagnostics, evaluate_entry = snapshot
            stages = [parse_entry, evaluate_entry]
        else:
            diagnostics = DiagnosticSink()
            # Values pass through verbatim (same defaults as compile_sources,
            # no falsy coercion): a degenerate option like project_name=""
            # must behave identically on the staged and monolithic paths.
            project, evaluate_entry = evaluate_stage(
                units,
                diagnostics,
                top=options.get("top"),
                top_args=options.get("top_args", ()),
                project_name=options.get("project_name", "design"),
            )
            stages = [parse_entry, evaluate_entry]
            # Snapshot *before* sugaring: sugar/DRC mutate the project, and
            # the stored bytes must stay the pristine post-evaluate state.
            self._stores["eval"].put(eval_key, (project, diagnostics, evaluate_entry))

        sugaring_report = None
        if options.get("sugaring", True):
            sugaring_report, sugar_entry = sugar_stage(project, diagnostics)
            stages.append(sugar_entry)

        drc_report = None
        if options.get("run_drc", True):
            drc_report, drc_entry = drc_stage(
                project, diagnostics, strict=options.get("strict_drc", True)
            )
            stages.append(drc_entry)

        stages.append(CompilationStage("ir", IR_STAGE_DETAIL))

        # The backend stage, with per-implementation unit outputs served by
        # this cache (the monolithic path emits the same bytes uncached).
        outputs, backend_entries = backend_stage(
            project,
            normalize_targets(options.get("targets", ())),
            backend_options=options.get("backend_options", ()),
            stage_cache=self,
        )
        stages.extend(backend_entries)
        # One budget pass per compile (stores above defer theirs): a full
        # rglob scan per artefact would make eviction O(files x entries).
        self.enforce_disk_budget()
        return CompilationResult(
            project=project,
            diagnostics=diagnostics,
            stages=stages,
            sugaring=sugaring_report,
            drc=drc_report,
            units=list(units),
            outputs=outputs,
        )

    def compile_ir(
        self,
        text: str,
        options: "Mapping[str, object] | CompileOptions | None" = None,
        *,
        filename: str = "<tydi-ir>",
    ) -> CompilationResult:
        """Run the ingest pipeline with a memoised ingest stage.

        The staged twin of :func:`repro.interchange.pipeline.
        compile_ir_document`: the post-ingest project (plus its stage-log
        entry) is pickled under :meth:`ingest_key` -- the ``iringest`` tier
        -- so re-opening the same document skips parsing and validation
        entirely; sugar/DRC re-run on a fresh deserialised copy, and the
        backend stage rides the per-implementation unit cache as usual.
        Byte-identical to the uncached composition, as the differential
        suite asserts.  Ingest errors propagate unchanged and are never
        cached.
        """
        from repro.interchange.pipeline import ingest_stage

        if isinstance(options, CompileOptions):
            options = options.as_dict()
        options = dict(options or {})

        key = self.ingest_key(text)
        snapshot = self._stores["iringest"].get(key, tuple)
        if snapshot is not None:
            project, ingest_entry = snapshot
        else:
            project, ingest_entry = ingest_stage(text, filename=filename)
            # Snapshot *before* sugaring: sugar/DRC mutate the project, and
            # the stored bytes must stay the pristine post-ingest state.
            self._stores["iringest"].put(key, (project, ingest_entry))

        diagnostics = DiagnosticSink()
        stages: list[CompilationStage] = [ingest_entry]

        sugaring_report = None
        if options.get("sugaring", True):
            sugaring_report, sugar_entry = sugar_stage(project, diagnostics)
            stages.append(sugar_entry)

        drc_report = None
        if options.get("run_drc", True):
            drc_report, drc_entry = drc_stage(
                project, diagnostics, strict=options.get("strict_drc", True)
            )
            stages.append(drc_entry)

        stages.append(CompilationStage("ir", IR_STAGE_DETAIL))

        outputs, backend_entries = backend_stage(
            project,
            normalize_targets(options.get("targets", ())),
            backend_options=options.get("backend_options", ()),
            stage_cache=self,
        )
        stages.extend(backend_entries)
        self.enforce_disk_budget()
        return CompilationResult(
            project=project,
            diagnostics=diagnostics,
            stages=stages,
            sugaring=sugaring_report,
            drc=drc_report,
            units=[],
            outputs=outputs,
        )

    # -- maintenance ----------------------------------------------------------

    def clear(self, *, disk: bool = False) -> None:
        """Drop the in-memory tiers (and, optionally, the on-disk artefacts)."""
        for store in self._stores.values():
            store.clear(disk=disk)

    def __len__(self) -> int:
        return sum(len(store) for store in self._stores.values())

    def enforce_disk_budget(self) -> int:
        """Apply ``max_disk_bytes`` over the whole cache directory."""
        if self.cache_dir is None or self.max_disk_bytes is None:
            return 0
        evicted = evict_lru_files(self.cache_dir, self.max_disk_bytes)
        if evicted:
            with self._lock:
                self.stats.disk_evictions += evicted
        return evicted

    def stats_snapshot(self) -> dict[str, int]:
        """A copy of the counters, each store's read under its own lock.

        The per-stage sibling of :meth:`repro.pipeline.cache.
        CompilationCache.stats_snapshot`: status endpoints read the
        counters through this snapshot, never a torn set of one tier's.
        """
        return self.stats.as_dict()
