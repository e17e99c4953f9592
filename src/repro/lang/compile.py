"""Compile driver: the full Tydi-lang frontend pipeline of Figure 3.

This module owns the *definitions* the whole toolchain shares: the stage
functions, :func:`normalize_sources` (strictly-validated input normal
form), and :class:`CompileOptions` -- the one frozen dataclass every layer
(one-shot compiles, :class:`repro.workspace.Workspace` designs,
:class:`repro.pipeline.batch.CompileJob`, the CLI) uses to describe a
compilation, with one ``fingerprint()`` recipe behind every cache key.

``compile_sources`` -- now a one-shot shim over a throwaway
:class:`repro.workspace.Workspace` session -- runs:

1. **parse** every source file into an AST (:mod:`repro.lang.parser`),
2. **evaluate / expand** templates and generative syntax into a flat design
   (:mod:`repro.lang.evaluate`),
3. **sugar** the design -- automatic duplicator/voider insertion
   (:mod:`repro.lang.sugaring`),
4. **design rule check** (:mod:`repro.lang.drc`),
5. hand back the Tydi-IR :class:`repro.ir.Project` together with all reports.

Each of the four boxes is exposed as a composable function --
:func:`parse_stage`, :func:`evaluate_stage`, :func:`sugar_stage`,
:func:`drc_stage` -- each returning its artefact together with the
:class:`CompilationStage` log entry it contributes.  ``compile_sources``
is the monolithic composition of the four (:func:`run_frontend`, then
:func:`run_backends`); the per-stage cache
(:class:`repro.pipeline.stages.StageCache`) runs the *same* two functions
with memoised ASTs and post-DRC snapshots, which is what makes the staged
and monolithic pipelines provably equivalent (see
``tests/test_stage_differential.py``).

The stage log recorded on the result mirrors the "code structure #1..#4"
progression in the paper's Figure 3 and is what the figure-3 benchmark
regenerates.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Optional, Sequence

from repro.errors import DiagnosticSink, TydiInputError, did_you_mean
from repro.ir.model import Project
from repro.lang.ast import SourceUnit
from repro.lang.drc import DRCReport, check_project
from repro.lang.evaluate import Evaluator, Program
from repro.lang.parser import parse_source
from repro.lang.sugaring import SugaringReport, apply_sugaring
from repro.stdlib.source import STDLIB_SOURCE
from repro.tracing import STAGES

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.pipeline.stages import StageCache


def normalize_sources(
    sources: Sequence[tuple[str, str]] | Sequence[str] | Mapping[str, str],
) -> tuple[tuple[str, str], ...]:
    """Normalise compile inputs to ``(source_text, filename)`` pairs.

    The single definition shared by :func:`compile_sources`, the
    :class:`repro.workspace.Workspace` design store and the pipeline cache's
    fingerprinting (:func:`repro.pipeline.cache.fingerprint_sources`), so
    content addresses can never drift from what actually gets compiled.

    Accepted entry shapes: a bare source string (named ``source_<i>.td``),
    a ``(source_text, filename)`` pair (tuple or list), or -- for the whole
    argument -- a ``{filename: source_text}`` mapping.  Anything else is
    rejected up front with a :class:`~repro.errors.TydiInputError` naming
    the offending index, instead of failing later inside a stage with an
    opaque unpack or attribute error.  Duplicate filenames are rejected for
    the same reason: the second entry would silently shadow the first in
    every file-keyed tier (stage cache, workspace, diagnostics).
    """
    if isinstance(sources, Mapping):
        entries: Sequence[object] = [(text, filename) for filename, text in sources.items()]
    elif isinstance(sources, (str, bytes)):
        raise TydiInputError(
            "sources must be a sequence of source entries, not a single string "
            "(wrap it in a list, or use compile_project)"
        )
    else:
        entries = list(sources)
    normalized: list[tuple[str, str]] = []
    seen: dict[str, int] = {}
    for index, entry in enumerate(entries):
        if isinstance(entry, str):
            pair = (entry, f"source_{index}.td")
        elif isinstance(entry, (tuple, list)):
            if len(entry) != 2:
                raise TydiInputError(
                    f"sources[{index}]: expected a (source_text, filename) pair, "
                    f"got a {len(entry)}-element {type(entry).__name__}"
                )
            text, filename = entry
            if not isinstance(text, str) or not isinstance(filename, str):
                raise TydiInputError(
                    f"sources[{index}]: expected (source_text, filename) strings, "
                    f"got ({type(text).__name__}, {type(filename).__name__})"
                )
            pair = (text, filename)
        else:
            raise TydiInputError(
                f"sources[{index}]: expected a source string or a "
                f"(source_text, filename) pair, got {type(entry).__name__}"
            )
        previous = seen.get(pair[1])
        if previous is not None:
            raise TydiInputError(
                f"sources[{index}]: duplicate filename {pair[1]!r} "
                f"(already used by sources[{previous}])"
            )
        seen[pair[1]] = index
        normalized.append(pair)
    return tuple(normalized)


def normalize_targets(targets: Sequence[str] | None) -> tuple[str, ...]:
    """Normalise a backend target list: ordered, duplicates dropped.

    Shared by :func:`compile_sources`, the per-stage cache and
    :class:`repro.pipeline.batch.CompileJob` so that ``("vhdl", "vhdl")``
    and ``("vhdl",)`` produce the same outputs *and* the same content
    address.
    """
    return tuple(dict.fromkeys(targets or ()))


def normalize_backend_options(value) -> tuple[tuple[str, object], ...]:
    """Normalise per-backend options to a sorted ``((name, options), ...)``.

    Accepts ``None``/``()``, a mapping ``{backend_name: options}`` or an
    iterable of ``(backend_name, options)`` pairs, where each ``options``
    is either the backend's frozen options dataclass instance or a loose
    ``{key: value}`` mapping (coerced through
    :func:`repro.backends.options.options_for_backend`, with did-you-mean
    errors for unknown keys).  Backend names are validated against the
    registry immediately -- an unknown name fails here, at option-building
    time, not later inside the emit stage.
    """
    if not value:
        return ()
    from repro.backends import backend_class
    from repro.backends.options import options_for_backend

    if isinstance(value, Mapping):
        items = list(value.items())
    else:
        items = list(value)
    resolved: dict[str, object] = {}
    for index, entry in enumerate(items):
        if not isinstance(entry, (tuple, list)) or len(entry) != 2:
            raise TydiInputError(
                f"backend_options[{index}]: expected a (backend_name, options) "
                f"pair, got {type(entry).__name__}"
            )
        name, options = entry
        if not isinstance(name, str):
            raise TydiInputError(
                f"backend_options[{index}]: backend name must be a string, "
                f"got {type(name).__name__}"
            )
        cls = backend_class(name)
        if isinstance(options, Mapping):
            options = options_for_backend(cls, options)
        elif not isinstance(options, cls.options_type):
            raise TydiInputError(
                f"backend_options[{index}]: backend {name!r} expects "
                f"{cls.options_type.__name__} (or a key/value mapping), "
                f"got {type(options).__name__}"
            )
        resolved[name] = options
    return tuple(sorted(resolved.items()))


#: The legacy keyword names of :func:`compile_sources`, in the (stable)
#: order the options dict is built in -- the one definition
#: :meth:`CompileOptions.as_dict` and :meth:`CompileOptions.from_kwargs`
#: share with the cache fingerprints.
OPTION_FIELD_NAMES = (
    "top",
    "top_args",
    "include_stdlib",
    "sugaring",
    "run_drc",
    "strict_drc",
    "project_name",
    "targets",
    "backend_options",
)


@dataclass(frozen=True)
class CompileOptions:
    """Every knob of one frontend compilation, as one frozen value.

    This is the single definition of "compile options" across the
    toolchain: :func:`compile_sources` keyword arguments build one,
    :class:`repro.workspace.Workspace` designs and
    :class:`repro.pipeline.batch.CompileJob` carry one, and the cache
    layers key artefacts by :meth:`fingerprint`.  Being frozen (and normalised on construction:
    ``top_args``/``targets`` become tuples, duplicate targets collapse,
    ``backend_options`` sort by backend name) makes an instance safe to
    share across threads and to use as part of a cache identity.

    ``backend_options`` carries per-backend emission options -- see
    :func:`normalize_backend_options` for the accepted shapes; loose
    mappings like ``{"dot": {"rankdir": "TB"}}`` are coerced to the
    backend's frozen options dataclass with did-you-mean validation.
    """

    top: Optional[str] = None
    top_args: tuple[object, ...] = ()
    include_stdlib: bool = True
    sugaring: bool = True
    run_drc: bool = True
    strict_drc: bool = True
    project_name: str = "design"
    targets: tuple[str, ...] = ()
    backend_options: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "top_args", tuple(self.top_args))
        object.__setattr__(self, "targets", normalize_targets(self.targets))
        object.__setattr__(
            self, "backend_options", normalize_backend_options(self.backend_options)
        )

    @classmethod
    def from_kwargs(cls, **kwargs: object) -> "CompileOptions":
        """Build options from keyword arguments, rejecting unknown names.

        Unlike the raw constructor's ``TypeError``, the error is a
        :class:`~repro.errors.TydiInputError` naming the bad key with a
        did-you-mean suggestion -- the validation layer behind
        ``Workspace.add_design(options={...})`` and the CLI.
        """
        for key in kwargs:
            if key not in OPTION_FIELD_NAMES:
                raise TydiInputError(
                    f"unknown compile option {key!r}"
                    f"{did_you_mean(key, OPTION_FIELD_NAMES)} "
                    f"(valid options: {', '.join(OPTION_FIELD_NAMES)})"
                )
        return cls(**kwargs)  # type: ignore[arg-type]

    @classmethod
    def coerce(cls, value: "CompileOptions | Mapping[str, object] | None") -> "CompileOptions":
        """Normalise ``None`` / a mapping / an instance to an instance."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            return cls.from_kwargs(**value)
        raise TydiInputError(
            f"options must be a CompileOptions, a mapping or None, "
            f"got {type(value).__name__}"
        )

    def replace(self, **changes: object) -> "CompileOptions":
        """A copy with some fields replaced (unknown names rejected)."""
        for key in changes:
            if key not in OPTION_FIELD_NAMES:
                return self.from_kwargs(**changes)  # raises with did-you-mean
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    def as_dict(self) -> dict[str, object]:
        """The legacy ``compile_sources`` options dict (the fingerprint form).

        The returned dict is fresh and mutable; its key set and value
        normal forms are what every cache fingerprint hashes, so two paths
        that agree on an instance agree on every content address.
        """
        return {name: getattr(self, name) for name in OPTION_FIELD_NAMES}

    def backend_options_for(self, name: str):
        """The options instance configured for backend ``name`` (or None)."""
        for backend_name, options in self.backend_options:
            if backend_name == name:
                return options
        return None

    def fingerprint(
        self, sources: Sequence[tuple[str, str]] | Sequence[str], *, kind: str = "lang"
    ) -> str:
        """Content address of one compilation: these options over ``sources``
        through the ``kind`` frontend (``"lang"`` or ``"ir"``).

        The one fingerprint definition shared by
        :meth:`repro.pipeline.batch.CompileJob.fingerprint`,
        :class:`repro.workspace.Workspace` invalidation and the CLI
        (delegates to :func:`repro.pipeline.cache.fingerprint_sources`).
        """
        from repro.pipeline.cache import fingerprint_sources

        return fingerprint_sources(sources, self.as_dict(), kind=kind)


@lru_cache(maxsize=4)
def _parsed_stdlib(source_text: str) -> SourceUnit:
    """Parse the standard library once per distinct source text.

    Every compilation with ``include_stdlib=True`` prepends the same ~200
    lines of stdlib source; lexing and parsing them dominated short compiles,
    so the parsed AST is memoised.  On a *cold* process the first call is
    served from the precompiled pickled snapshot shipped with the package
    (:mod:`repro.stdlib.snapshot`) when its version stamp matches -- any
    mismatch falls back to a live parse.  The AST is treated as immutable by
    every later stage (evaluation only reads declarations), which makes
    sharing one unit across compilations safe.
    """
    if source_text == STDLIB_SOURCE:
        from repro.stdlib.snapshot import load_stdlib_unit

        unit = load_stdlib_unit()
        if unit is not None:
            return unit
    return parse_source(source_text, "std.td")


@dataclass
class CompilationStage:
    """One entry of the stage log (name plus a human-readable detail line)."""

    name: str
    detail: str

    def __str__(self) -> str:
        return f"{self.name}: {self.detail}"


@dataclass
class CompilationResult:
    """Everything the frontend produces for one compilation."""

    project: Project
    diagnostics: DiagnosticSink
    stages: list[CompilationStage] = field(default_factory=list)
    sugaring: Optional[SugaringReport] = None
    drc: Optional[DRCReport] = None
    #: Backend outputs requested via ``targets``: backend name -> files.
    outputs: dict[str, dict[str, str]] = field(default_factory=dict)

    def ir_text(self) -> str:
        """The textual Tydi-IR of the compiled project: the ``ir`` backend's
        one ``.tir`` file (from :attr:`outputs` when ``ir`` was a target)."""
        files = self.outputs.get("ir")
        if files is None:
            from repro.backends import get_backend

            files = get_backend("ir").emit(self.project)
        (text,) = files.values()
        return text

    def output_files(self, target: str) -> dict[str, str]:
        """The emitted files of one requested backend target."""
        try:
            return self.outputs[target]
        except KeyError as exc:
            requested = ", ".join(self.outputs) or "none"
            raise KeyError(
                f"no {target!r} output on this result (requested targets: {requested})"
            ) from exc

    def stage_names(self) -> list[str]:
        return [stage.name for stage in self.stages]


# ---------------------------------------------------------------------------
# The four Figure-3 stages as composable functions.
#
# Every function returns ``(artefact, CompilationStage)`` so that any caller
# -- the monolithic ``compile_sources`` or the per-stage-cached pipeline --
# produces byte-identical stage logs from the same inputs.
# ---------------------------------------------------------------------------


def parse_stage(
    normalized: Sequence[tuple[str, str]],
    *,
    include_stdlib: bool = True,
    parse_file: Callable[[str, str], SourceUnit] = parse_source,
) -> tuple[list[SourceUnit], CompilationStage]:
    """Stage 1: parse every source file (stdlib first) into ASTs.

    ``parse_file`` is the per-file parser; the staged pipeline passes a
    memoising wrapper (:meth:`repro.pipeline.stages.StageCache.cached_parse`)
    so unchanged files skip lexing and parsing entirely.  Returned units are
    treated as immutable by all later stages (evaluation only reads
    declarations), which is what makes sharing cached ASTs safe.
    """
    units: list[SourceUnit] = []
    with STAGES.span("parse"):
        if include_stdlib:
            units.append(_parsed_stdlib(STDLIB_SOURCE))
        units.extend(parse_file(text, filename) for text, filename in normalized)
    total_decls = sum(len(u.declarations) for u in units)
    entry = CompilationStage(
        "parse", f"parsed {len(units)} source file(s), {total_decls} declaration(s)"
    )
    return units, entry


def evaluate_stage(
    units: Sequence[SourceUnit],
    diagnostics: DiagnosticSink,
    *,
    top: Optional[str] = None,
    top_args: tuple[object, ...] = (),
    project_name: str = "design",
) -> tuple[Project, CompilationStage]:
    """Stage 2: evaluation / expansion ("code expansion & evaluation")."""
    with STAGES.span("evaluate"):
        program = Program.from_units(list(units))
        evaluator = Evaluator(program, diagnostics, project_name=project_name)
        project = evaluator.evaluate(top=top, top_args=top_args)
    stats = project.statistics()
    entry = CompilationStage(
        "evaluate",
        f"expanded to {stats['streamlets']} streamlet(s), "
        f"{stats['implementations']} implementation(s), "
        f"{stats['instances']} instance(s), {stats['connections']} connection(s)",
    )
    return project, entry


def sugar_stage(
    project: Project,
    diagnostics: DiagnosticSink,
) -> tuple[SugaringReport, CompilationStage]:
    """Stage 3: sugaring ("desugaring" box of Figure 3).  Mutates ``project``."""
    with STAGES.span("sugaring"):
        report = apply_sugaring(project, diagnostics)
    return report, CompilationStage("sugaring", report.summary())


def drc_stage(
    project: Project,
    diagnostics: DiagnosticSink,
    *,
    strict: bool = True,
) -> tuple[DRCReport, CompilationStage]:
    """Stage 4: design rule check; ``strict`` raises on DRC errors."""
    with STAGES.span("drc"):
        report = check_project(project, diagnostics)
    entry = CompilationStage("drc", report.summary())
    if strict:
        report.raise_if_failed()
    return report, entry


IR_STAGE_DETAIL = "Tydi-IR available via CompilationResult.ir_text()"


def backend_stage(
    project: Project,
    targets: Sequence[str],
    *,
    backend_options: Sequence[tuple[str, object]] = (),
    stage_cache=None,
) -> tuple[dict[str, dict[str, str]], list[CompilationStage]]:
    """Stage 6: run every requested backend over the compiled project.

    ``backend_options`` is the normalised per-backend options of
    :attr:`CompileOptions.backend_options`; a backend without an entry runs
    with its defaults.  ``stage_cache`` (a :class:`repro.pipeline.stages.
    StageCache`, duck-typed so the lang layer never imports the pipeline)
    serves memoised per-implementation unit outputs; without one every
    backend emits from scratch.  Both paths produce identical outputs *and*
    identical stage-log entries -- the differential harness asserts it --
    so the log detail deliberately carries no hit/miss counts.
    """
    outputs: dict[str, dict[str, str]] = {}
    entries: list[CompilationStage] = []
    if not targets:
        return outputs, entries
    from repro.backends import get_backend

    options_by_name = dict(backend_options or ())
    fingerprints: dict[str, str] = {}  # every target keys the same implementations
    for target in normalize_targets(targets):
        backend = get_backend(target, options_by_name.get(target))
        with STAGES.span(f"backend:{backend.name}"):
            if stage_cache is not None:
                files = stage_cache.emit_backend(project, backend, fingerprints)
            else:
                files = backend.emit(project)
        outputs[backend.name] = files
        entries.append(
            CompilationStage(f"backend:{backend.name}", f"emitted {len(files)} file(s)")
        )
    return outputs, entries


class FrontendState(NamedTuple):
    """The checked, typed project every backend consumes: stages 1-5.

    The post-DRC snapshot the per-stage cache stores as one entry
    (:meth:`repro.pipeline.stages.StageCache.compile`).  Backends and the
    simulator only read it, so one state may serve any number of results.
    """

    stages: tuple[CompilationStage, ...]
    project: Project
    diagnostics: DiagnosticSink
    sugaring: Optional[SugaringReport]
    drc: Optional[DRCReport]


def finish_frontend(
    project: Project,
    diagnostics: DiagnosticSink,
    stages: list[CompilationStage],
    options: CompileOptions,
) -> FrontendState:
    """Stages 3-5 over an evaluated (or ingested) project: sugar, DRC, IR.

    ``stages`` holds the log entries of the stages that built ``project``.
    """
    # Stage 3: sugaring ("desugaring" box of Figure 3).
    sugaring_report: Optional[SugaringReport] = None
    if options.sugaring:
        sugaring_report, sugar_entry = sugar_stage(project, diagnostics)
        stages.append(sugar_entry)

    # Stage 4: design rule check.
    drc_report: Optional[DRCReport] = None
    if options.run_drc:
        drc_report, drc_entry = drc_stage(project, diagnostics, strict=options.strict_drc)
        stages.append(drc_entry)

    # Stage 5: Tydi-IR generation is on-demand via CompilationResult.ir_text().
    stages.append(CompilationStage("ir", IR_STAGE_DETAIL))
    return FrontendState(tuple(stages), project, diagnostics, sugaring_report, drc_report)


def run_frontend(
    normalized: Sequence[tuple[str, str]],
    options: CompileOptions,
    *,
    parse_file: Callable[[str, str], SourceUnit] = parse_source,
) -> FrontendState:
    """Stages 1-5 from source texts (``parse_file`` as in :func:`parse_stage`)."""
    diagnostics = DiagnosticSink()
    # Stage 1: parse (the stdlib AST is parsed once and shared, see
    # :func:`_parsed_stdlib`).
    units, parse_entry = parse_stage(
        normalized, include_stdlib=options.include_stdlib, parse_file=parse_file
    )
    # Stage 2: evaluation / expansion ("code expansion & evaluation").
    project, evaluate_entry = evaluate_stage(
        units,
        diagnostics,
        top=options.top,
        top_args=options.top_args,
        project_name=options.project_name,
    )
    return finish_frontend(project, diagnostics, [parse_entry, evaluate_entry], options)


def run_backends(
    state: FrontendState,
    options: CompileOptions,
    *,
    stage_cache: Optional["StageCache"] = None,
) -> CompilationResult:
    """Stage 6 over one frontend state: the requested backends, then the result."""
    outputs, backend_entries = backend_stage(
        state.project,
        options.targets,
        backend_options=options.backend_options,
        stage_cache=stage_cache,
    )
    return CompilationResult(
        project=state.project,
        diagnostics=state.diagnostics,
        stages=[*state.stages, *backend_entries],
        sugaring=state.sugaring,
        drc=state.drc,
        outputs=outputs,
    )


def run_pipeline(
    normalized: Sequence[tuple[str, str]],
    options: CompileOptions,
) -> CompilationResult:
    """The monolithic Figure-3 pipeline: every stage from scratch, no caches.

    This is the reference composition of the stage functions above; the
    staged pipeline (:meth:`repro.pipeline.stages.StageCache.compile`)
    composes the *same* functions with memoised artefacts and is
    differential-tested byte-identical against this one.  Callers that want
    caching or session state go through :class:`repro.workspace.Workspace`
    (or its :func:`compile_sources` shim) instead of calling this directly.
    """
    return run_backends(run_frontend(normalized, options), options)


def compile_sources(
    sources: Sequence[tuple[str, str]] | Sequence[str] | Mapping[str, str],
    *,
    options: CompileOptions | Mapping[str, object] | None = None,
    top: Optional[str] = None,
    top_args: tuple[object, ...] = (),
    include_stdlib: bool = True,
    sugaring: bool = True,
    run_drc: bool = True,
    strict_drc: bool = True,
    project_name: str = "design",
    targets: Sequence[str] = (),
    backend_options: Sequence[tuple[str, object]] | Mapping[str, object] = (),
    cache: Optional["StageCache"] = None,
) -> CompilationResult:
    """Compile one or more Tydi-lang sources to Tydi-IR.

    This is the one-shot entry point: it builds a throwaway
    :class:`repro.workspace.Workspace` session around the given ``cache``
    (or no cache at all), registers the sources as a single design, and
    returns the session's ``result`` query.  Long-lived callers -- editors,
    services, anything that compiles the same design more than once --
    should hold a ``Workspace`` of their own instead; see
    ``docs/workspace.md``.

    Parameters
    ----------
    sources:
        Plain source strings, ``(source_text, filename)`` pairs, or a
        ``{filename: source_text}`` mapping (see :func:`normalize_sources`;
        malformed entries raise :class:`~repro.errors.TydiInputError`).
    options:
        A :class:`CompileOptions` (or ``{option: value}`` mapping) carrying
        every compile option as one value.  When given, the individual
        option keywords below must be left at their defaults -- mixing the
        two forms raises :class:`~repro.errors.TydiInputError`.
    top:
        Name of the top-level implementation to instantiate.  When omitted,
        an in-source ``top name;`` declaration is honoured, and failing that
        every non-template implementation is instantiated.
    top_args:
        Evaluated template arguments for ``top`` when it is a template.
    include_stdlib:
        Prepend the Tydi-lang standard library source.
    sugaring:
        Apply automatic duplicator/voider insertion (Section IV-D).
    run_drc / strict_drc:
        Run the design rule check; ``strict_drc`` raises on DRC errors.
    targets:
        Names of registered output backends (see :mod:`repro.backends`,
        e.g. ``("vhdl", "dot")``) to run after the frontend; their files
        land on :attr:`CompilationResult.outputs`.  Duplicates are dropped,
        order is preserved.
    backend_options:
        Per-backend emission options, e.g. ``{"dot": {"rankdir": "TB"}}``
        (see :attr:`CompileOptions.backend_options`).
    cache:
        Optional :class:`repro.pipeline.stages.StageCache` to compile
        through: a warm post-DRC snapshot skips every frontend stage, and
        a miss still reuses the unchanged files' cached ASTs.  Treat a
        result compiled through a cache as immutable (its project may be
        shared with the cache).
    """
    from_keywords = CompileOptions(
        top=top,
        top_args=top_args,
        include_stdlib=include_stdlib,
        sugaring=sugaring,
        run_drc=run_drc,
        strict_drc=strict_drc,
        project_name=project_name,
        targets=tuple(targets or ()),
        backend_options=tuple(
            backend_options.items()
            if isinstance(backend_options, Mapping)
            else backend_options or ()
        ),
    )
    if options is not None:
        # Keyword values are compared post-normalisation (tuple coercion,
        # target dedup), so e.g. an explicit ``top_args=[]`` is still "the
        # default" and only a *semantic* conflict with options= is rejected.
        defaults = CompileOptions()
        conflicting = sorted(
            name
            for name in OPTION_FIELD_NAMES
            if getattr(from_keywords, name) != getattr(defaults, name)
        )
        if conflicting:
            raise TydiInputError(
                f"pass either options= or individual option keywords, not both "
                f"(got options= plus {', '.join(conflicting)})"
            )
        resolved = CompileOptions.coerce(options)
    else:
        resolved = from_keywords

    # One-shot shim over a throwaway session: the Workspace owns the cache
    # interaction and the query memo is simply discarded with the session.
    from repro.workspace import Workspace

    workspace = Workspace(cache=cache)
    workspace.add_design(resolved.project_name or "design", sources, resolved)
    return workspace.result(resolved.project_name or "design")


def compile_project(
    source: str,
    *,
    filename: str = "<string>",
    **kwargs,
) -> CompilationResult:
    """Compile a single Tydi-lang source string (see :func:`compile_sources`)."""
    return compile_sources([(source, filename)], **kwargs)
