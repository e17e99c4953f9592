"""Content addresses: the version salts and fingerprint recipe of every cache key.

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
* every ``(filename, source_text)`` pair in order,

then salted with the frontend kind when it is not ``"lang"``.  It is the
identity of a :class:`repro.workspace.Workspace` design's memo
and of a :class:`repro.pipeline.batch.CompileJob`.  The cache itself,
:class:`repro.pipeline.stages.StageCache`, keys its tiers per stage, with
the same salts and :func:`canonical_option_repr`.
"""

from __future__ import annotations

import hashlib
from typing import Mapping, Sequence

#: Bump when the pickle layout or fingerprint recipe changes; old on-disk
#: entries then simply miss instead of deserialising stale artefacts.
CACHE_VERSION = 2

#: Schema version of the per-stage artefacts (parse ASTs, frontend
#: snapshots, backend unit outputs, see :mod:`repro.pipeline.stages`).  It
#: participates in every fingerprint, so entries written by an older stage
#: layout are never deserialised into the new layout: they simply miss.
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
#: v8: the ``eval:`` tier holds the post-DRC frontend state
#: (:class:`repro.lang.compile.FrontendState`) keyed by the evaluate key
#: plus ``sugaring`` / ``run_drc`` / ``strict_drc``, the whole-result
#: ``result:`` tier is gone and ``CompilationResult`` lost ``units``.
#: v9: the ``iringest:`` tier is gone; the ``eval:`` tier also holds the
#: post-DRC state of ingested Tydi-IR documents, keyed by the document
#: text plus ``sugaring`` / ``run_drc`` / ``strict_drc``.
#: v10: source spans are two character offsets plus a shared line index
#: (:class:`repro.utils.source.SourceSpan`), and spans, tokens, AST nodes
#: and source units pickle positionally (class plus ``__match_args__``
#: values), so a cached AST or frontend snapshot of the old layout must miss.
STAGE_SCHEMA_VERSION = 10

#: Default directory name for the on-disk store.
DEFAULT_CACHE_DIR = ".tydi-cache"


# The one normalisation shared with compile_sources, so fingerprints agree
# no matter which layer computed them (the lang layer owns the definition).
from repro.lang.compile import CompileOptions, normalize_sources  # noqa: E402


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
    *,
    kind: str = "lang",
) -> str:
    """Stable SHA-256 content hash of a compilation's inputs.

    ``options`` is either the canonical :class:`~repro.lang.compile.
    CompileOptions` or a legacy options mapping; both hash through the same
    ``{option: value}`` normal form (:meth:`CompileOptions.as_dict`), so
    every layer computes identical content addresses.  ``kind`` is the
    frontend (``"lang"`` or ``"ir"``, see :class:`repro.pipeline.batch.
    CompileJob`).
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
    if kind != "lang":
        # Salt non-lang kinds: the same bytes as a Tydi-lang source and as
        # an interchange document are different artefacts and must never
        # share a memo/cache identity.
        return hashlib.sha256(f"kind={kind}\x00{hasher.hexdigest()}".encode()).hexdigest()
    return hasher.hexdigest()
