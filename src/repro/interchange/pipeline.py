"""The ingest pipeline: IR documents through the sugar/DRC/backend stages.

:func:`compile_ir_document` is the ingest twin of
:func:`repro.lang.compile.run_pipeline`: instead of parse + evaluate it runs
one **ingest** stage (:func:`ingest_stage`, wrapping
:func:`repro.interchange.parse.load_ir`), then composes the *same* sugar,
DRC, IR and backend stage functions the Tydi-lang frontend uses.  The
result is an ordinary :class:`~repro.lang.compile.CompilationResult`, so
everything downstream -- ``Workspace`` queries, served methods, backend
emission, simulation -- treats an ingested design exactly like a compiled
one.

Option semantics: an IR document is already evaluated, so the
evaluate-only options (``top`` / ``top_args`` / ``include_stdlib`` /
``project_name``) are ignored -- the document itself carries the project
name and top declaration.  ``sugaring`` / ``run_drc`` / ``strict_drc`` /
``targets`` / ``backend_options`` apply as usual.  Re-sugaring an already
sugared (or any DRC-clean) design is a no-op: duplicators/voiders are only
inserted for fan-out or unused outputs, which a DRC-clean design does not
have.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import DiagnosticSink
from repro.interchange.parse import load_ir
from repro.ir.model import Project
from repro.lang.compile import (
    CompilationResult,
    CompilationStage,
    CompileOptions,
    FrontendState,
    finish_frontend,
    run_backends,
)
from repro.tracing import STAGES


def ingest_stage(
    text: str, *, filename: str = "<tydi-ir>"
) -> tuple[Project, CompilationStage]:
    """The ingest stage: one IR document to a validated :class:`Project`.

    The stage-log entry mirrors the evaluate stage's statistics line, so
    logs of ingested and compiled designs read uniformly.
    """
    with STAGES.span("ingest"):
        project = load_ir(text, filename=filename)
    stats = project.statistics()
    entry = CompilationStage(
        "ingest",
        f"ingested {stats['streamlets']} streamlet(s), "
        f"{stats['implementations']} implementation(s), "
        f"{stats['instances']} instance(s), {stats['connections']} connection(s)",
    )
    return project, entry


def ingest_frontend(
    text: str, options: CompileOptions, *, filename: str = "<tydi-ir>"
) -> FrontendState:
    """Ingest, sugar, DRC and IR over one document: the post-DRC state.

    The ingest twin of :func:`repro.lang.compile.run_frontend`, and what
    :meth:`repro.pipeline.stages.StageCache.compile_ir` snapshots.
    """
    project, ingest_entry = ingest_stage(text, filename=filename)
    return finish_frontend(project, DiagnosticSink(), [ingest_entry], options)


def compile_ir_document(
    text: str,
    options: "CompileOptions | dict | None" = None,
    *,
    filename: str = "<tydi-ir>",
) -> CompilationResult:
    """Ingest one IR document and run the downstream pipeline stages.

    This is the uncached reference composition; the staged twin with a
    memoised post-DRC snapshot is :meth:`repro.pipeline.stages.StageCache.
    compile_ir`, differential-tested byte-identical against this one.
    """
    resolved = CompileOptions.coerce(options)
    state = ingest_frontend(text, resolved, filename=filename)
    return run_backends(state, resolved)


def roundtrip_document(project: Project) -> str:
    """Emit, ingest and re-emit one project (test/debug helper).

    Returns the re-emitted document; callers assert it equals the first
    emission -- the correctness spine of the interchange subsystem.
    """
    from repro.interchange.emit import emit_document

    return emit_document(load_ir(emit_document(project)))


__all__ = ["compile_ir_document", "ingest_frontend", "ingest_stage", "roundtrip_document"]
