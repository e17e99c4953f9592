"""The registered ``tydi-ir`` backend: canonical interchange emission.

Unlike the ``ir`` backend (a human-oriented report with abbreviated type
references), this backend emits the *complete* interchange form of
:mod:`repro.interchange` -- the document :func:`repro.interchange.parse.
load_ir` parses back into an identical :class:`~repro.ir.model.Project`.

It follows the same composition law as every other backend: each
implementation block is a per-implementation unit (cacheable at
implementation granularity), and :meth:`~TydiIrBackend.assemble`
interleaves the prelude, the streamlet blocks, the unit blocks in project
order and the ``top`` trailer.  This is the one composition of the
document: :func:`repro.interchange.emit.emit_document` returns this
backend's single file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.backends.base import Backend, BackendOptions
from repro.backends.registry import register_backend
from repro.ir.model import Implementation, Project


def _unit_filename(implementation_name: str) -> str:
    return f"impl/{implementation_name}.tydi-ir-frag"


@dataclass(frozen=True)
class TydiIrBackendOptions(BackendOptions):
    """Options of the ``tydi-ir`` backend (none yet; the format version is
    part of the document, not an option)."""


@register_backend
class TydiIrBackend(Backend):
    """Emit the project as one ``<project>.tir`` interchange document."""

    name = "tydi-ir"
    description = "canonical Tydi-IR interchange document, re-ingestable via load_ir"
    options_type = TydiIrBackendOptions

    def emit_unit(self, project: Project, implementation: Implementation) -> dict[str, str]:
        from repro.interchange.emit import emit_implementation_block

        return {_unit_filename(implementation.name): emit_implementation_block(implementation)}

    def assemble(
        self,
        project: Project,
        shared: Mapping[str, str],
        units: Mapping[str, Mapping[str, str]],
    ) -> dict[str, str]:
        from repro.interchange.emit import document_prelude, emit_streamlet_block

        sections: list[str] = [document_prelude(project)]
        for streamlet in project.streamlets.values():
            sections.append(emit_streamlet_block(streamlet))
        for implementation_name in project.implementations:
            sections.append(units[implementation_name][_unit_filename(implementation_name)])
        if project.top:
            sections.append(f"top {project.top};")
        return {f"{project.name}.tir": "\n\n".join(sections) + "\n"}
