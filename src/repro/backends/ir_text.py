"""The registered ``ir`` backend: textual Tydi-IR emission.

Every implementation section is a per-implementation unit (one
pseudo-file), and :meth:`~IrTextBackend.assemble` interleaves the shared
prelude (header, named type declarations, streamlets), the unit sections in
project order, and the ``top`` trailer into one ``<project>.tir`` file.
This is the one composition of the textual IR:
:meth:`repro.lang.compile.CompilationResult.ir_text` and
:meth:`repro.workspace.Workspace.ir` both read this backend's file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.backends.base import Backend, BackendOptions
from repro.backends.registry import register_backend
from repro.ir.model import Implementation, Project


def _unit_filename(implementation_name: str) -> str:
    return f"impl/{implementation_name}.tir-frag"


@dataclass(frozen=True)
class IrTextBackendOptions(BackendOptions):
    """Options of the ``ir`` backend (none yet)."""


@register_backend
class IrTextBackend(Backend):
    """Emit the project as one ``<project>.tir`` textual Tydi-IR file."""

    name = "ir"
    description = "textual Tydi-IR, the inspectable Figure-1 intermediate artefact"
    options_type = IrTextBackendOptions

    def emit_unit(self, project: Project, implementation: Implementation) -> dict[str, str]:
        from repro.ir.emit import emit_implementation

        return {_unit_filename(implementation.name): emit_implementation(implementation)}

    def assemble(
        self,
        project: Project,
        shared: Mapping[str, str],
        units: Mapping[str, Mapping[str, str]],
    ) -> dict[str, str]:
        from repro.ir.emit import (
            emit_streamlet,
            emit_type_declaration,
            named_type_declarations,
        )

        sections: list[str] = [f"// Tydi-IR for project {project.name}"]
        for logical_type in named_type_declarations(project).values():
            sections.append(emit_type_declaration(logical_type))
        for streamlet in project.streamlets.values():
            sections.append(emit_streamlet(streamlet))
        for implementation_name in project.implementations:
            sections.append(units[implementation_name][_unit_filename(implementation_name)])
        if project.top:
            sections.append(f"top {project.top};")
        return {f"{project.name}.tir": "\n\n".join(sections) + "\n"}
