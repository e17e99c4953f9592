"""The registered ``vhdl`` backend: Tydi-IR to VHDL, one file per unit.

Composes the pieces the VHDL emission engine
(:class:`repro.vhdl.backend.VhdlBackend`) renders in the
:class:`~repro.backends.base.Backend` protocol:

* shared file: the ``<project>_pkg.vhd`` declarations package,
* per-implementation unit: ``<impl>.vhd`` (entity + architecture),

assembled by the default sorted merge.  ``generate_vhdl(project)``,
``--vhdl-dir`` and ``VhdlBackend.total_loc`` all read this backend.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backends.base import Backend, BackendOptions
from repro.backends.registry import register_backend
from repro.errors import TydiBackendError
from repro.ir.model import Implementation, Project


@dataclass(frozen=True)
class VhdlBackendOptions(BackendOptions):
    """Options of the ``vhdl`` backend (none yet; placeholder for e.g. a
    VHDL-standard selector, kept so option plumbing is exercised)."""


@register_backend
class VhdlFilesBackend(Backend):
    """Emit one VHDL file per implementation plus the project package."""

    name = "vhdl"
    description = "VHDL entities/architectures, one file per implementation"
    options_type = VhdlBackendOptions

    def emit_shared(self, project: Project) -> dict[str, str]:
        if not project.implementations:
            raise TydiBackendError("cannot generate VHDL for an empty project")
        from repro.vhdl.backend import VhdlBackend
        from repro.vhdl.signals import vhdl_identifier

        return {f"{vhdl_identifier(project.name)}_pkg.vhd": VhdlBackend(project).package_file()}

    def emit_unit(self, project: Project, implementation: Implementation) -> dict[str, str]:
        from repro.vhdl.backend import VhdlBackend

        return {
            f"{implementation.name}.vhd": VhdlBackend(project).implementation_file(implementation)
        }
