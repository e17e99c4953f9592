"""The registered ``verilog`` backend: Tydi-IR to Verilog, one file per unit.

Composes the pieces the Verilog emission engine (:class:`repro.verilog.
backend.VerilogBackend`) renders in the :class:`~repro.backends.base.Backend`
protocol, with the same decomposition as the ``vhdl`` backend:

* shared file: the ``<project>_defs.vh`` documentation header,
* per-implementation unit: ``<impl>.v`` (module with ready/valid port
  groups),

assembled by the default sorted merge.  ``generate_verilog(project)`` and
``VerilogBackend.total_loc`` read this backend.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backends.base import Backend, BackendOptions
from repro.backends.registry import register_backend
from repro.errors import TydiBackendError
from repro.ir.model import Implementation, Project


@dataclass(frozen=True)
class VerilogBackendOptions(BackendOptions):
    """Options of the ``verilog`` backend (none yet; placeholder for e.g. a
    SystemVerilog-mode switch, kept so option plumbing is exercised)."""


@register_backend
class VerilogFilesBackend(Backend):
    """Emit one Verilog module per implementation plus the defs header."""

    name = "verilog"
    description = "Verilog modules with ready/valid stream groups, one file per implementation"
    options_type = VerilogBackendOptions

    def emit_shared(self, project: Project) -> dict[str, str]:
        if not project.implementations:
            raise TydiBackendError("cannot generate Verilog for an empty project")
        from repro.verilog.backend import VerilogBackend
        from repro.vhdl.signals import vhdl_identifier

        return {
            f"{vhdl_identifier(project.name)}_defs.vh": VerilogBackend(project).defs_file()
        }

    def emit_unit(self, project: Project, implementation: Implementation) -> dict[str, str]:
        from repro.verilog.backend import VerilogBackend

        return {
            f"{implementation.name}.v": VerilogBackend(project).implementation_file(
                implementation
            )
        }
