"""Pluggable output backends for the Tydi-IR -> artefact boundary.

The paper's Figure 1 pipeline ends at one hard-coded target ("Tydi IR ->
backend -> VHDL"); the companion IR paper frames Tydi-IR as a composable
artefact consumed by *multiple* independent backends.  This package makes
that boundary pluggable:

* :mod:`repro.backends.base` -- the :class:`Backend` protocol (name,
  frozen options dataclass, ``emit(project) -> {filename: text}`` with
  per-implementation ``emit_unit`` granularity) and
  :func:`implementation_fingerprint`, the content address the
  backend-output cache keys units by.
* :mod:`repro.backends.registry` -- name -> backend lookup with
  ``repro.backends`` entry-point discovery for third-party emitters.
* Built-ins: ``vhdl`` (:mod:`repro.backends.vhdl`), ``verilog``
  (:mod:`repro.backends.verilog`), ``ir`` (:mod:`repro.backends.ir_text`),
  ``tydi-ir`` (:mod:`repro.backends.tydi_ir`) and ``dot``
  (:mod:`repro.backends.dot`).

The compile pipeline threads targets through every layer: ``compile_sources
(..., targets=("vhdl", "dot"))`` runs a backend stage whose
per-implementation outputs the :class:`~repro.pipeline.stages.StageCache`
memoises, ``CompileJob.targets`` carries them through the job engine and the
workspace, and the CLI exposes ``--target`` / ``--list-backends``.
See ``docs/backends.md``.
"""

from repro.backends.base import Backend, BackendOptions, implementation_fingerprint
from repro.backends.options import (
    coerce_option_value,
    option_schema,
    options_for_backend,
    parse_backend_opt_specs,
)
from repro.backends.registry import (
    ENTRY_POINT_GROUP,
    available_backends,
    backend_class,
    get_backend,
    iter_backends,
    register_backend,
    unregister_backend,
)

# Importing the built-in modules registers them.
from repro.backends.dot import DotBackend, DotBackendOptions
from repro.backends.ir_text import IrTextBackend, IrTextBackendOptions
from repro.backends.tydi_ir import TydiIrBackend, TydiIrBackendOptions
from repro.backends.verilog import VerilogBackendOptions, VerilogFilesBackend
from repro.backends.vhdl import VhdlBackendOptions, VhdlFilesBackend

__all__ = [
    "Backend",
    "BackendOptions",
    "DotBackend",
    "DotBackendOptions",
    "ENTRY_POINT_GROUP",
    "IrTextBackend",
    "IrTextBackendOptions",
    "TydiIrBackend",
    "TydiIrBackendOptions",
    "VerilogBackendOptions",
    "VerilogFilesBackend",
    "VhdlBackendOptions",
    "VhdlFilesBackend",
    "available_backends",
    "backend_class",
    "coerce_option_value",
    "get_backend",
    "implementation_fingerprint",
    "iter_backends",
    "option_schema",
    "options_for_backend",
    "parse_backend_opt_specs",
    "register_backend",
    "unregister_backend",
]
