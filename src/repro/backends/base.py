"""The backend protocol: how one Tydi-IR project becomes one output set.

The paper's Figure 1 ends at a single hard-coded target ("Tydi IR ->
backend -> VHDL"), but the IR is explicitly a *composable* artefact: any
number of independent emitters can consume the same
:class:`~repro.ir.model.Project`.  This module defines the contract they
share:

* a :class:`Backend` turns a project into ``{filename: text}``,
* emission is decomposed into **per-implementation units**
  (:meth:`Backend.emit_unit`) plus **project-level shared files**
  (:meth:`Backend.emit_shared`), joined by :meth:`Backend.assemble` --
  which is what makes backend output cacheable at implementation
  granularity (see :meth:`repro.pipeline.stages.StageCache.emit_backend`),
* every backend carries a frozen options dataclass
  (:class:`BackendOptions`) whose :meth:`~BackendOptions.token`
  participates in cache keys, and
* :func:`implementation_fingerprint` provides the stable content address
  of everything one implementation's unit output may depend on.

Backends must be **pure**: the same project and options always produce the
same files (the property the hypothesis suite in
``tests/test_backend_properties.py`` asserts for every registered backend).
"""

from __future__ import annotations

import dataclasses
import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar, Mapping, Optional

from repro.errors import TydiBackendError
from repro.ir.model import Implementation, Port, Project, Streamlet


@dataclass(frozen=True)
class BackendOptions:
    """Base options dataclass; backends subclass it with their own fields.

    Options are frozen so one instance can serve as (part of) a cache key:
    :meth:`token` renders every field deterministically and participates in
    the per-implementation backend-output fingerprint.
    """

    def token(self) -> str:
        """Stable, order-independent rendering of all option fields."""
        fields = dataclasses.asdict(self)
        inner = ",".join(f"{name}={fields[name]!r}" for name in sorted(fields))
        return f"{type(self).__name__}({inner})"


class Backend(ABC):
    """One registered output target of the toolchain.

    Subclasses define :attr:`name` (the ``--target`` spelling), a short
    :attr:`description` for ``--list-backends``, and the per-implementation
    :meth:`emit_unit`; project-level files and custom composition are
    optional overrides.  The composition law

    ``emit(project) == assemble(project, emit_shared(project),
    {name: emit_unit(project, impl) for every implementation})``

    is fixed (``emit`` is implemented exactly that way), which is what lets
    the per-stage cache substitute memoised unit outputs without changing
    the assembled result.
    """

    #: Registry name (the ``--target`` value).
    name: ClassVar[str] = ""
    #: One-line description shown by ``tydi-compile --list-backends``.
    description: ClassVar[str] = ""
    #: The options dataclass this backend accepts.
    options_type: ClassVar[type] = BackendOptions

    def __init__(self, options: Optional[BackendOptions] = None) -> None:
        if options is None:
            options = self.options_type()
        if not isinstance(options, self.options_type):
            raise TydiBackendError(
                f"backend {self.name!r} expects {self.options_type.__name__} options, "
                f"got {type(options).__name__}"
            )
        self.options = options

    # -- the three composition pieces -----------------------------------------

    def emit_shared(self, project: Project) -> dict[str, str]:
        """Project-level files not attributable to one implementation."""
        return {}

    @abstractmethod
    def emit_unit(self, project: Project, implementation: Implementation) -> dict[str, str]:
        """The output files contributed by one implementation.

        The returned texts may depend only on the implementation's emission
        subgraph -- the implementation itself, its streamlet, and the
        streamlets/implementations of its direct instances -- everything
        covered by :func:`implementation_fingerprint`.  Depending on any
        other project state would make cached unit outputs stale.
        """

    def assemble(
        self,
        project: Project,
        shared: Mapping[str, str],
        units: Mapping[str, Mapping[str, str]],
    ) -> dict[str, str]:
        """Join shared files and per-implementation units into the output set.

        The default merges everything and returns the files sorted by name
        (deterministic regardless of dict insertion history); backends that
        interleave unit fragments into one document override this.
        """
        files: dict[str, str] = dict(shared)
        for impl_name in project.implementations:
            for filename, text in units[impl_name].items():
                if filename in files:
                    raise TydiBackendError(
                        f"backend {self.name!r} emitted duplicate file {filename!r} "
                        f"(implementation {impl_name!r})"
                    )
                files[filename] = text
        return dict(sorted(files.items()))

    # -- the public entry point ------------------------------------------------

    def emit(self, project: Project) -> dict[str, str]:
        """Emit the whole project: shared files + every implementation unit."""
        units = {
            name: self.emit_unit(project, implementation)
            for name, implementation in project.implementations.items()
        }
        return self.assemble(project, self.emit_shared(project), units)


# ---------------------------------------------------------------------------
# Implementation fingerprinting: the cache identity of one unit's inputs.
# ---------------------------------------------------------------------------


def _port_token(port: Port) -> str:
    return (
        f"{port.name}:{port.logical_type.to_tydi()}:{port.direction.value}"
        f":{port.clock_domain.name}:{_metadata_token(port.attributes)}"
    )


def _streamlet_token(streamlet: Streamlet) -> str:
    ports = ";".join([_port_token(port) for port in streamlet.ports])
    return f"streamlet {streamlet.name} doc={streamlet.documentation!r} ports[{ports}]"


def _metadata_token(metadata: Mapping[str, object]) -> str:
    if not metadata:
        return ""
    return ",".join([f"{key}={metadata[key]!r}" for key in sorted(metadata)])


def implementation_fingerprint(
    project: Project,
    implementation: Implementation,
    tokens: Optional[dict[str, tuple[str, str]]] = None,
) -> str:
    """Stable content address of one implementation's emission subgraph.

    Covers everything a backend's :meth:`~Backend.emit_unit` may read: the
    implementation (structure, documentation, metadata -- primitive kinds
    live there), its streamlet signature, each instantiated inner
    implementation with *its* streamlet signature (port maps and DOT labels
    need them), and every connection.  ``Implementation.simulation`` is
    deliberately excluded: behaviour specs drive the simulator, never
    emission.

    Two implementations with equal fingerprints produce byte-identical unit
    output under any backend, which is what keys the per-implementation
    backend-output cache.

    ``tokens`` memoises each implementation's rendered metadata and
    streamlet signature by name, so an implementation instantiated many
    times renders once; pass one dict to every call over the same project.
    """
    if tokens is None:
        tokens = {}

    def tokens_of(impl: Implementation) -> tuple[str, str]:
        found = tokens.get(impl.name)
        if found is None:
            found = tokens[impl.name] = (
                _metadata_token(impl.metadata),
                _streamlet_token(project.streamlet_of(impl)),
            )
        return found

    metadata, signature = tokens_of(implementation)
    parts = [
        f"impl {implementation.name} of {implementation.streamlet}",
        f"external={implementation.external}",
        f"doc={implementation.documentation!r}",
        f"meta={metadata}",
        signature,
    ]
    for instance in implementation.instances:
        inner_impl = project.implementation(instance.implementation)
        metadata, signature = tokens_of(inner_impl)
        parts.append(
            f"instance {instance.name}({instance.implementation}) "
            f"external={inner_impl.external} "
            f"meta={metadata} "
            f"imeta={_metadata_token(instance.metadata)} "
            + signature
        )
    for connection in implementation.connections:
        conn_type = connection.logical_type.to_tydi() if connection.logical_type else "-"
        parts.append(
            f"conn {connection.source}=>{connection.sink} type={conn_type} "
            f"name={connection.name!r} structural={connection.structural} "
            f"synthesized={connection.synthesized}"
        )
    hasher = hashlib.sha256(b"tydi-impl-fingerprint-v1\x00")
    hasher.update("\x00".join(parts).encode())
    return hasher.hexdigest()
