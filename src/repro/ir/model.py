"""Tydi-IR data model.

The frontend lowers an evaluated Tydi-lang design into these classes; the
VHDL backend and the simulator both consume them.  The model is deliberately
flat: templates no longer exist at this level (every template instantiation
has been expanded into a concrete streamlet/implementation pair), and the
generative ``for``/``if`` constructs have been unrolled into plain instances
and connections.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.errors import TydiBackendError, TydiTypeError
from repro.spec.logical_types import LogicalType, Stream
from repro.utils.names import sanitize_identifier


class PortDirection(enum.Enum):
    """Direction of a port as seen from its streamlet."""

    IN = "in"
    OUT = "out"

    def flipped(self) -> "PortDirection":
        return PortDirection.OUT if self is PortDirection.IN else PortDirection.IN

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ClockDomain:
    """A named clock domain; connections require matching domains."""

    name: str = "default"

    def __str__(self) -> str:
        return self.name


@dataclass
class Port:
    """A typed, directed port of a streamlet."""

    name: str
    logical_type: LogicalType
    direction: PortDirection
    clock_domain: ClockDomain = field(default_factory=ClockDomain)
    #: Free-form attributes; the DRC looks for "structural" to relax strict
    #: type equality on connections touching this port.
    attributes: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.logical_type, LogicalType):
            raise TydiTypeError(f"port {self.name!r} type must be a logical type")
        self.name = sanitize_identifier(self.name, keyword_suffix=False)

    def is_stream(self) -> bool:
        return isinstance(self.logical_type, Stream)

    def __str__(self) -> str:
        return f"{self.name}: {self.logical_type.to_tydi()} {self.direction}"


@dataclass(frozen=True)
class PortRef:
    """Reference to a port, optionally through an instance.

    ``instance=None`` refers to a port of the enclosing implementation's own
    streamlet ("self" port); otherwise to a port of a named inner instance.
    """

    port: str
    instance: Optional[str] = None

    def __str__(self) -> str:
        if self.instance is None:
            return self.port
        return f"{self.instance}.{self.port}"

    @classmethod
    def parse(cls, text: str) -> "PortRef":
        text = text.strip()
        if "." in text:
            instance, port = text.rsplit(".", 1)
            return cls(port=port, instance=instance)
        return cls(port=text)


@dataclass
class Streamlet:
    """The port map of a component (analogue of a VHDL entity)."""

    name: str
    ports: list[Port] = field(default_factory=list)
    documentation: str = ""

    def __post_init__(self) -> None:
        self.name = sanitize_identifier(self.name, keyword_suffix=False)
        index: dict[str, Port] = {}
        for port in self.ports:
            if port.name in index:
                raise TydiBackendError(f"streamlet {self.name!r} has duplicate port {port.name!r}")
            index[port.name] = port
        self._port_index = index

    def _ports_by_name(self) -> dict[str, Port]:
        """Name index over ``ports``, rebuilt lazily if it drifted.

        Every mutation goes through :meth:`add_port` (which maintains the
        index), but the list itself is a public field -- the length guard
        rebuilds after any out-of-band append, and after unpickling an
        instance stored before the index existed.  Not a dataclass field,
        so ``==``/``repr`` semantics are untouched.
        """
        index = getattr(self, "_port_index", None)
        if index is None or len(index) != len(self.ports):
            index = {}
            for port in self.ports:  # first-wins, like the linear scan it replaces
                index.setdefault(port.name, port)
            self._port_index = index
        return index

    def add_port(self, port: Port) -> Port:
        index = self._ports_by_name()
        if port.name in index:
            raise TydiBackendError(f"streamlet {self.name!r} already has port {port.name!r}")
        self.ports.append(port)
        index[port.name] = port
        return port

    def port(self, name: str) -> Port:
        port = self._ports_by_name().get(name)
        if port is None:
            raise TydiBackendError(f"streamlet {self.name!r} has no port {name!r}")
        return port

    def get_port(self, name: str) -> Optional[Port]:
        """The port named ``name``, or None if there is none."""
        return self._ports_by_name().get(name)

    def has_port(self, name: str) -> bool:
        return name in self._ports_by_name()

    def inputs(self) -> list[Port]:
        return [p for p in self.ports if p.direction is PortDirection.IN]

    def outputs(self) -> list[Port]:
        return [p for p in self.ports if p.direction is PortDirection.OUT]


@dataclass
class Instance:
    """A nested implementation instance within an implementation."""

    name: str
    implementation: str  # name of the instantiated Implementation
    #: Original template and arguments (for reporting / primitive generation).
    metadata: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.name = sanitize_identifier(self.name, keyword_suffix=False)


@dataclass
class Connection:
    """A directed connection from a source port to a sink port."""

    source: PortRef
    sink: PortRef
    logical_type: Optional[LogicalType] = None
    name: str = ""
    #: When True the DRC uses structural instead of strict type equality.
    structural: bool = False
    #: Marks connections inserted by sugaring (for reporting).
    synthesized: bool = False

    def __str__(self) -> str:
        return f"{self.source} => {self.sink}"


@dataclass
class Implementation:
    """The inner structure of a component (analogue of a VHDL architecture).

    ``external=True`` marks implementations whose behaviour is provided by an
    external tool (hand-written VHDL, Fletcher output, or a standard-library
    primitive generator); these have no instances or connections of their own
    but may carry ``simulation`` behaviour code for the simulator.
    """

    name: str
    streamlet: str  # name of the Streamlet providing the port map
    instances: list[Instance] = field(default_factory=list)
    connections: list[Connection] = field(default_factory=list)
    external: bool = False
    documentation: str = ""
    #: Parsed simulation behaviour (repro.sim.behavior.BehaviorSpec) if any.
    simulation: object = None
    #: Original template name + arguments for primitives and reporting.
    metadata: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.name = sanitize_identifier(self.name, keyword_suffix=False)
        self.streamlet = sanitize_identifier(self.streamlet, keyword_suffix=False)
        index: dict[str, Instance] = {}
        for inst in self.instances:
            index.setdefault(inst.name, inst)
        self._instance_index = index

    def _instances_by_name(self) -> dict[str, Instance]:
        """Name index over ``instances`` (same contract as
        :meth:`Streamlet._ports_by_name`): maintained by
        :meth:`add_instance`, lazily rebuilt behind a length guard.  With
        ``for``-expanded designs routinely holding hundreds of instances
        per implementation, the historical linear scans here were the
        single hottest cost of evaluate + DRC."""
        index = getattr(self, "_instance_index", None)
        if index is None or len(index) != len(self.instances):
            index = {}
            for inst in self.instances:  # first-wins, like the linear scan it replaces
                index.setdefault(inst.name, inst)
            self._instance_index = index
        return index

    def add_instance(self, instance: Instance) -> Instance:
        index = self._instances_by_name()
        if instance.name in index:
            raise TydiBackendError(
                f"implementation {self.name!r} already has instance {instance.name!r}"
            )
        self.instances.append(instance)
        index[instance.name] = instance
        return instance

    def instance(self, name: str) -> Instance:
        inst = self._instances_by_name().get(name)
        if inst is None:
            raise TydiBackendError(f"implementation {self.name!r} has no instance {name!r}")
        return inst

    def get_instance(self, name: str) -> Optional[Instance]:
        """The instance named ``name``, or None if there is none."""
        return self._instances_by_name().get(name)

    def has_instance(self, name: str) -> bool:
        return name in self._instances_by_name()

    def add_connection(self, connection: Connection) -> Connection:
        self.connections.append(connection)
        return connection


@dataclass
class Project:
    """A closed Tydi-IR design: streamlets, implementations and a top level."""

    name: str = "design"
    streamlets: dict[str, Streamlet] = field(default_factory=dict)
    implementations: dict[str, Implementation] = field(default_factory=dict)
    top: Optional[str] = None

    def add_streamlet(self, streamlet: Streamlet) -> Streamlet:
        if streamlet.name in self.streamlets:
            existing = self.streamlets[streamlet.name]
            if existing is not streamlet:
                raise TydiBackendError(f"duplicate streamlet {streamlet.name!r}")
            return existing
        self.streamlets[streamlet.name] = streamlet
        return streamlet

    def add_implementation(self, implementation: Implementation) -> Implementation:
        if implementation.name in self.implementations:
            existing = self.implementations[implementation.name]
            if existing is not implementation:
                raise TydiBackendError(f"duplicate implementation {implementation.name!r}")
            return existing
        if implementation.streamlet not in self.streamlets:
            raise TydiBackendError(
                f"implementation {implementation.name!r} references unknown streamlet "
                f"{implementation.streamlet!r}"
            )
        self.implementations[implementation.name] = implementation
        return implementation

    def streamlet_of(self, implementation: Implementation | str) -> Streamlet:
        if isinstance(implementation, str):
            implementation = self.implementation(implementation)
        return self.streamlets[implementation.streamlet]

    def implementation(self, name: str) -> Implementation:
        try:
            return self.implementations[name]
        except KeyError as exc:
            raise TydiBackendError(f"project has no implementation {name!r}") from exc

    def streamlet(self, name: str) -> Streamlet:
        try:
            return self.streamlets[name]
        except KeyError as exc:
            raise TydiBackendError(f"project has no streamlet {name!r}") from exc

    def top_implementation(self) -> Implementation:
        if self.top is None:
            raise TydiBackendError("project has no top-level implementation")
        return self.implementation(self.top)

    def resolve_port(self, implementation: Implementation, ref: PortRef) -> Port:
        """Resolve a port reference within ``implementation`` to its Port.

        Called per connection end by every pass, so it looks each name up
        once, raising the errors of the accessors it bypasses.
        """
        if ref.instance is None:
            streamlet = self.streamlets[implementation.streamlet]
        else:
            inst = implementation.get_instance(ref.instance)
            if inst is None:
                raise TydiBackendError(
                    f"implementation {implementation.name!r} has no instance {ref.instance!r}"
                )
            inner_impl = self.implementations.get(inst.implementation)
            if inner_impl is None:
                raise TydiBackendError(f"project has no implementation {inst.implementation!r}")
            streamlet = self.streamlets[inner_impl.streamlet]
        port = streamlet.get_port(ref.port)
        if port is None:
            raise TydiBackendError(f"streamlet {streamlet.name!r} has no port {ref.port!r}")
        return port

    def iter_connections(self) -> Iterator[tuple[Implementation, Connection]]:
        for impl in self.implementations.values():
            for conn in impl.connections:
                yield impl, conn

    def iter_instances(self) -> Iterator[tuple[Implementation, Instance]]:
        for impl in self.implementations.values():
            for inst in impl.instances:
                yield impl, inst

    def validate(self) -> None:
        """Structural validation: every reference resolves.

        This is *not* the DRC (type checks live in :mod:`repro.lang.drc`);
        it only guarantees referential integrity of the IR itself.
        """
        for impl in self.implementations.values():
            if impl.streamlet not in self.streamlets:
                raise TydiBackendError(
                    f"implementation {impl.name!r} references unknown streamlet {impl.streamlet!r}"
                )
            for inst in impl.instances:
                if inst.implementation not in self.implementations:
                    raise TydiBackendError(
                        f"instance {inst.name!r} in {impl.name!r} references unknown "
                        f"implementation {inst.implementation!r}"
                    )
            for conn in impl.connections:
                self.resolve_port(impl, conn.source)
                self.resolve_port(impl, conn.sink)
        if self.top is not None and self.top not in self.implementations:
            raise TydiBackendError(f"top implementation {self.top!r} does not exist")

    def statistics(self) -> dict[str, int]:
        """Simple design statistics used in reports and tests."""
        return {
            "streamlets": len(self.streamlets),
            "implementations": len(self.implementations),
            "external_implementations": sum(1 for i in self.implementations.values() if i.external),
            "instances": sum(len(i.instances) for i in self.implementations.values()),
            "connections": sum(len(i.connections) for i in self.implementations.values()),
            "ports": sum(len(s.ports) for s in self.streamlets.values()),
        }
