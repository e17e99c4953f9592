"""Physical-signal expansion of Tydi ports into VHDL port/signal declarations.

Each logical ``Stream`` port expands into a valid/ready handshake plus data,
last, strobe, index and user wires (see :mod:`repro.spec.physical`).  Signal
direction in the VHDL entity depends on both the port direction and the
signal role: forward signals of an input port are ``in`` while its ready is
``out``, and vice versa for output ports.

Both HDL emitters wire a structural implementation the same way, so the
interconnect (:func:`connection_nets`) is built here once for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.ir.model import Implementation, Port, PortDirection, Project
from repro.spec.logical_types import Stream
from repro.spec.physical import PhysicalSignal, expand_stream
from repro.utils.names import sanitize_identifier


def vhdl_identifier(name: str) -> str:
    """Sanitise a name into a VHDL identifier."""
    return sanitize_identifier(name)


def vhdl_type(width: int) -> str:
    """VHDL type for a signal of ``width`` bits."""
    if width <= 1:
        return "std_logic"
    return f"std_logic_vector({width - 1} downto 0)"


@dataclass(frozen=True)
class VhdlPortSignal:
    """One VHDL-level port signal derived from a Tydi port."""

    name: str
    width: int
    mode: str  # "in" | "out"
    origin: str  # name of the physical-stream signal ("data", "valid", ...)
    tydi_port: str

    def declaration(self) -> str:
        return f"{self.name} : {self.mode} {vhdl_type(self.width)}"

    def signal_declaration(self, prefix: str = "") -> str:
        return f"signal {prefix}{self.name} : {vhdl_type(self.width)};"


#: How an emitter expands a port: :func:`port_signals` or a memoised copy.
SignalsOf = Callable[[Port], list[VhdlPortSignal]]


def _signal_mode(port_direction: PortDirection, signal: PhysicalSignal) -> str:
    """VHDL mode of one physical signal on an entity port."""
    forward_in = port_direction is PortDirection.IN
    if signal.role == "forward":
        return "in" if forward_in else "out"
    return "out" if forward_in else "in"


def port_signals(port: Port) -> list[VhdlPortSignal]:
    """Expand a Tydi port into its VHDL port signals.

    Non-stream ports (which the DRC flags with a warning) are rendered as a
    plain data bus with a valid/ready handshake so the output is still
    self-consistent.
    """
    base = vhdl_identifier(port.name)
    signals: list[VhdlPortSignal] = []
    if isinstance(port.logical_type, Stream):
        physical = expand_stream(port.logical_type)
        for signal in physical.signals:
            signals.append(
                VhdlPortSignal(
                    name=f"{base}_{signal.name}",
                    width=signal.width,
                    mode=_signal_mode(port.direction, signal),
                    origin=signal.name,
                    tydi_port=port.name,
                )
            )
    else:
        width = max(1, port.logical_type.bit_width())
        forward_mode = "in" if port.direction is PortDirection.IN else "out"
        reverse_mode = "out" if port.direction is PortDirection.IN else "in"
        signals.append(VhdlPortSignal(f"{base}_valid", 1, forward_mode, "valid", port.name))
        signals.append(VhdlPortSignal(f"{base}_ready", 1, reverse_mode, "ready", port.name))
        signals.append(VhdlPortSignal(f"{base}_data", width, forward_mode, "data", port.name))
    return signals


def port_signal_memo() -> SignalsOf:
    """A :func:`port_signals` that expands each port only once.

    Keyed by port identity, so it must not outlive the project it reads:
    each emitter object makes its own.  The returned lists are shared
    between calls; callers must not mutate them.
    """
    memo: dict[int, tuple[Port, list[VhdlPortSignal]]] = {}

    def signals_of(port: Port) -> list[VhdlPortSignal]:
        entry = memo.get(id(port))
        if entry is None:
            # The entry keeps the port alive, so its id cannot be reused.
            entry = memo[id(port)] = (port, port_signals(port))
        return entry[1]

    return signals_of


class ConnectionNet:
    """The interconnect wires of one connection: a ``(name, width, origin)``
    per physical signal of its source port, named ``<prefix>_<origin>``."""

    __slots__ = ("wires",)

    def __init__(self, prefix: str, source_signals: list[VhdlPortSignal]) -> None:
        self.wires = [
            (f"{prefix}_{signal.origin}", signal.width, signal.origin) for signal in source_signals
        ]

    def wire_for(self, origin: str) -> str | None:
        """Name of the (first) wire carrying the ``origin`` signal, if any."""
        for name, _, wire_origin in self.wires:
            if wire_origin == origin:
                return name
        return None


#: Endpoint -> net, keyed by a ``PortRef``'s ``(instance, port)`` pair.
EndpointNets = dict[tuple[Optional[str], str], ConnectionNet]


def connection_nets(
    project: Project,
    implementation: Implementation,
    signals_of: SignalsOf = port_signals,
) -> tuple[list[ConnectionNet], EndpointNets]:
    """One net per connection of ``implementation``, and the endpoint->net map.

    Net ``i`` takes its source port's signals under the prefix
    ``net_<i>_<source>``.  The map is keyed by the ``(instance, port)`` pair
    of both ends (``instance`` is ``None`` for the implementation's own
    ports); an endpoint on several connections maps to the last one.
    """
    nets: list[ConnectionNet] = []
    endpoint_net: EndpointNets = {}
    for index, connection in enumerate(implementation.connections):
        source = connection.source
        # Sanitising turns the "." of "instance.port" into "_": joining with
        # "_" gives the same identifier, and clean names skip the regex.
        name = source.port if source.instance is None else f"{source.instance}_{source.port}"
        net = ConnectionNet(
            f"net_{index}_{vhdl_identifier(name).lower()}",
            signals_of(project.resolve_port(implementation, source)),
        )
        nets.append(net)
        endpoint_net[source.instance, source.port] = net
        endpoint_net[connection.sink.instance, connection.sink.port] = net
    return nets, endpoint_net


def data_width_of(port: Port) -> int:
    """Total data width of a port (used by the primitive generators)."""
    if isinstance(port.logical_type, Stream):
        for signal in expand_stream(port.logical_type).signals:
            if signal.name == "data":
                return max(1, signal.width)
        return 1
    return max(1, port.logical_type.bit_width())


def last_width_of(port: Port) -> int:
    """Width of the ``last`` signal of a port, 0 when absent."""
    if isinstance(port.logical_type, Stream):
        physical = expand_stream(port.logical_type)
        for signal in physical.signals:
            if signal.name == "last":
                return signal.width
    return 0
