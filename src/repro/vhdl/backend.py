"""The Tydi-IR to VHDL backend.

``generate_vhdl(project)`` returns a mapping of file name to VHDL text:

* one file per streamlet/implementation pair (entity + architecture),
* a ``<project>_pkg.vhd`` package file with shared declarations.

Structural implementations become architectures with component declarations,
per-connection interconnect signals and port maps; standard-library
primitives use the hard-coded behavioural generators; other external
implementations become black-box stubs.
"""

from __future__ import annotations

from repro.ir.model import (
    Implementation,
    Instance,
    Port,
    PortDirection,
    Project,
    Streamlet,
)
from repro.stdlib.components import primitive_kind
from repro.utils.text import count_loc
from repro.vhdl.signals import (
    ConnectionNet,
    EndpointNets,
    SignalsOf,
    VhdlPortSignal,
    connection_nets,
    port_signal_memo,
    port_signals,
    vhdl_identifier,
    vhdl_type,
)

_HEADER = """-- Generated by the Tydi-lang reproduction toolchain.
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
"""


def _entity_ports(streamlet: Streamlet, signals_of: SignalsOf) -> list[VhdlPortSignal]:
    signals: list[VhdlPortSignal] = []
    for port in streamlet.ports:
        signals.extend(signals_of(port))
    return signals


def emit_entity(streamlet: Streamlet, signals_of: SignalsOf = port_signals) -> str:
    """Emit the VHDL entity of a streamlet (clock, reset and stream signals)."""
    lines = [f"entity {streamlet.name} is", "  port ("]
    lines.append("    clk : in std_logic;")
    lines.append("    rst : in std_logic;")
    signals = _entity_ports(streamlet, signals_of)
    for index, signal in enumerate(signals):
        separator = ";" if index < len(signals) - 1 else ""
        lines.append(f"    {signal.declaration()}{separator}")
    lines.append("  );")
    lines.append(f"end entity {streamlet.name};")
    return "\n".join(lines) + "\n"


def emit_component_declaration(streamlet: Streamlet, signals_of: SignalsOf = port_signals) -> str:
    """Emit a component declaration matching :func:`emit_entity`."""
    lines = [f"  component {streamlet.name} is", "    port ("]
    lines.append("      clk : in std_logic;")
    lines.append("      rst : in std_logic;")
    signals = _entity_ports(streamlet, signals_of)
    for index, signal in enumerate(signals):
        separator = ";" if index < len(signals) - 1 else ""
        lines.append(f"      {signal.declaration()}{separator}")
    lines.append("    );")
    lines.append("  end component;")
    return "\n".join(lines)


class VhdlBackend:
    """The VHDL emission engine of one project.

    It renders the pieces the registered ``vhdl`` backend
    (:class:`repro.backends.vhdl.VhdlFilesBackend`) composes: the project's
    :meth:`package_file` and one :meth:`implementation_file` per
    implementation, the unit the backend-output cache memoises.  The whole
    project's files are that backend's output, :func:`generate_vhdl`.
    """

    def __init__(self, project: Project) -> None:
        self.project = project
        self._signals_of = port_signal_memo()

    # -- public API ------------------------------------------------------------

    def implementation_file(self, implementation: Implementation) -> str:
        """One implementation's VHDL file (entity + architecture)."""
        streamlet = self.project.streamlet_of(implementation)
        return (
            _HEADER + "\n" + emit_entity(streamlet, self._signals_of) + "\n"
            + self._architecture(implementation, streamlet)
        )

    def total_loc(self) -> int:
        """Total generated VHDL LoC (the LoCvhdl quantity of Table IV) over
        the files of :func:`generate_vhdl`."""
        return sum(count_loc(text, language="vhdl") for text in generate_vhdl(self.project).values())

    # -- pieces ------------------------------------------------------------------

    def package_file(self) -> str:
        lines = [_HEADER]
        lines.append(f"package {vhdl_identifier(self.project.name)}_pkg is")
        lines.append("  -- Logical types are erased at this level; widths are documented per entity.")
        for streamlet in self.project.streamlets.values():
            for port in streamlet.ports:
                lines.append(
                    f"  -- {streamlet.name}.{port.name} : {port.logical_type.to_tydi()} ({port.direction})"
                )
        lines.append(f"end package {vhdl_identifier(self.project.name)}_pkg;")
        return "\n".join(lines) + "\n"

    def _architecture(self, implementation: Implementation, streamlet: Streamlet) -> str:
        # Imported lazily: the generators module itself imports repro.vhdl.signals,
        # so a module-level import here would create an import cycle.
        from repro.stdlib.generators import generate_primitive_architecture

        if implementation.external:
            kind = primitive_kind(implementation)
            if kind is not None:
                return generate_primitive_architecture(kind, implementation, streamlet, self.project)
            return self._blackbox_architecture(implementation, streamlet)
        return self._structural_architecture(implementation, streamlet)

    def _blackbox_architecture(self, implementation: Implementation, streamlet: Streamlet) -> str:
        lines = [
            f"-- External implementation {implementation.name}: behaviour provided outside the Tydi toolchain.",
            f"architecture blackbox of {streamlet.name} is",
            "begin",
            "  -- black box: the actual netlist is linked in by the vendor flow",
        ]
        for port in streamlet.ports:
            if port.direction is PortDirection.IN:
                lines.append(f"  {vhdl_identifier(port.name)}_ready <= '0';")
            else:
                lines.append(f"  {vhdl_identifier(port.name)}_valid <= '0';")
        lines.append("end architecture blackbox;")
        return "\n".join(lines) + "\n"

    # -- structural architecture ---------------------------------------------------

    def _structural_architecture(self, implementation: Implementation, streamlet: Streamlet) -> str:
        project = self.project
        signals_of = self._signals_of
        nets, endpoint_net = connection_nets(project, implementation, signals_of)

        # Component declarations (one per distinct inner streamlet).
        inner_streamlets: dict[str, Streamlet] = {}
        for instance in implementation.instances:
            inner_impl = project.implementation(instance.implementation)
            inner = project.streamlet_of(inner_impl)
            inner_streamlets.setdefault(inner.name, inner)

        declaration_lines: list[str] = []
        for inner in inner_streamlets.values():
            declaration_lines.append(emit_component_declaration(inner, signals_of))
            declaration_lines.append("")
        for net in nets:
            for name, width, _ in net.wires:
                declaration_lines.append(f"  signal {name} : {vhdl_type(width)};")

        body_lines: list[str] = []

        # Wire the implementation's own ports to their nets.
        for port in streamlet.ports:
            net = endpoint_net.get((None, port.name))
            if net is None:
                continue
            body_lines.extend(self._self_port_assignments(port, net))
        body_lines.append("")

        # Instantiate the inner components.
        for instance in implementation.instances:
            body_lines.extend(self._instance_port_map(instance, endpoint_net))
            body_lines.append("")

        declarations = "\n".join(declaration_lines)
        body = "\n".join(f"  {line}" if line else "" for line in body_lines)
        return (
            f"architecture structural of {streamlet.name} is\n"
            f"{declarations}\n"
            f"begin\n"
            f"{body}\n"
            f"end architecture structural;\n"
        )

    def _self_port_assignments(self, port: Port, net: ConnectionNet) -> list[str]:
        """Continuous assignments between an entity port and its net.

        For an *input* port of the implementation the forward signals flow
        from the entity port into the net and the ready flows back; for an
        *output* port the direction is reversed.
        """
        lines: list[str] = []
        for signal in self._signals_of(port):
            wire = net.wire_for(signal.origin)
            if wire is None:
                continue
            port_is_source = port.direction is PortDirection.IN
            forward = signal.origin != "ready"
            if (port_is_source and forward) or (not port_is_source and not forward):
                lines.append(f"{wire} <= {signal.name};")
            else:
                lines.append(f"{signal.name} <= {wire};")
        return lines

    def _instance_port_map(self, instance: Instance, endpoint_net: EndpointNets) -> list[str]:
        project = self.project
        inner_streamlet = project.streamlet_of(project.implementation(instance.implementation))

        lines = [f"{instance.name} : {inner_streamlet.name}", "  port map ("]
        mappings = ["    clk => clk", "    rst => rst"]
        for port in inner_streamlet.ports:
            net = endpoint_net.get((instance.name, port.name))
            for signal in self._signals_of(port):
                if net is None:
                    # Should not happen after the DRC; keep the output legal.
                    target = "open" if signal.mode == "out" else (
                        "'0'" if signal.width <= 1 else "(others => '0')"
                    )
                else:
                    target = net.wire_for(signal.origin) or "open"
                mappings.append(f"    {signal.name} => {target}")
        lines.extend(f"{m}," for m in mappings[:-1])
        lines.append(f"{mappings[-1]}")
        lines.append("  );")
        return lines


def generate_vhdl(project: Project) -> dict[str, str]:
    """Generate VHDL for every streamlet/implementation of ``project``.

    The registered ``vhdl`` backend's output, sorted by file name; an
    empty project raises :class:`~repro.errors.TydiBackendError`.
    """
    from repro.backends import get_backend

    return get_backend("vhdl").emit(project)
