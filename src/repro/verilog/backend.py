"""The Tydi-IR to Verilog backend.

``generate_verilog(project)`` returns a mapping of file name to Verilog
text: one ``<impl>.v`` module per implementation plus a shared
``<project>_defs.vh`` header documenting the logical types each physical
port group was lowered from.

The lowering reuses the physical-stream expansion of the VHDL backend
(:func:`repro.vhdl.signals.port_signals`): each logical ``Stream`` port
becomes a ready/valid handshake group (valid/ready plus data, last, strobe,
index and user wires), with the same direction rules -- forward signals of
an input port are ``input`` while its ready is ``output``, and vice versa.
Structural implementations get real interconnect: one wire bundle per
connection, continuous assigns between the module's own ports and their
nets, and named-port instantiations of the inner modules.  External
implementations (primitives included -- their behavioural generators are
VHDL-only) become annotated stubs with safe handshake tie-offs, so the
output always elaborates.
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
)

_HEADER = """// Generated by the Tydi-lang reproduction toolchain.
`default_nettype none
"""

_FOOTER = "`default_nettype wire\n"


def verilog_identifier(name: str) -> str:
    """Sanitise a name into a Verilog identifier.

    Shares the VHDL sanitiser so the same Tydi port yields the same signal
    name in both HDL targets -- mixed-language integration reads uniformly.
    """
    return vhdl_identifier(name)


def _range_suffix(width: int) -> str:
    """The ``[w-1:0]`` vector range, empty for single-bit wires."""
    if width <= 1:
        return ""
    return f"[{width - 1}:0] "


def _port_declaration(signal: VhdlPortSignal) -> str:
    direction = "input " if signal.mode == "in" else "output"
    return f"{direction} wire {_range_suffix(signal.width)}{signal.name}"


def _zero_literal(width: int) -> str:
    if width <= 1:
        return "1'b0"
    return f"{width}'b0"


def emit_module_header(streamlet: Streamlet, signals_of: SignalsOf = port_signals) -> str:
    """The ``module <name> ( ... );`` opener with clock, reset and streams."""
    lines = [f"module {streamlet.name} ("]
    declarations = ["input  wire clk", "input  wire rst"]
    for port in streamlet.ports:
        declarations.extend(_port_declaration(signal) for signal in signals_of(port))
    lines.extend(f"  {decl}," for decl in declarations[:-1])
    lines.append(f"  {declarations[-1]}")
    lines.append(");")
    return "\n".join(lines)


class VerilogBackend:
    """The Verilog emission engine of one project.

    Mirrors :class:`repro.vhdl.backend.VhdlBackend`: the registered
    ``verilog`` backend (:class:`repro.backends.verilog.VerilogFilesBackend`)
    composes the project's :meth:`defs_file` and one cacheable
    :meth:`implementation_file` unit per implementation.  The whole
    project's files are that backend's output, :func:`generate_verilog`.
    """

    def __init__(self, project: Project) -> None:
        self.project = project
        self._signals_of = port_signal_memo()

    # -- public API ------------------------------------------------------------

    def implementation_file(self, implementation: Implementation) -> str:
        """One implementation's Verilog file (module header + body)."""
        streamlet = self.project.streamlet_of(implementation)
        return (
            _HEADER
            + "\n"
            + emit_module_header(streamlet, self._signals_of)
            + "\n"
            + self._body(implementation, streamlet)
            + f"endmodule // {streamlet.name}\n"
            + "\n"
            + _FOOTER
        )

    def total_loc(self) -> int:
        """Total generated Verilog LoC (the HDL-size quantity of Table IV)
        over the files of :func:`generate_verilog`."""
        return sum(
            count_loc(text, language="verilog") for text in generate_verilog(self.project).values()
        )

    # -- pieces ------------------------------------------------------------------

    def defs_file(self) -> str:
        """The shared header: logical-type documentation per physical group."""
        name = vhdl_identifier(self.project.name)
        lines = [_HEADER]
        lines.append(f"// Port groups of project {self.project.name}.")
        lines.append("// Logical types are erased at this level; widths are per module port.")
        for streamlet in self.project.streamlets.values():
            for port in streamlet.ports:
                lines.append(
                    f"// {streamlet.name}.{port.name} : "
                    f"{port.logical_type.to_tydi()} ({port.direction})"
                )
        lines.append(_FOOTER.rstrip("\n"))
        return "\n".join(lines) + "\n"

    def _body(self, implementation: Implementation, streamlet: Streamlet) -> str:
        if implementation.external:
            return self._stub_body(implementation, streamlet)
        return self._structural_body(implementation, streamlet)

    def _stub_body(self, implementation: Implementation, streamlet: Streamlet) -> str:
        """External implementations: an annotated stub with safe tie-offs.

        The standard-library behavioural generators are VHDL-only, so
        primitives are stubbed too -- with their kind recorded in a comment
        so a vendor flow knows which behaviour to link in.
        """
        kind = primitive_kind(implementation)
        if kind is not None:
            note = f"  // primitive: {kind} (behavioural model provided by the vendor flow)"
        else:
            note = (
                f"  // external implementation {implementation.name}: "
                "netlist linked in by the vendor flow"
            )
        lines = [note]
        for port in streamlet.ports:
            base = verilog_identifier(port.name)
            if port.direction is PortDirection.IN:
                lines.append(f"  assign {base}_ready = 1'b0;")
            else:
                for signal in self._signals_of(port):
                    if signal.origin == "ready":
                        continue
                    lines.append(f"  assign {signal.name} = {_zero_literal(signal.width)};")
        return "\n".join(lines) + "\n"

    # -- structural body ----------------------------------------------------------

    def _structural_body(self, implementation: Implementation, streamlet: Streamlet) -> str:
        nets, endpoint_net = connection_nets(self.project, implementation, self._signals_of)

        lines: list[str] = []
        for net in nets:
            for name, width, _ in net.wires:
                lines.append(f"  wire {_range_suffix(width)}{name};")
        if nets:
            lines.append("")

        # Wire the implementation's own ports to their nets.
        for port in streamlet.ports:
            net = endpoint_net.get((None, port.name))
            if net is None:
                continue
            lines.extend(self._self_port_assigns(port, net))
        lines.append("")

        # Instantiate the inner modules.
        for instance in implementation.instances:
            lines.extend(self._instantiation(instance, endpoint_net))
            lines.append("")

        return "\n".join(lines) + "\n"

    def _self_port_assigns(self, port: Port, net: ConnectionNet) -> list[str]:
        """Continuous assigns between a module port and its net.

        For an *input* port the forward signals flow from the module port
        into the net and the ready flows back; reversed for outputs.
        """
        lines: list[str] = []
        for signal in self._signals_of(port):
            wire = net.wire_for(signal.origin)
            if wire is None:
                continue
            port_is_source = port.direction is PortDirection.IN
            forward = signal.origin != "ready"
            if (port_is_source and forward) or (not port_is_source and not forward):
                lines.append(f"  assign {wire} = {signal.name};")
            else:
                lines.append(f"  assign {signal.name} = {wire};")
        return lines

    def _instantiation(self, instance: Instance, endpoint_net: EndpointNets) -> list[str]:
        project = self.project
        inner_streamlet = project.streamlet_of(project.implementation(instance.implementation))

        lines = [f"  {inner_streamlet.name} {instance.name} ("]
        mappings = ["    .clk(clk)", "    .rst(rst)"]
        for port in inner_streamlet.ports:
            net = endpoint_net.get((instance.name, port.name))
            for signal in self._signals_of(port):
                if net is None:
                    # Should not happen after the DRC; keep the output legal.
                    target = "" if signal.mode == "out" else _zero_literal(signal.width)
                else:
                    target = net.wire_for(signal.origin) or ""
                mappings.append(f"    .{signal.name}({target})")
        lines.extend(f"{m}," for m in mappings[:-1])
        lines.append(mappings[-1])
        lines.append("  );")
        return lines


def generate_verilog(project: Project) -> dict[str, str]:
    """Generate Verilog for every streamlet/implementation of ``project``.

    The registered ``verilog`` backend's output, sorted by file name,
    mirroring :func:`repro.vhdl.backend.generate_vhdl`; an empty project
    raises :class:`~repro.errors.TydiBackendError`.
    """
    from repro.backends import get_backend

    return get_backend("verilog").emit(project)
