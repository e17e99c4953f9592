"""Design rule check (DRC).

The paper's frontend (Figure 3) runs a DRC over the evaluated design and
produces a report.  Two rules are called out explicitly in Section III:

1. **Type equality on connections** -- the logical types of two connected
   ports must be identical (strict equality by default, structural equality
   when the connection carries the ``@structural`` attribute), because the
   type information is erased in the generated VHDL.
2. **Port usage count** -- every port must be used exactly once, because the
   stream handshake is point-to-point.

We additionally check connection *direction legality* (a connection must go
from a data source to a data sink within the implementation), protocol
complexity compatibility, clock-domain agreement, and that ports carry Stream
types (a warning otherwise, since non-stream ports have no physical mapping).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DiagnosticSink, TydiDRCError
from repro.ir.model import (
    Connection,
    Implementation,
    Port,
    PortDirection,
    PortRef,
    Project,
)
from repro.spec.compat import check_connection_compatibility
from repro.spec.logical_types import Stream


@dataclass
class DRCViolation:
    """One violated design rule."""

    rule: str
    implementation: str
    message: str
    severity: str = "error"  # "error" | "warning"

    def __str__(self) -> str:
        return f"[{self.severity}] {self.rule} in {self.implementation}: {self.message}"


@dataclass
class DRCReport:
    """Aggregated result of the design rule check."""

    violations: list[DRCViolation] = field(default_factory=list)
    connections_checked: int = 0
    ports_checked: int = 0

    @property
    def errors(self) -> list[DRCViolation]:
        return [v for v in self.violations if v.severity == "error"]

    @property
    def warnings(self) -> list[DRCViolation]:
        return [v for v in self.violations if v.severity == "warning"]

    def passed(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        return (
            f"DRC checked {self.connections_checked} connection(s) and "
            f"{self.ports_checked} port endpoint(s): "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        )

    def raise_if_failed(self) -> None:
        if not self.passed():
            details = "\n".join(str(v) for v in self.errors)
            raise TydiDRCError(f"design rule check failed:\n{details}")


def _endpoint_role(
    project: Project, implementation: Implementation, ref: PortRef
) -> tuple[str, Port]:
    """Classify a connection endpoint as a "source" or "sink" within the impl.

    Within an implementation, data is *sourced* by the implementation's own
    input ports and by instance output ports; it is *sunk* by the
    implementation's own output ports and by instance input ports.
    """
    port = project.resolve_port(implementation, ref)
    if ref.instance is None:
        role = "source" if port.direction is PortDirection.IN else "sink"
    else:
        role = "source" if port.direction is PortDirection.OUT else "sink"
    return role, port


def check_project(
    project: Project,
    diagnostics: DiagnosticSink | None = None,
    *,
    require_streams: bool = True,
) -> DRCReport:
    """Run the design rule check over every non-external implementation."""
    diagnostics = diagnostics if diagnostics is not None else DiagnosticSink()
    report = DRCReport()

    for implementation in project.implementations.values():
        if implementation.external:
            continue
        _check_implementation(project, implementation, report, require_streams)

    for violation in report.violations:
        if violation.severity == "error":
            diagnostics.error("drc", str(violation))
        else:
            diagnostics.warning("drc", str(violation))
    return report


def _check_implementation(
    project: Project,
    implementation: Implementation,
    report: DRCReport,
    require_streams: bool,
) -> None:
    streamlet = project.streamlet_of(implementation)

    # Rule 0: ports should carry Stream types (warning otherwise).
    if require_streams:
        for port in streamlet.ports:
            if not isinstance(port.logical_type, Stream) and not port.logical_type.is_null():
                report.violations.append(
                    DRCViolation(
                        rule="stream-port",
                        implementation=implementation.name,
                        message=(
                            f"port {port.name!r} has non-stream type "
                            f"{port.logical_type.to_tydi()}; it has no physical mapping"
                        ),
                        severity="warning",
                    )
                )

    # Collect all endpoints that must be used exactly once, keyed by
    # (instance, port) like the connections' PortRefs (instance None for a
    # port of the implementation's own streamlet).
    source_usage: dict[tuple[str | None, str], int] = {}
    sink_usage: dict[tuple[str | None, str], int] = {}
    for port in streamlet.ports:
        usage = source_usage if port.direction is PortDirection.IN else sink_usage
        usage.setdefault((None, port.name), 0)
        report.ports_checked += 1
    for instance in implementation.instances:
        inner = project.streamlet_of(project.implementation(instance.implementation))
        for port in inner.ports:
            usage = source_usage if port.direction is PortDirection.OUT else sink_usage
            usage.setdefault((instance.name, port.name), 0)
            report.ports_checked += 1

    # Rule 1 & 2 prerequisites: walk the connections.
    for connection in implementation.connections:
        report.connections_checked += 1
        source_role, sink_role = _check_connection(project, implementation, connection, report)
        if source_role == "source":
            key = (connection.source.instance, connection.source.port)
            source_usage[key] = source_usage.get(key, 0) + 1
        if sink_role == "sink":
            key = (connection.sink.instance, connection.sink.port)
            sink_usage[key] = sink_usage.get(key, 0) + 1

    # Rule 2: port usage count -- every endpoint used exactly once.
    for (instance_name, port_name), count in source_usage.items():
        if count == 0:
            report.violations.append(
                DRCViolation(
                    rule="port-usage",
                    implementation=implementation.name,
                    message=(
                        f"source endpoint {PortRef(port_name, instance_name)} is never used "
                        "(enable sugaring to auto-void it)"
                    ),
                )
            )
        elif count > 1:
            report.violations.append(
                DRCViolation(
                    rule="port-usage",
                    implementation=implementation.name,
                    message=(
                        f"source endpoint {PortRef(port_name, instance_name)} drives "
                        f"{count} sinks (enable sugaring to auto-insert a duplicator)"
                    ),
                )
            )
    for (instance_name, port_name), count in sink_usage.items():
        if count == 0:
            report.violations.append(
                DRCViolation(
                    rule="port-usage",
                    implementation=implementation.name,
                    message=f"sink endpoint {PortRef(port_name, instance_name)} is never driven",
                )
            )
        elif count > 1:
            report.violations.append(
                DRCViolation(
                    rule="port-usage",
                    implementation=implementation.name,
                    message=(
                        f"sink endpoint {PortRef(port_name, instance_name)} is driven "
                        f"{count} times"
                    ),
                )
            )


def _check_connection(
    project: Project,
    implementation: Implementation,
    connection: Connection,
    report: DRCReport,
) -> tuple[str, str]:
    """Check one connection's direction and types; returns its (source, sink) roles."""
    source_role, source_port = _endpoint_role(project, implementation, connection.source)
    sink_role, sink_port = _endpoint_role(project, implementation, connection.sink)

    # Direction legality.
    if source_role != "source" or sink_role != "sink":
        report.violations.append(
            DRCViolation(
                rule="direction",
                implementation=implementation.name,
                message=(
                    f"connection {connection} has illegal direction: "
                    f"{connection.source} acts as a {source_role} and "
                    f"{connection.sink} acts as a {sink_role}"
                ),
            )
        )
        return source_role, sink_role

    # Type equality, complexity, throughput and clock domain.
    compatibility = check_connection_compatibility(
        source_port.logical_type,
        sink_port.logical_type,
        strict=not connection.structural,
        source_clock=source_port.clock_domain.name,
        sink_clock=sink_port.clock_domain.name,
    )
    if not compatibility:
        for reason in compatibility.reasons:
            report.violations.append(
                DRCViolation(
                    rule="type-equality",
                    implementation=implementation.name,
                    message=f"connection {connection}: {reason}",
                )
            )
    return source_role, sink_role
