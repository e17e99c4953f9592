"""Differential harness: the DRC == the DRC that keyed endpoints by text.

:func:`repro.lang.drc.check_project` counts each endpoint's uses under its
``(instance, port)`` pair and formats ``instance.port`` only inside a
violation message.  The previous DRC, which keyed every endpoint by
``str(PortRef)`` and resolved each connection end twice, is kept verbatim
below as the reference (its functions renamed).  This suite proves that
both give the same report -- every violation's rule, implementation,
message and severity in order, ``connections_checked`` and
``ports_checked`` -- and the same diagnostics, over

* the :mod:`repro.testing` fuzz corpus, sugared and unsugared (unsugared
  designs keep their fan-out taps and never-connected spare ports),
* the six TPC-H designs of the paper, as compiled and unsugared, and
* IR mutations: a reversed connection, a type mismatch, a sink driven
  twice, a dropped connection, no connections at all and ``structural``
  connections.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.errors import DiagnosticSink
from repro.ir.model import (
    Connection,
    Implementation,
    Port,
    PortDirection,
    PortRef,
    Project,
)
from repro.lang.compile import compile_sources
from repro.lang.drc import DRCReport, DRCViolation, check_project
from repro.queries import ALL_QUERIES
from repro.spec.compat import check_connection_compatibility
from repro.spec.logical_types import Bit, Stream
from repro.testing import build_random_design

# -- the reference: the previous DRC, verbatim ----------------------------------


def _reference_endpoint_role(
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


def reference_check_project(
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
        _reference_check_implementation(project, implementation, report, require_streams)

    for violation in report.violations:
        if violation.severity == "error":
            diagnostics.error("drc", str(violation))
        else:
            diagnostics.warning("drc", str(violation))
    return report


def _reference_check_implementation(
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

    # Collect all endpoints that must be used exactly once.
    source_usage: dict[str, int] = {}
    sink_usage: dict[str, int] = {}
    endpoint_ports: dict[str, Port] = {}

    def register(ref: PortRef, role: str, port: Port) -> None:
        key = str(ref)
        endpoint_ports[key] = port
        if role == "source":
            source_usage.setdefault(key, 0)
        else:
            sink_usage.setdefault(key, 0)

    for port in streamlet.ports:
        ref = PortRef(port=port.name)
        role = "source" if port.direction is PortDirection.IN else "sink"
        register(ref, role, port)
        report.ports_checked += 1
    for instance in implementation.instances:
        inner = project.streamlet_of(project.implementation(instance.implementation))
        for port in inner.ports:
            ref = PortRef(port=port.name, instance=instance.name)
            role = "source" if port.direction is PortDirection.OUT else "sink"
            register(ref, role, port)
            report.ports_checked += 1

    # Rule 1 & 2 prerequisites: walk the connections.
    for connection in implementation.connections:
        report.connections_checked += 1
        _reference_check_connection(project, implementation, connection, report)
        source_role, _ = _reference_endpoint_role(project, implementation, connection.source)
        sink_role, _ = _reference_endpoint_role(project, implementation, connection.sink)
        if source_role == "source":
            source_usage[str(connection.source)] = source_usage.get(str(connection.source), 0) + 1
        if sink_role == "sink":
            sink_usage[str(connection.sink)] = sink_usage.get(str(connection.sink), 0) + 1

    # Rule 2: port usage count -- every endpoint used exactly once.
    for key, count in source_usage.items():
        if count == 0:
            report.violations.append(
                DRCViolation(
                    rule="port-usage",
                    implementation=implementation.name,
                    message=f"source endpoint {key} is never used (enable sugaring to auto-void it)",
                )
            )
        elif count > 1:
            report.violations.append(
                DRCViolation(
                    rule="port-usage",
                    implementation=implementation.name,
                    message=(
                        f"source endpoint {key} drives {count} sinks "
                        "(enable sugaring to auto-insert a duplicator)"
                    ),
                )
            )
    for key, count in sink_usage.items():
        if count == 0:
            report.violations.append(
                DRCViolation(
                    rule="port-usage",
                    implementation=implementation.name,
                    message=f"sink endpoint {key} is never driven",
                )
            )
        elif count > 1:
            report.violations.append(
                DRCViolation(
                    rule="port-usage",
                    implementation=implementation.name,
                    message=f"sink endpoint {key} is driven {count} times",
                )
            )


def _reference_check_connection(
    project: Project,
    implementation: Implementation,
    connection: Connection,
    report: DRCReport,
) -> None:
    source_role, source_port = _reference_endpoint_role(project, implementation, connection.source)
    sink_role, sink_port = _reference_endpoint_role(project, implementation, connection.sink)

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
        return

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


# -- comparison ----------------------------------------------------------------


def _outcome(check, project: Project) -> tuple:
    diagnostics = DiagnosticSink()
    report = check(project, diagnostics)
    violations = [(v.rule, v.implementation, v.message, v.severity) for v in report.violations]
    rendered = [(d.severity, d.stage, d.message) for d in diagnostics.items]
    return violations, report.connections_checked, report.ports_checked, rendered


def _assert_same_report(project: Project) -> list[tuple]:
    """Both DRCs agree on ``project``; returns the violations they found."""
    expected = _outcome(reference_check_project, project)
    assert _outcome(check_project, project) == expected
    assert expected[2] > 0  # ports_checked: the design was not empty
    return expected[0]


def _project(sources, *, sugaring: bool = True) -> Project:
    return compile_sources(sources, sugaring=sugaring, run_drc=False).project


def _fuzzed(seed: int, *, sugaring: bool) -> Project:
    return _project(build_random_design(random.Random(5000 + seed)), sugaring=sugaring)


# -- corpora -------------------------------------------------------------------


@pytest.mark.parametrize("sugaring", [True, False], ids=["sugared", "unsugared"])
@pytest.mark.parametrize("seed", range(12))
def test_fuzzed_designs_match_the_reference(seed, sugaring):
    _assert_same_report(_fuzzed(seed, sugaring=sugaring))


def test_unsugared_corpus_exercises_fan_out_and_unused_sources():
    """The unsugared corpus must hit both port-usage failures, or the
    differential above proves nothing about their messages."""
    messages = [
        message
        for seed in range(12)
        for _, _, message, _ in _assert_same_report(_fuzzed(seed, sugaring=False))
    ]
    assert any("is never used" in message for message in messages)
    assert any("drives 2 sinks" in message for message in messages)


@pytest.mark.parametrize("sugaring", [True, False], ids=["sugared", "unsugared"])
@pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda query: query.name)
def test_tpch_designs_match_the_reference(query, sugaring):
    _assert_same_report(_project(query.sources(), sugaring=sugaring and query.sugaring))


# -- IR mutations --------------------------------------------------------------


def _structural_implementations(project: Project) -> list[Implementation]:
    return [impl for impl in project.implementations.values() if impl.connections and not impl.external]


def _mutated(seed: int, mutate) -> Project:
    # A copy, so a retyped port cannot reach objects another compile shares.
    project = copy.deepcopy(_fuzzed(seed, sugaring=True))
    rng = random.Random(seed)
    for implementation in _structural_implementations(project):
        mutate(project, implementation, rng)
    return project


def _reverse(project: Project, implementation: Implementation, rng: random.Random) -> None:
    connection = rng.choice(implementation.connections)
    connection.source, connection.sink = connection.sink, connection.source


def _retype(project: Project, implementation: Implementation, rng: random.Random) -> None:
    connection = rng.choice(implementation.connections)
    port = project.resolve_port(implementation, connection.sink)
    port.logical_type = Stream(Bit(port.logical_type.data_width() + 3), dimension=1)


def _drive_twice(project: Project, implementation: Implementation, rng: random.Random) -> None:
    first, second = rng.sample(implementation.connections, 2)
    implementation.add_connection(Connection(source=first.source, sink=second.sink))


def _drop(project: Project, implementation: Implementation, rng: random.Random) -> None:
    implementation.connections.remove(rng.choice(implementation.connections))


def _unwire(project: Project, implementation: Implementation, rng: random.Random) -> None:
    """Every endpoint unused: the port-usage messages come out in key order."""
    implementation.connections.clear()


def _structural(project: Project, implementation: Implementation, rng: random.Random) -> None:
    _retype(project, implementation, rng)
    for connection in implementation.connections:
        connection.structural = True


MUTATIONS = {
    "reversed": (_reverse, "direction"),
    "type-mismatch": (_retype, "type-equality"),
    "driven-twice": (_drive_twice, "port-usage"),
    "dropped": (_drop, "port-usage"),
    "unwired": (_unwire, "port-usage"),
    "structural": (_structural, "type-equality"),
}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutated_designs_match_the_reference(mutation, seed):
    mutate, rule = MUTATIONS[mutation]
    violations = _assert_same_report(_mutated(seed, mutate))
    assert any(found == rule for found, _, _, _ in violations), violations
