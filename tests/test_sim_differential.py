"""Differential test: the simulator against the engine it replaced.

The engine builds one :class:`~repro.sim.behavior.BehaviorContext` per
component at elaboration, links every channel to the components at its
ends, and schedules closure-free events: a component to wake, or an
``(action, argument)`` pair.  Zero-delay events go into a FIFO run queue
of the current time step, later ones onto a heap that ``run`` moves into
the run queue one time step at a time.  The Fletcher reader converts each
connected column to Python values once and walks precomputed lanes; the
primitive behaviours bind their channels per context and fire without
port lookups.  None of that may change what a simulation computes.  The
previous engine (one heap of ``(time, seq, action)`` entries), context,
reader and primitive behaviours (with ``_merge_last`` and
``behavior_for``) are kept verbatim below as the reference (renamed, and
with the context class and the reference ``behavior_for`` named directly
where the engine imported them inside ``__init__``, ``_fire`` and
``run``).  Both must produce the same full trace: the same events with
the same sequence numbers (every ``fire`` is logged with the number of
events scheduled so far), hence the same ``events_processed`` and
``end_time``, the same input and output packets with their arrival times,
``produced_at`` and ``last`` flags (compared by type, so a ``bool`` is not
an ``int``), the same per-channel statistics and final queue contents, the
same state logs and component states, and the same
:meth:`SimulationReport.as_dict` -- also when a run is truncated by
``max_time`` or stopped by ``max_events``, where the partial
``exc.trace`` must match too.

The designs: the six TPC-H queries over three seeded datasets (plus
empty tables, and reader objects reused across runs), fuzzed
:func:`~repro.testing.build_random_design` chains driven through
:class:`~repro.sim.SimulationPlan` stimuli at channel capacity 1 and 4,
the scripted-behaviour designs of ``test_sim_scripted.py``, a design with
every primitive kind driven by ``drive_packets`` with ``last`` flags of
every spelling, primitive objects shared across components and runs, a
design that deadlocks and ends by ``max_time`` (driven both ways), runs
that exhaust ``max_events``, and a same-time ordering design: a user
behaviour that calls ``schedule(0, ...)``, ``schedule(1, ...)`` and
``push_later`` between latency-0 primitives, with stimuli that start at 0
and later, run whole, stopped by ``max_events`` within a time step and
truncated by ``max_time``.  Three call-count tests pin what the engine no
longer repeats: a tpch-sim benchmark pass builds one context per
component, binds each primitive once, never asks the context for a port
and schedules no closure, and each reader converts each connected column
once.
"""
from __future__ import annotations

import functools
import heapq
import json
import random
from collections import Counter, deque
from dataclasses import astuple, dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np
import pytest

from repro.arrow import fletcher
from repro.arrow.fletcher import reader_behaviors, reader_name
from repro.arrow.tpch import generate_tpch_data
from repro.errors import TydiSimulationError
from repro.ir.model import Implementation, PortDirection, Project
from repro.lang import ast
from repro.lang.compile import compile_project, compile_sources
from repro.queries import ALL_QUERIES
from repro.sim import SimulationPlan, Simulator, Stimulus, report_from_trace
from repro.sim.behavior import (
    _USER_BEHAVIORS,
    BehaviorContext,
    PrimitiveBehavior,
    ScriptedBehavior,
    behavior_for,
)
from repro.sim.engine import (
    DEFAULT_MAX_EVENTS,
    DEFAULT_MAX_TIME,
    Channel,
    ChannelStats,
    Component,
    SimulationTrace,
)
from repro.sim.packets import Packet, sequence_to_packets
from repro.spec.logical_types import Stream
from repro.stdlib.components import primitive_kind
from repro.testing import build_random_design
from test_sim_scripted import CLAMP, DOUBLER, MERGE, SLOW, TAP, TOGGLER

# -- the reference: the previous engine, context and reader, verbatim ---------


class ReferenceChannel:
    """A point-to-point stream connection with a bounded queue."""

    def __init__(
        self,
        name: str,
        source: tuple[str, str],
        sink: tuple[str, str],
        capacity: int = 2,
    ) -> None:
        self.name = name
        self.source = source  # (component path, port name)
        self.sink = sink
        self.capacity = max(1, capacity)
        self.queue: deque[tuple[Packet, int]] = deque()
        #: Packets produced by the source that did not fit in the queue yet.
        self.pending: deque[tuple[Packet, int]] = deque()
        self.stats = ChannelStats()
        self.closed = False

    def can_accept(self) -> bool:
        return len(self.queue) < self.capacity and not self.pending

    def occupancy(self) -> int:
        return len(self.queue)

    def has_data(self) -> bool:
        return bool(self.queue)

    def peek(self) -> Optional[Packet]:
        if not self.queue:
            return None
        return self.queue[0][0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Channel({self.name}, {len(self.queue)}/{self.capacity})"


@dataclass
class ReferenceComponent:
    """A leaf component of the flattened design."""

    path: str
    implementation: Implementation
    behavior: object
    inputs: dict[str, ReferenceChannel] = field(default_factory=dict)
    outputs: dict[str, ReferenceChannel] = field(default_factory=dict)
    state: dict[str, object] = field(default_factory=dict)
    state_log: list[tuple[int, str, object]] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Component({self.path}, {self.implementation.name})"




class ReferenceSimulator:
    """Flattens a project and runs the event-driven simulation."""

    def __init__(
        self,
        project: Project,
        top: Optional[str] = None,
        channel_capacity: int = 2,
        behaviors: Optional[dict[str, object]] = None,
    ) -> None:
        self.project = project
        self.top_name = top or project.top
        if self.top_name is None:
            raise TydiSimulationError("simulation requires a top-level implementation")
        self.top = project.implementation(self.top_name)
        if self.top.external:
            raise TydiSimulationError("the top-level implementation must be structural")
        self.channel_capacity = channel_capacity
        self._behavior_overrides = behaviors or {}
        self._behavior_for = reference_behavior_for

        self.components: dict[str, ReferenceComponent] = {}
        self.channels: list[ReferenceChannel] = []
        self.input_channels: dict[str, ReferenceChannel] = {}
        self.output_channels: dict[str, ReferenceChannel] = {}

        self.now = 0
        self._event_queue: list[tuple[int, int, Callable[[], None]]] = []
        self._event_seq = 0
        self._events_processed = 0
        self.trace = SimulationTrace()

        self._elaborate()

    # -- elaboration -----------------------------------------------------------

    def _elaborate(self) -> None:
        edges: list[tuple[tuple[str, str], tuple[str, str]]] = []
        self._collect("", self.top, edges)

        top_streamlet = self.project.streamlet_of(self.top)

        # Identify true sources and sinks of each connection chain.
        next_hop: dict[tuple[str, str], tuple[str, str]] = {}
        for source, sink in edges:
            if source in next_hop:
                raise TydiSimulationError(
                    f"endpoint {source} drives more than one connection; run the DRC first"
                )
            next_hop[source] = sink

        leaf_ports: set[tuple[str, str]] = set()
        for path, component in self.components.items():
            streamlet = self.project.streamlet_of(component.implementation)
            for port in streamlet.ports:
                leaf_ports.add((path, port.name))

        def is_terminal_sink(key: tuple[str, str]) -> bool:
            path, port_name = key
            if key in leaf_ports:
                port = self.project.streamlet_of(self.components[path].implementation).port(port_name)
                return port.direction is PortDirection.IN
            if path == "":
                return top_streamlet.port(port_name).direction is PortDirection.OUT
            return False

        def true_sources() -> Iterable[tuple[str, str]]:
            for path, component in self.components.items():
                streamlet = self.project.streamlet_of(component.implementation)
                for port in streamlet.ports:
                    if port.direction is PortDirection.OUT:
                        yield (path, port.name)
            for port in top_streamlet.ports:
                if port.direction is PortDirection.IN:
                    yield ("", port.name)

        for source in true_sources():
            if source not in next_hop:
                continue  # dangling source: DRC would have flagged it
            hop = next_hop[source]
            seen = {source}
            while not is_terminal_sink(hop):
                if hop not in next_hop or hop in seen:
                    raise TydiSimulationError(
                        f"connection chain starting at {source} does not terminate at a leaf port"
                    )
                seen.add(hop)
                hop = next_hop[hop]
            channel = ReferenceChannel(
                name=f"{source[0] or 'top'}.{source[1]} -> {hop[0] or 'top'}.{hop[1]}",
                source=source,
                sink=hop,
                capacity=self.channel_capacity,
            )
            self.channels.append(channel)
            self.trace.channels[channel.name] = channel
            self._attach(channel)

    def _collect(
        self,
        path: str,
        implementation: Implementation,
        edges: list[tuple[tuple[str, str], tuple[str, str]]],
    ) -> None:
        """Recursively walk structural implementations, creating leaf components."""
        for instance in implementation.instances:
            inner = self.project.implementation(instance.implementation)
            inner_path = f"{path}/{instance.name}" if path else instance.name
            if inner.external:
                override = self._behavior_overrides.get(inner_path)
                if override is None:
                    override = self._behavior_overrides.get(inner.name)
                if override is None:
                    behavior = self._behavior_for(inner)
                elif hasattr(override, "fire"):
                    behavior = override
                elif callable(override):
                    # A factory: called with the implementation to build the behaviour.
                    behavior = override(inner)
                else:
                    raise TydiSimulationError(
                        f"behaviour override for {inner.name!r} must be a behaviour or a factory"
                    )
                self.components[inner_path] = ReferenceComponent(
                    path=inner_path, implementation=inner, behavior=behavior
                )
            else:
                self._collect(inner_path, inner, edges)

        for connection in implementation.connections:
            source_key = self._endpoint_key(path, implementation, connection.source)
            sink_key = self._endpoint_key(path, implementation, connection.sink)
            edges.append((source_key, sink_key))

    def _endpoint_key(self, path: str, implementation: Implementation, ref) -> tuple[str, str]:
        if ref.instance is None:
            return (path, ref.port)
        inner_path = f"{path}/{ref.instance}" if path else ref.instance
        return (inner_path, ref.port)

    def _attach(self, channel: ReferenceChannel) -> None:
        from repro.stdlib.components import primitive_kind

        source_path, source_port = channel.source
        sink_path, sink_port = channel.sink

        # A constant generator feeding a voider would exchange packets forever
        # (the voider is always ready); such a pair carries no information, so
        # it is optimised away -- neither side sees the channel.
        const_kinds = ("const_int_generator", "const_float_generator", "const_str_generator")
        if source_path and sink_path:
            source_kind = primitive_kind(self.components[source_path].implementation) if source_path in self.components else None
            sink_kind = primitive_kind(self.components[sink_path].implementation) if sink_path in self.components else None
            if source_kind in const_kinds and sink_kind == "voider":
                channel.closed = True
                return

        if source_path == "":
            self.input_channels[source_port] = channel
        else:
            self.components[source_path].outputs[source_port] = channel
        if sink_path == "":
            self.output_channels[sink_port] = channel
        else:
            self.components[sink_path].inputs[sink_port] = channel

    # -- event queue -------------------------------------------------------------

    def schedule(self, delay: int, action: Callable[[], None]) -> None:
        if delay < 0:
            raise TydiSimulationError(f"cannot schedule an event {delay} cycles in the past")
        self._event_seq += 1
        heapq.heappush(self._event_queue, (self.now + delay, self._event_seq, action))

    def _notify_component(self, path: str) -> None:
        component = self.components.get(path)
        if component is None:
            return
        self.schedule(0, lambda: self._fire(component))

    def _fire(self, component: ReferenceComponent) -> None:
        ctx = ReferenceContext(self, component)
        # Keep firing while the behaviour makes progress in this delta cycle.
        for _ in range(10_000):
            if not component.behavior.fire(ctx):
                break
        else:  # pragma: no cover - defensive guard against livelock
            raise TydiSimulationError(
                f"component {component.path} fired 10000 times at t={self.now}; "
                "behaviour is likely not consuming its inputs"
            )

    # -- channel operations --------------------------------------------------------

    def push(self, channel: ReferenceChannel, packet: Packet, *, from_source: bool = True) -> None:
        """Deliver a packet into a channel (or its pending queue when full)."""
        stamped = Packet(value=packet.value, last=packet.last, produced_at=self.now)
        if len(channel.queue) < channel.capacity and not channel.pending:
            channel.queue.append((stamped, self.now))
            channel.stats.last_activity = self.now
            self._on_data_available(channel)
        else:
            channel.pending.append((stamped, self.now))
            channel.stats.blocked_sends += 1

    def pop(self, channel: ReferenceChannel) -> Packet:
        """Consume the head packet of a channel (the handshake acknowledge)."""
        if not channel.queue:
            raise TydiSimulationError(f"pop from empty channel {channel.name}")
        packet, enqueued_at = channel.queue.popleft()
        channel.stats.packets_transferred += 1
        channel.stats.total_queue_wait += self.now - enqueued_at
        channel.stats.last_activity = self.now
        # Move a pending packet into the freed slot and account its blockage.
        if channel.pending:
            pending_packet, produced_at = channel.pending.popleft()
            channel.stats.total_blocked_time += self.now - produced_at
            channel.queue.append((pending_packet, self.now))
            self._on_data_available(channel)
        # Space freed: the source may be able to produce again.
        source_path, _ = channel.source
        if source_path:
            self._notify_component(source_path)
        return packet

    def _on_data_available(self, channel: ReferenceChannel) -> None:
        sink_path, sink_port = channel.sink
        if sink_path == "":
            # Top-level output: record and consume immediately (the testbench
            # environment is always ready).
            packet, enqueued_at = channel.queue.popleft()
            channel.stats.packets_transferred += 1
            channel.stats.total_queue_wait += self.now - enqueued_at
            self.trace.outputs.setdefault(sink_port, []).append((self.now, packet))
            if channel.pending:
                pending_packet, produced_at = channel.pending.popleft()
                channel.stats.total_blocked_time += self.now - produced_at
                channel.queue.append((pending_packet, self.now))
                self.schedule(0, lambda: self._on_data_available(channel))
            source_path, _ = channel.source
            if source_path:
                self._notify_component(source_path)
        else:
            self._notify_component(sink_path)

    # -- stimulus and execution -------------------------------------------------------

    def drive(
        self,
        port: str,
        values: Iterable[object],
        *,
        dimensions: Optional[int] = None,
        interval: int = 1,
        start_time: int = 0,
    ) -> None:
        """Queue a stimulus sequence on a top-level input port."""
        if port not in self.input_channels:
            raise TydiSimulationError(
                f"top-level implementation {self.top_name!r} has no driven input port {port!r}"
            )
        channel = self.input_channels[port]
        if dimensions is None:
            top_port = self.project.streamlet_of(self.top).port(port)
            dimensions = (
                top_port.logical_type.dimension
                if isinstance(top_port.logical_type, Stream)
                else 1
            )
        packets = sequence_to_packets(values, dimensions)

        def feeder(index: int = 0) -> None:
            if index >= len(packets):
                return
            if channel.can_accept():
                packet = packets[index]
                self.trace.inputs.setdefault(port, []).append((self.now, packet))
                self.push(channel, packet)
                self.schedule(max(1, interval), lambda: feeder(index + 1))
            else:
                # Backpressure from the design: retry next cycle.
                channel.stats.blocked_sends += 1
                self.schedule(1, lambda: feeder(index))

        self.schedule(start_time, feeder)

    def drive_packets(self, port: str, packets: Iterable[Packet], interval: int = 1) -> None:
        """Queue explicit packets (with custom last flags) on an input port."""
        if port not in self.input_channels:
            raise TydiSimulationError(f"no driven input port {port!r}")
        channel = self.input_channels[port]
        packet_list = list(packets)

        def feeder(index: int = 0) -> None:
            if index >= len(packet_list):
                return
            if channel.can_accept():
                self.trace.inputs.setdefault(port, []).append((self.now, packet_list[index]))
                self.push(channel, packet_list[index])
                self.schedule(max(1, interval), lambda: feeder(index + 1))
            else:
                self.schedule(1, lambda: feeder(index))

        self.schedule(0, feeder)

    def run(
        self,
        max_time: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> SimulationTrace:
        """Process events until the queue drains.

        Reaching ``max_time`` *truncates*: the run stops and returns the
        trace recorded so far -- a deadlocked design keeps polling blocked
        stimuli forever, so the time budget is how such a run ends and
        reaches :func:`~repro.sim.deadlock.detect_deadlock`.  Exceeding
        ``max_events`` is a livelock diagnosis: it raises a
        :class:`TydiSimulationError` with the partial trace attached
        (``exc.trace``) so the truncated run can still be analysed.
        """
        max_time = DEFAULT_MAX_TIME if max_time is None else max_time
        max_events = DEFAULT_MAX_EVENTS if max_events is None else max_events
        # Give every behaviour a chance to initialise (constant generators
        # start emitting without any input).
        for component in self.components.values():
            start = getattr(component.behavior, "start", None)
            if callable(start):
                start(ReferenceContext(self, component))
            self._notify_component(component.path)

        while self._event_queue:
            time, _, action = heapq.heappop(self._event_queue)
            if time > max_time:
                break
            self.now = time
            action()
            self._events_processed += 1
            if self._events_processed > max_events:
                self._finalize_trace()
                raise TydiSimulationError(
                    f"simulation exceeded {max_events} events; possible livelock",
                    trace=self.trace,
                )

        self._finalize_trace()
        return self.trace

    def _finalize_trace(self) -> None:
        self.trace.end_time = self.now
        self.trace.events_processed = self._events_processed
        for component in self.components.values():
            if component.state_log:
                self.trace.state_logs[component.path] = list(component.state_log)


class ReferenceContext:
    """The API a behaviour uses to interact with the engine."""

    def __init__(self, simulator, component) -> None:
        self.simulator = simulator
        self.component = component

    # -- time and state ----------------------------------------------------------

    @property
    def now(self) -> int:
        return self.simulator.now

    def get_state(self, name: str, default: object = None) -> object:
        return self.component.state.get(name, default)

    def set_state(self, name: str, value: object) -> None:
        self.component.state[name] = value
        self.component.state_log.append((self.now, name, value))

    # -- input side ---------------------------------------------------------------

    def has_input(self, port: str) -> bool:
        channel = self.component.inputs.get(port)
        return channel is not None and channel.has_data()

    def peek(self, port: str) -> Optional[Packet]:
        channel = self.component.inputs.get(port)
        if channel is None:
            return None
        return channel.peek()

    def take(self, port: str) -> Packet:
        """Consume (acknowledge) the head packet of an input port."""
        channel = self.component.inputs.get(port)
        if channel is None or not channel.has_data():
            raise TydiSimulationError(
                f"component {self.component.path} tried to take from empty port {port!r}"
            )
        return self.simulator.pop(channel)

    def input_ports(self) -> list[str]:
        return list(self.component.inputs)

    # -- output side -----------------------------------------------------------------

    def can_send(self, port: str) -> bool:
        channel = self.component.outputs.get(port)
        return channel is not None and channel.can_accept()

    def send(self, port: str, packet: Packet | object, delay: int = 0) -> None:
        """Emit a packet on an output port, optionally after ``delay`` cycles."""
        channel = self.component.outputs.get(port)
        if channel is None:
            # Output not connected anywhere (e.g. voided away at a higher
            # level); silently drop, like hardware whose ready is tied high.
            return
        if not isinstance(packet, Packet):
            packet = Packet(value=packet)
        if delay <= 0:
            self.simulator.push(channel, packet)
        else:
            self.simulator.schedule(delay, lambda: self.simulator.push(channel, packet))

    def output_ports(self) -> list[str]:
        return list(self.component.outputs)

class ReferenceReader:
    """Simulator behaviour of a generated memory reader.

    Streams the rows of a :class:`Table` out of the column ports.  Every
    column advances independently (each output port has its own read
    pointer), matching how Fletcher's per-column readers behave; the final
    row carries the ``last`` flag closing the outer dimension.
    """

    latency = 1

    def __init__(self, implementation: Implementation, table: Table) -> None:
        self.implementation = implementation
        self.table = table

    def fire(self, ctx) -> bool:
        progressed = False
        for port in ctx.output_ports():
            if port not in self.table:
                continue
            values = self.table[port]
            position = int(ctx.get_state(f"pos_{port}", 0))
            if position >= len(values):
                continue
            if not ctx.can_send(port):
                continue
            raw = values[position]
            value = raw.item() if hasattr(raw, "item") else raw
            is_last = position == len(values) - 1
            ctx.send(port, Packet(value=value, last=(is_last,)))
            ctx.set_state(f"pos_{port}", position + 1)
            progressed = True
        return progressed

    def start(self, ctx) -> None:
        if self.table.num_rows == 0:
            # An empty table still terminates every column stream.
            for port in ctx.output_ports():
                ctx.send(port, Packet(value=None, last=(True,)))


def reference_reader_behaviors(schemas, tables) -> dict[str, object]:
    return {
        reader_name(schema): functools.partial(ReferenceReader, table=tables[schema.name])
        for schema in schemas
    }


# -- the reference primitives: the previous behaviours, verbatim ----------------


class ReferencePrimitiveBehavior:
    """Base class of hard-coded primitive behaviours."""

    #: Cycles between consuming the inputs and producing the output.
    latency: int = 1

    def __init__(self, implementation: Implementation) -> None:
        self.implementation = implementation
        self.metadata = implementation.metadata

    def argument(self, index: int, default: object = None) -> object:
        arguments = self.metadata.get("arguments", ())
        if index < len(arguments):
            return arguments[index]
        return default

    def fire(self, ctx: BehaviorContext) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


def _reference_merge_last(*packets: Packet) -> tuple[bool, ...]:
    """Combine last flags of synchronised inputs (element-wise or)."""
    longest = max((len(p.last) for p in packets), default=0)
    merged = []
    for index in range(longest):
        merged.append(any(index < len(p.last) and p.last[index] for p in packets))
    return tuple(merged)


class ReferenceDuplicatorBehavior(ReferencePrimitiveBehavior):
    """Copy each input packet to every output; all outputs must have space."""

    latency = 0

    def fire(self, ctx: BehaviorContext) -> bool:
        if not ctx.has_input("input"):
            return False
        if not all(ctx.can_send(port) for port in ctx.output_ports()):
            return False
        packet = ctx.take("input")
        for port in ctx.output_ports():
            ctx.send(port, packet)
        return True


class ReferenceVoiderBehavior(ReferencePrimitiveBehavior):
    """Always ready: consume and discard everything."""

    latency = 0

    def fire(self, ctx: BehaviorContext) -> bool:
        progressed = False
        for port in ctx.input_ports():
            if ctx.has_input(port):
                ctx.take(port)
                progressed = True
        return progressed


class ReferenceDemuxBehavior(ReferencePrimitiveBehavior):
    """Round-robin distribution of input packets over the output channels."""

    def fire(self, ctx: BehaviorContext) -> bool:
        if not ctx.has_input("input"):
            return False
        outputs = sorted(ctx.output_ports())
        if not outputs:
            return False
        index = int(ctx.get_state("selected", 0))
        port = outputs[index % len(outputs)]
        if not ctx.can_send(port):
            return False
        packet = ctx.take("input")
        ctx.send(port, packet, delay=self.latency)
        ctx.set_state("selected", (index + 1) % len(outputs))
        return True


class ReferenceMuxBehavior(ReferencePrimitiveBehavior):
    """Round-robin arbitration of the input channels onto the output."""

    def fire(self, ctx: BehaviorContext) -> bool:
        if not ctx.can_send("output"):
            return False
        inputs = sorted(ctx.input_ports())
        if not inputs:
            return False
        index = int(ctx.get_state("selected", 0))
        for offset in range(len(inputs)):
            port = inputs[(index + offset) % len(inputs)]
            if ctx.has_input(port):
                packet = ctx.take(port)
                ctx.send("output", packet, delay=self.latency)
                ctx.set_state("selected", (index + offset + 1) % len(inputs))
                return True
        return False


class ReferenceConstGeneratorBehavior(ReferencePrimitiveBehavior):
    """Emit the configured constant whenever the consumer has space."""

    latency = 0

    def fire(self, ctx: BehaviorContext) -> bool:
        if not ctx.can_send("output"):
            return False
        value = self.argument(1, 0)
        if hasattr(value, "logical_type"):
            value = 0
        ctx.send("output", Packet(value=value))
        return True


class ReferenceBinaryOpBehavior(ReferencePrimitiveBehavior):
    """Two-input synchronised operator (arithmetic or comparison)."""

    def __init__(self, implementation: Implementation, operator: Callable[[object, object], object]) -> None:
        super().__init__(implementation)
        self.operator = operator

    def fire(self, ctx: BehaviorContext) -> bool:
        if not (ctx.has_input("lhs") and ctx.has_input("rhs")):
            return False
        # Arithmetic primitives name their output "output", comparators name
        # it "result"; use whichever single output port the streamlet has.
        outputs = ctx.output_ports()
        out_port = outputs[0] if outputs else "output"
        if outputs and not ctx.can_send(out_port):
            return False
        lhs = ctx.take("lhs")
        rhs = ctx.take("rhs")
        last = _reference_merge_last(lhs, rhs)
        if lhs.value is None or rhs.value is None:
            # A pure close packet: propagate the sequence delimiter.
            ctx.send(out_port, Packet(value=None, last=last), delay=self.latency)
            return True
        result = self.operator(lhs.value, rhs.value)
        ctx.send(out_port, Packet(value=result, last=last), delay=self.latency)
        return True


class ReferenceConstCompareBehavior(ReferencePrimitiveBehavior):
    """Compare each input element against a compile-time constant."""

    def __init__(self, implementation: Implementation) -> None:
        super().__init__(implementation)
        self.reference = self.argument(1, 0)

    def fire(self, ctx: BehaviorContext) -> bool:
        if not ctx.has_input("input"):
            return False
        if not ctx.can_send("result") and ctx.output_ports():
            return False
        packet = ctx.take("input")
        if packet.value is None:
            ctx.send("result", Packet(value=None, last=packet.last), delay=self.latency)
            return True
        value = packet.value
        equal = str(value) == str(self.reference) if isinstance(self.reference, str) else value == self.reference
        ctx.send("result", Packet(value=bool(equal), last=packet.last), delay=self.latency)
        return True


class ReferenceLogicOpBehavior(ReferencePrimitiveBehavior):
    """N-input boolean combinator (and / or / not)."""

    def __init__(self, implementation: Implementation, op: str) -> None:
        super().__init__(implementation)
        self.op = op

    def fire(self, ctx: BehaviorContext) -> bool:
        inputs = sorted(ctx.input_ports())
        if not inputs or not all(ctx.has_input(p) for p in inputs):
            return False
        if not ctx.can_send("output") and ctx.output_ports():
            return False
        packets = [ctx.take(p) for p in inputs]
        last = _reference_merge_last(*packets)
        values = [p.value for p in packets]
        if all(v is None for v in values):
            ctx.send("output", Packet(value=None, last=last), delay=self.latency)
            return True
        bools = [bool(v) for v in values if v is not None]
        if self.op == "and":
            result = all(bools)
        elif self.op == "or":
            result = any(bools)
        else:  # "not"
            result = not bools[0]
        ctx.send("output", Packet(value=result, last=last), delay=self.latency)
        return True


class ReferenceCombine2Behavior(ReferencePrimitiveBehavior):
    """Combine two synchronised element streams into one tuple-valued stream."""

    def fire(self, ctx: BehaviorContext) -> bool:
        if not (ctx.has_input("in0") and ctx.has_input("in1")):
            return False
        if not ctx.can_send("output") and ctx.output_ports():
            return False
        first = ctx.take("in0")
        second = ctx.take("in1")
        last = _reference_merge_last(first, second)
        if first.value is None and second.value is None:
            ctx.send("output", Packet(value=None, last=last), delay=self.latency)
            return True
        ctx.send("output", Packet(value=(first.value, second.value), last=last), delay=self.latency)
        return True


class ReferenceFilterBehavior(ReferencePrimitiveBehavior):
    """Forward the data packet only when the keep bit is true."""

    def fire(self, ctx: BehaviorContext) -> bool:
        if not (ctx.has_input("input") and ctx.has_input("keep")):
            return False
        if not ctx.can_send("output") and ctx.output_ports():
            return False
        data = ctx.take("input")
        keep = ctx.take("keep")
        last = _reference_merge_last(data, keep)
        if data.value is not None and keep.value:
            ctx.send("output", Packet(value=data.value, last=last), delay=self.latency)
        elif any(last):
            # The dropped packet closed a sequence: forward an empty close
            # packet so downstream aggregators still terminate.
            ctx.send("output", Packet(value=None, last=last), delay=self.latency)
        return True


class ReferenceAccumulatorBehavior(ReferencePrimitiveBehavior):
    """Reduce the input sequence to one result packet (sum/count/avg/min/max)."""

    def __init__(self, implementation: Implementation, kind: str) -> None:
        super().__init__(implementation)
        self.kind = kind

    def fire(self, ctx: BehaviorContext) -> bool:
        if not ctx.has_input("input"):
            return False
        packet = ctx.take("input")
        values: list[object] = ctx.get_state("values", None) or []
        if packet.value is not None:
            values = values + [packet.value]
        ctx.set_state("values", values)
        if packet.closes_outermost():
            result = self._reduce(values)
            ctx.send("output", Packet(value=result, last=(True,)), delay=self.latency)
            ctx.set_state("values", [])
        return True

    def _reduce(self, values: list[object]) -> object:
        if self.kind == "count":
            return len(values)
        if not values:
            return 0
        if self.kind == "sum":
            return sum(values)
        if self.kind == "avg":
            return sum(values) / len(values)
        if self.kind == "min_acc":
            return min(values)
        if self.kind == "max_acc":
            return max(values)
        raise TydiSimulationError(f"unknown accumulator kind {self.kind!r}")


class ReferenceGroupAggregateBehavior(ReferencePrimitiveBehavior):
    """Keyed aggregation: reduce the value stream per key (SQL GROUP BY)."""

    def __init__(self, implementation: Implementation, kind: str) -> None:
        super().__init__(implementation)
        self.kind = kind

    def fire(self, ctx: BehaviorContext) -> bool:
        if not (ctx.has_input("key") and ctx.has_input("value")):
            return False
        key_packet = ctx.take("key")
        value_packet = ctx.take("value")
        last = _reference_merge_last(key_packet, value_packet)
        groups: dict = ctx.get_state("groups", None) or {}
        if key_packet.value is not None and value_packet.value is not None:
            bucket = groups.setdefault(key_packet.value, [])
            bucket.append(value_packet.value)
        ctx.set_state("groups", groups)
        if last and last[-1]:
            results = []
            for key, values in groups.items():
                if self.kind == "group_sum":
                    aggregated: object = sum(values)
                elif self.kind == "group_count":
                    aggregated = len(values)
                else:  # group_avg
                    aggregated = sum(values) / len(values) if values else 0
                results.append((key, aggregated))
            for index, (key, aggregated) in enumerate(sorted(results, key=lambda kv: str(kv[0]))):
                is_final = index == len(results) - 1
                ctx.send(
                    "output",
                    Packet(value=(key, aggregated), last=(is_final,)),
                    delay=self.latency + index,
                )
            if not results:
                ctx.send("output", Packet(value=None, last=(True,)), delay=self.latency)
            ctx.set_state("groups", {})
        return True


def _reference_comparison(op: str) -> Callable[[object, object], object]:
    import operator

    table = {
        "compare_eq": operator.eq,
        "compare_ne": operator.ne,
        "compare_lt": operator.lt,
        "compare_le": operator.le,
        "compare_gt": operator.gt,
        "compare_ge": operator.ge,
    }
    return table[op]


def reference_behavior_for(implementation: Implementation) -> object:
    """Select the behaviour for an external implementation."""
    # Explicit user registration wins.
    factory = _USER_BEHAVIORS.get(implementation.name)
    if factory is None:
        template = implementation.metadata.get("template")
        if isinstance(template, str):
            factory = _USER_BEHAVIORS.get(template)
    if factory is not None:
        return factory(implementation)

    # In-source simulation block.
    if isinstance(implementation.simulation, ast.SimulationBlock):
        return ScriptedBehavior(implementation, implementation.simulation)

    # Standard-library primitive.
    kind = primitive_kind(implementation)
    if kind is not None:
        import operator

        if kind == "duplicator":
            return ReferenceDuplicatorBehavior(implementation)
        if kind == "voider":
            return ReferenceVoiderBehavior(implementation)
        if kind == "demux":
            return ReferenceDemuxBehavior(implementation)
        if kind == "mux":
            return ReferenceMuxBehavior(implementation)
        if kind in ("const_int_generator", "const_float_generator", "const_str_generator"):
            return ReferenceConstGeneratorBehavior(implementation)
        if kind == "adder":
            return ReferenceBinaryOpBehavior(implementation, operator.add)
        if kind == "subtractor":
            return ReferenceBinaryOpBehavior(implementation, operator.sub)
        if kind == "multiplier":
            return ReferenceBinaryOpBehavior(implementation, operator.mul)
        if kind == "divider":
            return ReferenceBinaryOpBehavior(implementation, lambda a, b: a / b if b else 0)
        if kind.startswith("compare_") and kind != "compare_const_eq":
            return ReferenceBinaryOpBehavior(implementation, _reference_comparison(kind))
        if kind == "compare_const_eq":
            return ReferenceConstCompareBehavior(implementation)
        if kind in ("and", "or", "not"):
            return ReferenceLogicOpBehavior(implementation, kind)
        if kind == "filter":
            return ReferenceFilterBehavior(implementation)
        if kind in ("sum", "count", "avg", "min_acc", "max_acc"):
            return ReferenceAccumulatorBehavior(implementation, kind)
        if kind in ("group_sum", "group_avg", "group_count"):
            return ReferenceGroupAggregateBehavior(implementation, kind)
        if kind == "combine2":
            return ReferenceCombine2Behavior(implementation)

    raise TydiSimulationError(
        f"no behaviour available for external implementation {implementation.name!r}; "
        "register one with repro.sim.register_behavior or add a simulation block"
    )


# -- running one plan on either engine ------------------------------------------


def _exact(value: object) -> object:
    """``value`` with every type spelled out, so that values Python calls
    equal (``1``, ``1.0``, ``True``, ``np.int64(1)``) still differ."""
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_exact(item) for item in value])
    if isinstance(value, dict):
        return ("dict", [(_exact(key), _exact(item)) for key, item in value.items()])
    return (type(value).__name__, repr(value))


def _packet(packet: Packet) -> tuple:
    return (_exact(packet.value), _exact(packet.last), packet.produced_at)


def full_trace(simulator, trace: SimulationTrace, plan: SimulationPlan) -> dict[str, object]:
    """Everything one run recorded, as lists in recording order."""

    def transfers(record):
        return [
            (port, [(time, _packet(packet)) for time, packet in events])
            for port, events in record.items()
        ]

    def queued(entries):
        return [(_packet(packet), time) for packet, time in entries]

    return {
        "events_processed": trace.events_processed,
        "end_time": trace.end_time,
        "outputs": transfers(trace.outputs),
        "inputs": transfers(trace.inputs),
        "channels": [
            (
                name,
                channel.source,
                channel.sink,
                channel.capacity,
                channel.closed,
                astuple(channel.stats),
                queued(channel.queue),
                queued(channel.pending),
            )
            for name, channel in trace.channels.items()
        ],
        "state_logs": [
            (path, [(time, name, _exact(value)) for time, name, value in log])
            for path, log in trace.state_logs.items()
        ],
        "states": [
            (path, _exact(component.state)) for path, component in simulator.components.items()
        ],
        "report": json.dumps(
            report_from_trace(simulator, trace, plan).as_dict(), sort_keys=True, default=repr
        ),
    }


class FireLog:
    """Wraps a component's behaviour and logs every ``fire``: the time, how
    many events the engine had scheduled so far, the component and whether
    it made progress.  Two engines log the same only if they run the same
    events in the same order."""

    def __init__(self, behavior, path: str, simulator, log: list) -> None:
        self.behavior = behavior
        self.path = path
        self.simulator = simulator
        self.log = log

    def start(self, ctx) -> None:
        start = getattr(self.behavior, "start", None)
        if callable(start):
            start(ctx)

    def fire(self, ctx) -> bool:
        progressed = self.behavior.fire(ctx)
        self.log.append((self.simulator.now, self.simulator._event_seq, self.path, progressed))
        return progressed


def simulate(
    simulator_class, project, plan: SimulationPlan, behaviors=None, packets=None
) -> dict[str, object]:
    """Run ``plan`` on one engine the way :func:`~repro.sim.run_simulation`
    does, keeping the partial trace of a run that exceeds ``max_events``.
    ``packets`` maps top-level ports to explicit packets for ``drive_packets``."""
    simulator = simulator_class(
        project, channel_capacity=plan.channel_capacity, behaviors=behaviors
    )
    fires: list[tuple] = []
    for component in simulator.components.values():
        component.behavior = FireLog(component.behavior, component.path, simulator, fires)
    for stimulus in plan.stimuli:
        simulator.drive(
            stimulus.port,
            list(stimulus.values),
            dimensions=stimulus.dimensions,
            interval=stimulus.interval,
            start_time=stimulus.start_time,
        )
    for port, port_packets in (packets or {}).items():
        simulator.drive_packets(port, port_packets)
    error = None
    try:
        trace = simulator.run(max_time=plan.max_time, max_events=plan.max_events)
    except TydiSimulationError as exc:
        error, trace = str(exc), exc.trace
    return {"error": error, "fires": fires, **full_trace(simulator, trace, plan)}


def assert_same_run(
    project, plan, behaviors=None, reference_behaviors=None, packets=None
) -> dict[str, object]:
    expected = simulate(ReferenceSimulator, project, plan, reference_behaviors or behaviors, packets)
    actual = simulate(Simulator, project, plan, behaviors, packets)
    for key, value in expected.items():
        assert actual[key] == value, f"{key} differs from the reference engine"
    return actual


# -- TPC-H ------------------------------------------------------------------------

ROWS = 200


@functools.lru_cache(maxsize=None)
def tpch_tables(seed: int):
    return generate_tpch_data(ROWS, seed=seed)


def tpch_run(query, seed: int, plan: SimulationPlan) -> dict[str, object]:
    datasets = query.dataset_builder(tpch_tables(seed))
    return assert_same_run(
        query.compile().project,
        plan,
        reader_behaviors(query.schemas, datasets),
        reference_reader_behaviors(query.schemas, datasets),
    )


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda query: query.name)
def test_tpch_designs(query, seed):
    run = tpch_run(query, seed, query.default_plan())
    assert run["error"] is None
    assert json.loads(run["report"])["verdict"] == "ok"


SMALL_QUERIES = [query for query in ALL_QUERIES if query.name in ("q1", "q6")]


@pytest.mark.parametrize("query", SMALL_QUERIES, ids=lambda query: query.name)
def test_tpch_empty_tables(query):
    datasets = {name: table.head(0) for name, table in query.dataset_builder(tpch_tables(1)).items()}
    assert_same_run(
        query.compile().project,
        query.default_plan(),
        reader_behaviors(query.schemas, datasets),
        reference_reader_behaviors(query.schemas, datasets),
    )


@pytest.mark.parametrize("query", SMALL_QUERIES, ids=lambda query: query.name)
def test_tpch_reader_objects_reused_across_runs(query):
    # A behaviour object (not a factory) serves every instance of its
    # implementation, in every simulator it is passed to.
    project = query.compile().project
    datasets = query.dataset_builder(tpch_tables(2))

    def shared(reader_class):
        return {
            reader_name(schema): reader_class(
                project.implementation(reader_name(schema)), datasets[schema.name]
            )
            for schema in query.schemas
        }

    plan = query.default_plan()
    reference, behaviors = shared(ReferenceReader), shared(fletcher.FletcherReaderBehavior)
    first = simulate(ReferenceSimulator, project, plan, reference)
    for _ in range(2):
        assert simulate(Simulator, project, plan, behaviors) == first


@pytest.mark.parametrize("query", SMALL_QUERIES, ids=lambda query: query.name)
def test_tpch_max_events_exhaustion(query):
    run = tpch_run(query, 1, query.default_plan(max_events=2500))
    assert run["error"] == "simulation exceeded 2500 events; possible livelock"
    assert run["events_processed"] == 2501


# -- fuzzed chains driven by plan stimuli -----------------------------------------


class ChainStep:
    """A chain step: forwards each packet after a latency set by its step
    number, counts packets in state, and copies every third count to its
    ``spare`` port when it has one (sugaring voids it)."""

    def __init__(self, implementation: Implementation) -> None:
        self.latency = int(implementation.name[len("step") : -len("_i")]) % 3

    def fire(self, ctx) -> bool:
        if not ctx.has_input("i") or not ctx.can_send("o"):
            return False
        packet = ctx.take("i")
        seen = ctx.get_state("seen", 0) + 1
        ctx.set_state("seen", seen)
        ctx.send("o", packet, delay=self.latency)
        if seen % 3 == 0 and ctx.can_send("spare"):
            ctx.send("spare", packet.with_value(seen))
        return True


def chain_step(implementation: Implementation) -> ChainStep:
    return ChainStep(implementation)


@pytest.mark.parametrize("capacity", (1, 4))
@pytest.mark.parametrize("seed", range(8))
def test_fuzzed_chains(seed, capacity):
    rng = random.Random(seed)
    project = compile_sources(build_random_design(rng), cache=None).project
    behaviors = {name: chain_step for name in project.implementations if name.startswith("step")}
    stimulus = Stimulus(
        port="feed",
        values=tuple(rng.randint(0, 255) for _ in range(rng.randint(0, 12))),
        interval=rng.randint(1, 3),
        start_time=rng.randint(0, 4),
    )
    plan = SimulationPlan(stimuli=(stimulus,), channel_capacity=capacity, testbench=True)
    run = assert_same_run(project, plan, behaviors)
    assert run["error"] is None


# -- scripted behaviours, deadlock and livelock ------------------------------------

SCRIPTED = {
    "doubler": (DOUBLER, {"i": [1, 2, 3, 4, 5]}),
    "merge": (MERGE, {"x": [1, 2, 3, 4], "y": [10, 20, 30, 40]}),
    "slow": (SLOW, {"i": [5, 6, 7]}),
    "clamp": (CLAMP, {"i": [50, 150, 99, 101]}),
    "tap": (TAP, {"i": [1, 2, 3]}),
    "toggler": (TOGGLER, {"i": [10, 11, 12, 13, 14]}),
}


@pytest.mark.parametrize("capacity", (1, 2))
@pytest.mark.parametrize("name", sorted(SCRIPTED))
def test_scripted_designs(name, capacity):
    source, stimuli = SCRIPTED[name]
    plan = SimulationPlan(stimuli=stimuli, channel_capacity=capacity, testbench=True)
    run = assert_same_run(compile_project(source).project, plan)
    assert run["error"] is None


MISSING_OPERAND = """
type num = Stream(Bit(8), d=1);
streamlet top_s { a: num in, b: num in, o: num out, }
impl top_i of top_s {
    instance add(adder_i<type num, type num>),
    a => add.lhs,
    b => add.rhs,
    add.output => o,
}
top top_i;
"""


@pytest.mark.parametrize("capacity", (1, 2))
def test_deadlock_ends_by_max_time(capacity):
    # Only one adder operand is driven: the stimulus polls forever.
    plan = SimulationPlan(stimuli={"a": [1, 2, 3]}, channel_capacity=capacity, max_time=400)
    run = assert_same_run(compile_project(MISSING_OPERAND).project, plan)
    assert run["error"] is None
    assert run["end_time"] == 400
    assert json.loads(run["report"])["verdict"] == "deadlock"


@pytest.mark.parametrize("capacity", (1, 2))
def test_explicit_packets_wait_out_backpressure(capacity):
    # The same deadlock, driven through ``drive_packets``: its feeder
    # retries a blocked packet every cycle until ``max_time``.
    plan = SimulationPlan(channel_capacity=capacity, max_time=400)
    packets = {"a": sequence_to_packets([1, 2, 3])}
    run = assert_same_run(compile_project(MISSING_OPERAND).project, plan, packets=packets)
    assert run["error"] is None
    assert run["end_time"] == 400
    assert json.loads(run["report"])["verdict"] == "deadlock"


ENDLESS = """
type num = Stream(Bit(32), d=1);
streamlet top_s { total: num out, }
impl top_i of top_s {
    instance k(const_int_generator_i<type num, 3>),
    instance acc(sum_i<type num, type num>),
    k.output => acc.input,
    acc.output => total,
}
top top_i;
"""


def test_max_events_exhaustion_keeps_the_partial_trace():
    # The constant stream never closes, so the accumulator never finishes.
    plan = SimulationPlan(max_events=600)
    run = assert_same_run(compile_project(ENDLESS).project, plan)
    assert run["error"] == "simulation exceeded 600 events; possible livelock"
    assert run["events_processed"] == 601


# -- every primitive, driven with explicit packets -----------------------------------

#: Every primitive kind.  ``add`` and ``add2`` share one implementation, and
#: sugaring adds duplicators for the fanned-out inputs and a voider for the
#: unconnected ``inv.output``.  The gate's and the mux's input channels are
#: attached out of port order (``y`` is a top-level port, attached last),
#: and the demux's eleven outputs sort ``output_10`` before ``output_2``.
PRIMITIVES = """
type num = Stream(Bit(32), d=1);
type flag = Stream(Bit(1), d=1);
type pair_t = Stream(Bit(64), d=1);
streamlet top_s {
    a: num in, b: num in, x: flag in, y: flag in,
    total: num out, diff: num out, hit: flag out, gate: flag out,
    kept: num out, pairs: pair_t out, groups: pair_t out, scaled: num out,
    spread: num out,
}
impl top_i of top_s {
    instance add(adder_i<type num, type num>),
    instance add2(adder_i<type num, type num>),
    instance sub(subtractor_i<type num, type num>),
    instance lt(compare_lt_i<type num>),
    instance k(compare_const_eq_i<type num, "3">),
    instance any3(or_i<3>),
    instance both(and_i<2>),
    instance inv(not_i),
    instance f(filter_i<type num>),
    instance comb(combine2_i<type num, type num, type pair_t>),
    instance gs(group_sum_i<type num, type num, type pair_t>),
    instance acc(sum_i<type num, type num>),
    instance five(const_int_generator_i<type num, 5>),
    instance mul(multiplier_i<type num, type num>),
    instance d(demux_i<type num, 11>),
    instance m(mux_i<type num, 11>),
    a => add.lhs, b => add.rhs, add.output => add2.lhs, b => add2.rhs,
    add2.output => acc.input, acc.output => total,
    a => sub.lhs, b => sub.rhs, sub.output => diff,
    a => lt.lhs, b => lt.rhs,
    a => k.input, k.result => hit,
    y => any3.input[0], lt.result => any3.input[1], both.output => any3.input[2],
    any3.output => gate,
    x => both.input[0], y => both.input[1],
    x => inv.input[0],
    a => f.input, x => f.keep, f.output => kept,
    a => comb.in0, b => comb.in1, comb.output => pairs,
    a => gs.key, b => gs.value, gs.output => groups,
    a => mul.lhs, five.output => mul.rhs, mul.output => scaled,
    a => d.input, m.output => spread,
    for i in 0->11 {
        d.output[i] => m.input[10 - i],
    }
}
top top_i;
"""

#: ``last`` flags as a stimulus may spell them: not only ``bool``.
FLAGS = (False, True, 0, 1, np.False_, np.True_)


def flagged_packets(rng: random.Random, count: int, values) -> list[Packet]:
    """``count`` packets with values drawn from ``values`` (None is a close
    packet) and zero to two ``last`` flags of any spelling in ``FLAGS``."""
    return [
        Packet(rng.choice(values), tuple(rng.choice(FLAGS) for _ in range(rng.choice((0, 1, 1, 1, 2)))))
        for _ in range(count)
    ]


@pytest.mark.parametrize("capacity", (1, 3))
@pytest.mark.parametrize("seed", range(4))
def test_every_primitive_with_explicit_packets(seed, capacity):
    # Two-input primitives merge flags of different spellings and lengths;
    # the merged flags must be the same ``bool``s, not the inputs' spellings.
    rng = random.Random(seed)
    count = rng.randint(1, 14)
    numbers = (None, 0, 1, 2, 3, 4, 5, 6)
    packets = {
        "a": flagged_packets(rng, count, numbers),
        "b": flagged_packets(rng, count, numbers),
        "x": flagged_packets(rng, count, (None, True, False)),
        "y": flagged_packets(rng, count, (None, True, False)),
    }
    plan = SimulationPlan(channel_capacity=capacity, max_time=2000)
    run = assert_same_run(compile_project(PRIMITIVES).project, plan, packets=packets)
    assert run["error"] is None
    merged = [last for _, outputs in run["outputs"] for _, (_, last, _) in outputs]
    assert ("tuple", [("bool", "True")]) in merged


@pytest.mark.parametrize("design", ("primitives", "q6"))
def test_primitive_objects_shared_across_components_and_runs(design):
    # A behaviour object (not a factory) serves every instance of its
    # implementation, in every simulator it is passed to, so a primitive
    # sees a new context on almost every fire.
    if design == "q6":
        query = next(query for query in ALL_QUERIES if query.name == "q6")
        project = query.compile().project
        datasets = query.dataset_builder(tpch_tables(3))
        readers = reader_behaviors(query.schemas, datasets)
        reference_readers = reference_reader_behaviors(query.schemas, datasets)
        plan = query.default_plan()
    else:
        project = compile_project(PRIMITIVES).project
        readers = reference_readers = {}
        plan = SimulationPlan(
            stimuli={"a": [1, 2, 3, 4], "b": [4, 3, 2, 1], "x": [True, False] * 2, "y": [False] * 4},
            channel_capacity=2,
        )
    primitives = [
        implementation
        for implementation in project.implementations.values()
        if implementation.external and primitive_kind(implementation) is not None
    ]
    shared = {impl.name: behavior_for(impl) for impl in primitives}
    reference = {impl.name: reference_behavior_for(impl) for impl in primitives}
    instances = Counter(
        component.implementation.name
        for component in Simulator(project, behaviors=readers).components.values()
    )
    assert max(instances[name] for name in shared) >= 2
    first = simulate(ReferenceSimulator, project, plan, {**reference_readers, **reference})
    for _ in range(2):
        assert simulate(Simulator, project, plan, {**readers, **shared}) == first


# -- same-time ordering ----------------------------------------------------------------

#: A user behaviour between latency-0 primitives.  The duplicator and the
#: constant generator forward at once, ``copy`` and ``echo`` are top-level
#: outputs, and ``b`` joins the chain at the subtractor.
SAME_TIME = """
type num = Stream(Bit(8), d=1);
streamlet ticker_s { input: num in, output: num out, echo: num out, }
external impl ticker_i of ticker_s;
streamlet top_s { a: num in, b: num in, copy: num out, echo: num out, diff: num out, }
impl top_i of top_s {
    instance t(ticker_i),
    instance dup(duplicator_i<type num, 2>),
    instance five(const_int_generator_i<type num, 5>),
    instance add(adder_i<type num, type num>),
    instance sub(subtractor_i<type num, type num>),
    a => dup.input,
    dup.output[0] => t.input,
    dup.output[1] => copy,
    t.output => add.lhs,
    five.output => add.rhs,
    b => sub.lhs,
    add.output => sub.rhs,
    sub.output => diff,
    t.echo => echo,
}
top top_i;
"""


class Ticker:
    """Schedules its own events from ``fire``.  Each input packet goes out
    through ``push_later`` after 0, 1 or 2 cycles.  An action queued by
    ``schedule(0, ...)`` echoes the packet count as it is when the action
    runs, and one queued by ``schedule(1, ...)`` logs a state entry and
    echoes the negated count; every echo wakes the ticker again (it is the
    echo channel's source), so the fire log shows where each action ran."""

    def __init__(self, push_later) -> None:
        self.push_later = push_later

    def fire(self, ctx) -> bool:
        if not ctx.has_input("input") or not ctx.can_send("output"):
            return False
        packet = ctx.take("input")
        count = ctx.get_state("count", 0) + 1
        ctx.set_state("count", count)
        simulator = ctx.simulator
        echo = ctx.component.outputs["echo"]

        def echo_count() -> None:
            simulator.push(echo, Packet(ctx.get_state("count")))

        def echo_later() -> None:
            ctx.set_state("later", count)
            simulator.push(echo, Packet(-count))

        simulator.schedule(0, echo_count)
        simulator.schedule(1, echo_later)
        self.push_later(simulator, count % 3, ctx.component.outputs["output"], packet)
        return True


def engine_push_later(simulator, delay, channel, packet) -> None:
    simulator.push_later(delay, channel, packet)


def reference_push_later(simulator, delay, channel, packet) -> None:
    # What ``ReferenceContext.send`` schedules for a delayed send.
    simulator.schedule(delay, lambda: simulator.push(channel, packet))


def same_time_run(capacity: int, **budget) -> dict[str, object]:
    plan = SimulationPlan(
        stimuli=(
            Stimulus(port="a", values=tuple(range(1, 9))),
            Stimulus(port="b", values=(10, 20, 30, 40, 50, 60, 70, 80), interval=2, start_time=3),
        ),
        channel_capacity=capacity,
        **budget,
    )
    return assert_same_run(
        compile_project(SAME_TIME).project,
        plan,
        {"ticker_i": lambda implementation: Ticker(engine_push_later)},
        {"ticker_i": lambda implementation: Ticker(reference_push_later)},
    )


def fires_at(run: dict[str, object], time: int) -> int:
    return sum(1 for fire in run["fires"] if fire[0] == time)


@pytest.mark.parametrize("capacity", (1, 2))
def test_same_time_ordering(capacity):
    # Zero-delay events (wake-ups, ``schedule(0, ...)``, a zero-delay
    # ``push_later``, the stimulus that starts at 0) and delayed ones (the
    # later ``push_later`` and ``schedule(1, ...)`` calls, the stimulus that
    # starts at 3, the feeders' next steps) share time steps.
    full = same_time_run(capacity)
    assert full["error"] is None
    outputs = dict(full["outputs"])
    assert len(outputs["copy"]) == 8 and len(outputs["diff"]) == 8
    assert len(outputs["echo"]) == 16
    end = full["end_time"]

    # A run stopped by ``max_events`` part-way through a time step: the
    # full run fires more components at the time the stopped run ended.
    stopped = same_time_run(capacity, max_events=60)
    assert stopped["error"] == "simulation exceeded 60 events; possible livelock"
    assert stopped["events_processed"] == 61
    assert fires_at(full, stopped["end_time"]) > fires_at(stopped, stopped["end_time"])

    # A run truncated by ``max_time`` before its last time step.
    truncated = same_time_run(capacity, max_time=end - 3)
    assert truncated["error"] is None
    assert truncated["end_time"] <= end - 3
    assert truncated["events_processed"] < full["events_processed"]


def test_nothing_runs_past_a_negative_time_budget():
    # Not even the events due at time 0 (a plan refuses such a budget, a
    # direct ``run`` call does not).
    project = compile_project(SAME_TIME).project
    behaviors = {"ticker_i": lambda implementation: Ticker(engine_push_later)}
    traces = []
    for simulator_class in (ReferenceSimulator, Simulator):
        simulator = simulator_class(project, behaviors=behaviors)
        simulator.drive("a", [1, 2])
        trace = simulator.run(max_time=-1)
        traces.append((trace.events_processed, trace.end_time, trace.inputs, trace.outputs))
    assert traces[0] == traces[1] == (0, 0, {}, {})


# -- what the engine and the reader allocate ---------------------------------------


def test_one_context_per_component(monkeypatch):
    # One tpch-sim benchmark pass (seed 1); the previous engine built a
    # context per wake-up, 285,674 of them.
    contexts: list[str] = []
    make_context = BehaviorContext.__init__

    def counting_context(self, simulator, component):
        contexts.append(component.path)
        make_context(self, simulator, component)

    monkeypatch.setattr(BehaviorContext, "__init__", counting_context)
    tables = generate_tpch_data(600, seed=1)
    components = []
    for query in ALL_QUERIES:
        _, _, simulator = query.simulate(tables)
        components.extend(simulator.components)
    assert len(components) == 176
    assert contexts == components


def test_primitives_bind_once_and_bypass_the_context(monkeypatch):
    # One tpch-sim benchmark pass (seed 1).  The previous primitives asked
    # the context for every port on every fire (404,718 ``has_input`` calls)
    # and scheduled each delayed send as a lambda.  Every event, on the
    # heap or in the run queue, is closure-free.
    context_calls: Counter = Counter()
    for name in ("has_input", "take", "can_send", "send", "input_ports", "output_ports"):
        method = getattr(BehaviorContext, name)

        def counting(self, *args, _name=name, _method=method, **kwargs):
            context_calls[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(BehaviorContext, name, counting)
    binds: list[str] = []
    bind = PrimitiveBehavior._bind

    def counting_bind(self, ctx):
        binds.append(ctx.component.path)
        bind(self, ctx)

    monkeypatch.setattr(PrimitiveBehavior, "_bind", counting_bind)
    closures: list[object] = []
    delayed_pushes = 0
    wakeups = 0

    def check_action(action) -> None:
        if getattr(action, "__closure__", None) is not None:
            closures.append(action)

    heappush = heapq.heappush

    def checking_push(heap, entry):
        nonlocal delayed_pushes
        _, _, action, argument = entry
        check_action(action)
        if isinstance(argument, tuple) and [type(item) for item in argument] == [Channel, Packet]:
            delayed_pushes += 1
        heappush(heap, entry)

    class CheckingRunQueue(deque):
        """The run queue, checking every event appended to it: a component
        to wake or a closure-free ``(action, argument)`` pair."""

        def append(self, event) -> None:
            nonlocal wakeups
            if type(event) is Component:
                wakeups += 1
            else:
                action, _ = event
                check_action(action)
            super().append(event)

    make_simulator = Simulator.__init__

    def checking_simulator(self, *args, **kwargs):
        make_simulator(self, *args, **kwargs)
        self._ready = CheckingRunQueue(self._ready)

    monkeypatch.setattr(heapq, "heappush", checking_push)
    monkeypatch.setattr(Simulator, "__init__", checking_simulator)
    tables = generate_tpch_data(600, seed=1)
    primitives = []
    for query in ALL_QUERIES:
        _, _, simulator = query.simulate(tables)
        primitives.extend(
            path
            for path, component in simulator.components.items()
            if isinstance(component.behavior, PrimitiveBehavior)
        )
    assert context_calls == Counter()
    assert len(primitives) == 170
    assert sorted(binds) == sorted(primitives)
    assert closures == []
    assert delayed_pushes == 46_572
    assert wakeups == 285_668


def test_each_reader_converts_each_connected_column_once(monkeypatch):
    conversions: list[object] = []
    convert = fletcher._python_values

    def counting_convert(values):
        conversions.append(values)
        return convert(values)

    monkeypatch.setattr(fletcher, "_python_values", counting_convert)
    columns = 0
    for query in ALL_QUERIES:
        _, _, simulator = query.simulate(tpch_tables(1))
        for component in simulator.components.values():
            if isinstance(component.behavior, fletcher.FletcherReaderBehavior):
                columns += sum(port in component.behavior.table for port in component.outputs)
    assert columns > 0
    assert len(conversions) == columns


def test_column_conversion_matches_per_element_item():
    tables = generate_tpch_data(600, seed=1)
    columns = [
        table[name]
        for query in ALL_QUERIES
        for table in query.dataset_builder(tables).values()
        for name in table.column_names()
    ]
    assert len(columns) == 66
    columns += [
        np.array([np.int64(3), "x", None, np.float32(1.5)], dtype=object),
        np.array([True, False]),
        np.array([1.5, -2.25], dtype=np.float16),
        np.array([2**63 + 1], dtype=np.uint64),
        np.array(["2020-01-01"], dtype="datetime64[D]"),
    ]
    for values in columns:
        expected = [raw.item() if hasattr(raw, "item") else raw for raw in values]
        assert _exact(fletcher._python_values(values)) == _exact(expected)
