"""The event-driven simulation engine.

The engine flattens a Tydi-IR project into *leaf components* (external
implementations -- standard-library primitives or simulated externals)
connected by *channels* (one per point-to-point stream connection, with a
bounded queue that models the handshake backpressure), and then processes a
time-ordered event queue.

A component's behaviour object is asked to ``fire`` whenever one of its
input channels receives data or one of its output channels frees space; the
behaviour consumes packets with ``ctx.take`` (which is also the handshake
acknowledge) and produces packets with ``ctx.send`` (optionally after a
latency).  Every transfer is recorded so that bottleneck analysis and
testbench generation can replay the run.

Elaboration gives every component one :class:`BehaviorContext` and links
every channel to the components at its ends.  An event is a component to
wake (its behaviour fires until it stops making progress) or an
``(action, argument)`` pair, run as ``action(argument)``: a delayed push
carries its channel and packet, and a stimulus feeder carries the index of
its next packet.  No closure or context is built, and no component is
looked up by path, per event.

Events run in (time, sequence number) order; every scheduled event takes
the next sequence number.  A zero-delay event -- every wake-up, and
``schedule(0, ...)`` -- is appended to the *run queue*, a FIFO of the
current time step.  A later event goes on a heap of ``(time, seq, action,
argument)`` entries.  When the run queue empties, :meth:`Simulator.run`
moves every heap entry of the next time into it, in sequence order.  That
is the (time, seq) order: every heap entry for time ``t`` was scheduled
before ``t`` began, so it precedes every event scheduled during ``t``.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.errors import TydiSimulationError
from repro.ir.model import Implementation, PortDirection, Project
from repro.sim.behavior import BehaviorContext, behavior_for
from repro.sim.packets import Packet, sequence_to_packets
from repro.spec.logical_types import Stream
from repro.stdlib.components import primitive_kind

#: Default simulation budgets, shared with :class:`repro.sim.harness.
#: SimulationPlan` so plan-driven and direct runs agree on the limits.
DEFAULT_MAX_TIME = 1_000_000
DEFAULT_MAX_EVENTS = 5_000_000

#: Fires of one component within one wake-up before the engine reports a
#: behaviour that never stops making "progress".
_MAX_FIRES_PER_WAKE = 10_000


@dataclass
class ChannelStats:
    """Timing statistics of one channel, used by bottleneck analysis."""

    packets_transferred: int = 0
    total_queue_wait: int = 0
    blocked_sends: int = 0
    total_blocked_time: int = 0
    last_activity: int = 0

    def average_wait(self) -> float:
        if self.packets_transferred == 0:
            return 0.0
        return self.total_queue_wait / self.packets_transferred


class Channel:
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
        #: The components at either end, linked when a simulator attaches
        #: the channel; ``None`` for a top-level port.
        self.source_component: Optional[Component] = None
        self.sink_component: Optional[Component] = None

    def __getstate__(self) -> dict[str, object]:
        # The links belong to the running simulator; a pickled channel (in
        # a trace, say) keeps only its own record.
        return {**self.__dict__, "source_component": None, "sink_component": None}

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
class Component:
    """A leaf component of the flattened design."""

    path: str
    implementation: Implementation
    behavior: object
    inputs: dict[str, Channel] = field(default_factory=dict)
    outputs: dict[str, Channel] = field(default_factory=dict)
    state: dict[str, object] = field(default_factory=dict)
    state_log: list[tuple[int, str, object]] = field(default_factory=list)
    #: The one context every ``fire`` of this component receives.
    ctx: Optional[BehaviorContext] = field(default=None, compare=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Component({self.path}, {self.implementation.name})"


def _call(action: Callable[[], None]) -> None:
    action()


@dataclass
class SimulationTrace:
    """Everything recorded during one simulation run."""

    outputs: dict[str, list[tuple[int, Packet]]] = field(default_factory=dict)
    inputs: dict[str, list[tuple[int, Packet]]] = field(default_factory=dict)
    channels: dict[str, Channel] = field(default_factory=dict)
    end_time: int = 0
    events_processed: int = 0
    state_logs: dict[str, list[tuple[int, str, object]]] = field(default_factory=dict)

    def output_values(self, port: str) -> list[object]:
        return [p.value for _, p in self.outputs.get(port, []) if p.value is not None]

    def output_packets(self, port: str) -> list[Packet]:
        return [p for _, p in self.outputs.get(port, [])]


class Simulator:
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

        self.components: dict[str, Component] = {}
        self.channels: list[Channel] = []
        self.input_channels: dict[str, Channel] = {}
        self.output_channels: dict[str, Channel] = {}

        self.now = 0
        #: The events of the current time step, in sequence order: components
        #: to wake and ``(action, argument)`` pairs.
        self._ready: deque[Component | tuple[Callable[[object], None], object]] = deque()
        #: The events of later time steps, as ``(time, seq, action, argument)``
        #: entries.
        self._event_queue: list[tuple[int, int, Callable[[object], None], object]] = []
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
            channel = Channel(
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
                    behavior = behavior_for(inner)
                elif hasattr(override, "fire"):
                    behavior = override
                elif callable(override):
                    # A factory: called with the implementation to build the behaviour.
                    behavior = override(inner)
                else:
                    raise TydiSimulationError(
                        f"behaviour override for {inner.name!r} must be a behaviour or a factory"
                    )
                component = Component(path=inner_path, implementation=inner, behavior=behavior)
                component.ctx = BehaviorContext(self, component)
                self.components[inner_path] = component
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

    def _attach(self, channel: Channel) -> None:
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
            channel.source_component = self.components[source_path]
            channel.source_component.outputs[source_port] = channel
        if sink_path == "":
            self.output_channels[sink_port] = channel
        else:
            channel.sink_component = self.components[sink_path]
            channel.sink_component.inputs[sink_port] = channel

    # -- event queue -------------------------------------------------------------

    def schedule(self, delay: int, action: Callable[[], None]) -> None:
        """Run the zero-argument ``action`` ``delay`` cycles from now."""
        self._enqueue(delay, _call, action)

    def push_later(self, delay: int, channel: Channel, packet: Packet) -> None:
        """Push ``packet`` into ``channel`` ``delay`` cycles from now.

        The event carries the channel and the packet, so a delayed push
        builds no closure."""
        self._enqueue(delay, self._push_entry, (channel, packet))

    def _push_entry(self, entry: tuple[Channel, Packet]) -> None:
        self.push(entry[0], entry[1])

    def _enqueue(self, delay: int, action: Callable[[object], None], argument: object) -> None:
        if delay < 0:
            raise TydiSimulationError(f"cannot schedule an event {delay} cycles in the past")
        self._event_seq += 1
        if delay == 0:
            self._ready.append((action, argument))
        else:
            heapq.heappush(self._event_queue, (self.now + delay, self._event_seq, action, argument))

    # -- channel operations --------------------------------------------------------

    def push(self, channel: Channel, packet: Packet) -> None:
        """Deliver a packet into a channel (or its pending queue when full)."""
        now = self.now
        # A packet stamped with this very ``now`` object is what restamping
        # would build; ``==`` would also pass a ``1.0`` or a ``True``.
        stamped = packet if packet.produced_at is now else Packet(packet.value, packet.last, now)
        if len(channel.queue) < channel.capacity and not channel.pending:
            channel.queue.append((stamped, now))
            channel.stats.last_activity = now
            sink = channel.sink_component
            if sink is None:
                self._on_data_available(channel)
            else:
                self._event_seq += 1
                self._ready.append(sink)
        else:
            channel.pending.append((stamped, now))
            channel.stats.blocked_sends += 1

    def pop(self, channel: Channel) -> Packet:
        """Consume the head packet of a channel (the handshake acknowledge)."""
        if not channel.queue:
            raise TydiSimulationError(f"pop from empty channel {channel.name}")
        now = self.now
        packet, enqueued_at = channel.queue.popleft()
        stats = channel.stats
        stats.packets_transferred += 1
        stats.total_queue_wait += now - enqueued_at
        stats.last_activity = now
        # Move a pending packet into the freed slot and account its blockage.
        if channel.pending:
            pending_packet, produced_at = channel.pending.popleft()
            stats.total_blocked_time += now - produced_at
            channel.queue.append((pending_packet, now))
            self._on_data_available(channel)
        # Space freed: the source may be able to produce again.
        source = channel.source_component
        if source is not None:
            self._event_seq += 1
            self._ready.append(source)
        return packet

    def _on_data_available(self, channel: Channel) -> None:
        sink = channel.sink_component
        if sink is not None:
            self._event_seq += 1
            self._ready.append(sink)
            return
        # Top-level output: record and consume immediately (the testbench
        # environment is always ready).
        now = self.now
        packet, enqueued_at = channel.queue.popleft()
        stats = channel.stats
        stats.packets_transferred += 1
        stats.total_queue_wait += now - enqueued_at
        self.trace.outputs.setdefault(channel.sink[1], []).append((now, packet))
        source = channel.source_component
        if source is not None:
            self._event_seq += 1
            self._ready.append(source)

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

        def feeder(index: int) -> None:
            if index >= len(packets):
                return
            if channel.can_accept():
                packet = packets[index]
                self.trace.inputs.setdefault(port, []).append((self.now, packet))
                self.push(channel, packet)
                self._enqueue(max(1, interval), feeder, index + 1)
            else:
                # Backpressure from the design: retry next cycle.
                channel.stats.blocked_sends += 1
                self._enqueue(1, feeder, index)

        self._enqueue(start_time, feeder, 0)

    def drive_packets(self, port: str, packets: Iterable[Packet], interval: int = 1) -> None:
        """Queue explicit packets (with custom last flags) on an input port."""
        if port not in self.input_channels:
            raise TydiSimulationError(f"no driven input port {port!r}")
        channel = self.input_channels[port]
        packet_list = list(packets)

        def feeder(index: int) -> None:
            if index >= len(packet_list):
                return
            if channel.can_accept():
                self.trace.inputs.setdefault(port, []).append((self.now, packet_list[index]))
                self.push(channel, packet_list[index])
                self._enqueue(max(1, interval), feeder, index + 1)
            else:
                self._enqueue(1, feeder, index)

        self._enqueue(0, feeder, 0)

    def run(
        self,
        max_time: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> SimulationTrace:
        """Process events until none is left.

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
        ready = self._ready
        for component in self.components.values():
            start = getattr(component.behavior, "start", None)
            if callable(start):
                start(component.ctx)
            self._event_seq += 1
            ready.append(component)

        if self.now > max_time:
            # Nothing past the budget runs, not even what is due now.
            self._finalize_trace()
            return self.trace

        popleft = ready.popleft
        processed = self._events_processed
        exhausted = False
        try:
            while ready or self._next_step(max_time):
                event = popleft()
                if event.__class__ is Component:
                    # Wake the component: fire while it makes progress in
                    # this delta cycle.
                    behavior = event.behavior
                    ctx = event.ctx
                    fires = 0
                    while behavior.fire(ctx):
                        fires += 1
                        if fires == _MAX_FIRES_PER_WAKE:  # pragma: no cover - defensive guard
                            raise TydiSimulationError(
                                f"component {event.path} fired {_MAX_FIRES_PER_WAKE} times "
                                f"at t={self.now}; behaviour is likely not consuming its inputs"
                            )
                else:
                    event[0](event[1])
                processed += 1
                if processed > max_events:
                    exhausted = True
                    break
        finally:
            self._events_processed = processed

        self._finalize_trace()
        if exhausted:
            raise TydiSimulationError(
                f"simulation exceeded {max_events} events; possible livelock",
                trace=self.trace,
            )
        return self.trace

    def _next_step(self, max_time: int) -> bool:
        """Start the next time step, if it is within ``max_time``: move its
        heap entries into the run queue, in sequence order."""
        heap = self._event_queue
        if not heap or heap[0][0] > max_time:
            return False
        time = self.now = heap[0][0]
        ready = self._ready
        while heap and heap[0][0] == time:
            ready.append(heapq.heappop(heap)[2:])
        return True

    def _finalize_trace(self) -> None:
        self.trace.end_time = self.now
        self.trace.events_processed = self._events_processed
        for component in self.components.values():
            if component.state_log:
                self.trace.state_logs[component.path] = list(component.state_log)
