"""Component behaviours for the simulator.

Three behaviour sources are supported (Section V-A):

* :class:`PrimitiveBehavior` subclasses -- hard-coded Python models of the
  standard-library primitives (duplicator, voider, arithmetic, comparators,
  filter, aggregators, ...), selected via the implementation's primitive
  kind,
* :class:`ScriptedBehavior` -- behaviour compiled from an in-source
  ``simulation { state ...; on receive(...) { ... } }`` block,
* user-registered behaviours (:func:`register_behavior` or the ``behaviors``
  argument of :class:`repro.sim.Simulator`) for external implementations
  designed outside the Tydi world.

A behaviour implements ``fire(ctx) -> bool``: examine the input channels,
consume packets (``ctx.take`` -- the handshake acknowledge), and produce
packets (``ctx.send``).  Returning True means progress was made and the
engine will call ``fire`` again within the same delta cycle.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from repro.errors import TydiSimulationError
from repro.ir.model import Implementation
from repro.lang import ast
from repro.lang.expr import evaluate_expr
from repro.lang.values import Scope
from repro.sim.packets import Packet
from repro.stdlib.components import primitive_kind


class BehaviorContext:
    """The API a behaviour uses to interact with the engine.

    The simulator builds one context per component at elaboration and
    passes that same object to every ``fire``.  It reads the component's
    channel and state dicts directly.
    """

    def __init__(self, simulator, component) -> None:
        self.simulator = simulator
        self.component = component
        self._inputs = component.inputs
        self._outputs = component.outputs
        self._state = component.state
        self._state_log = component.state_log

    # -- time and state ----------------------------------------------------------

    @property
    def now(self) -> int:
        return self.simulator.now

    def get_state(self, name: str, default: object = None) -> object:
        return self._state.get(name, default)

    def set_state(self, name: str, value: object) -> None:
        self._state[name] = value
        self._state_log.append((self.simulator.now, name, value))

    # -- input side ---------------------------------------------------------------

    def has_input(self, port: str) -> bool:
        channel = self._inputs.get(port)
        return channel is not None and bool(channel.queue)

    def peek(self, port: str) -> Optional[Packet]:
        channel = self._inputs.get(port)
        if channel is None:
            return None
        return channel.peek()

    def take(self, port: str) -> Packet:
        """Consume (acknowledge) the head packet of an input port."""
        channel = self._inputs.get(port)
        if channel is None or not channel.queue:
            raise TydiSimulationError(
                f"component {self.component.path} tried to take from empty port {port!r}"
            )
        return self.simulator.pop(channel)

    def input_ports(self) -> list[str]:
        return list(self._inputs)

    # -- output side -----------------------------------------------------------------

    def can_send(self, port: str) -> bool:
        channel = self._outputs.get(port)
        return channel is not None and channel.can_accept()

    def send(self, port: str, packet: Packet | object, delay: int = 0) -> None:
        """Emit a packet on an output port, optionally after ``delay`` cycles."""
        channel = self._outputs.get(port)
        if channel is None:
            # Output not connected anywhere (e.g. voided away at a higher
            # level); silently drop, like hardware whose ready is tied high.
            return
        if not isinstance(packet, Packet):
            packet = Packet(value=packet)
        if delay <= 0:
            self.simulator.push(channel, packet)
        else:
            self.simulator.push_later(delay, channel, packet)

    def output_ports(self) -> list[str]:
        return list(self._outputs)


class PrimitiveBehavior:
    """Base class of hard-coded primitive behaviours.

    A primitive binds what its fires use -- its channels in port order, the
    simulator's ``pop``/``push`` and its constant arguments -- from the
    context it fires with.  It binds again whenever a fire brings another
    context, since one behaviour object may serve several components or
    several simulators.  A fire then tests ``channel.queue`` and the
    channel's space (``Channel.can_accept``) inline and calls
    ``pop``/``push`` directly, with no lookup by port name.
    """

    #: Cycles between consuming the inputs and producing the output.
    latency: int = 1
    #: The context the bound channels and operations were taken from.
    _ctx: Optional[BehaviorContext] = None

    def __init__(self, implementation: Implementation) -> None:
        self.implementation = implementation
        self.metadata = implementation.metadata

    def argument(self, index: int, default: object = None) -> object:
        arguments = self.metadata.get("arguments", ())
        if index < len(arguments):
            return arguments[index]
        return default

    def _bind(self, ctx: BehaviorContext) -> None:
        """Bind the simulator's channel operations for ``ctx``; each
        primitive extends this with its channels."""
        simulator = ctx.simulator
        self._ctx = ctx
        self._pop = simulator.pop
        self._push = simulator.push
        # ``_send(channel, packet)`` delivers ``latency`` cycles after the fire.
        if self.latency > 0:
            self._send = partial(simulator.push_later, self.latency)
        else:
            self._send = simulator.push

    def fire(self, ctx: BehaviorContext) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


def _merge_last(*packets: Packet) -> tuple[bool, ...]:
    """Combine last flags of synchronised inputs (element-wise or)."""
    if len(packets) == 2:
        first = packets[0].last
        second = packets[1].last
        if len(first) <= 1 and len(second) <= 1:
            # One dimension, or a constant's empty ``last``: no generators.
            if (first and first[0]) or (second and second[0]):
                return (True,)
            return (False,) if first or second else ()
    longest = max((len(p.last) for p in packets), default=0)
    merged = []
    for index in range(longest):
        merged.append(any(index < len(p.last) and p.last[index] for p in packets))
    return tuple(merged)


class DuplicatorBehavior(PrimitiveBehavior):
    """Copy each input packet to every output; all outputs must have space."""

    latency = 0

    def _bind(self, ctx: BehaviorContext) -> None:
        super()._bind(ctx)
        self._input = ctx.component.inputs.get("input")
        self._outputs = tuple(ctx.component.outputs.values())

    def fire(self, ctx: BehaviorContext) -> bool:
        if ctx is not self._ctx:
            self._bind(ctx)
        source = self._input
        if source is None or not source.queue:
            return False
        outputs = self._outputs
        for channel in outputs:
            if len(channel.queue) >= channel.capacity or channel.pending:
                return False
        packet = self._pop(source)
        push = self._push
        for channel in outputs:
            push(channel, packet)
        return True


class VoiderBehavior(PrimitiveBehavior):
    """Always ready: consume and discard everything."""

    latency = 0

    def _bind(self, ctx: BehaviorContext) -> None:
        super()._bind(ctx)
        self._inputs = tuple(ctx.component.inputs.values())

    def fire(self, ctx: BehaviorContext) -> bool:
        if ctx is not self._ctx:
            self._bind(ctx)
        progressed = False
        for channel in self._inputs:
            if channel.queue:
                self._pop(channel)
                progressed = True
        return progressed


class DemuxBehavior(PrimitiveBehavior):
    """Round-robin distribution of input packets over the output channels."""

    def _bind(self, ctx: BehaviorContext) -> None:
        super()._bind(ctx)
        outputs = ctx.component.outputs
        self._input = ctx.component.inputs.get("input")
        self._outputs = tuple(outputs[port] for port in sorted(outputs))

    def fire(self, ctx: BehaviorContext) -> bool:
        if ctx is not self._ctx:
            self._bind(ctx)
        source = self._input
        if source is None or not source.queue:
            return False
        outputs = self._outputs
        if not outputs:
            return False
        index = int(ctx.get_state("selected", 0))
        channel = outputs[index % len(outputs)]
        if len(channel.queue) >= channel.capacity or channel.pending:
            return False
        self._send(channel, self._pop(source))
        ctx.set_state("selected", (index + 1) % len(outputs))
        return True


class MuxBehavior(PrimitiveBehavior):
    """Round-robin arbitration of the input channels onto the output."""

    def _bind(self, ctx: BehaviorContext) -> None:
        super()._bind(ctx)
        inputs = ctx.component.inputs
        self._inputs = tuple(inputs[port] for port in sorted(inputs))
        self._output = ctx.component.outputs.get("output")

    def fire(self, ctx: BehaviorContext) -> bool:
        if ctx is not self._ctx:
            self._bind(ctx)
        output = self._output
        if output is None or len(output.queue) >= output.capacity or output.pending:
            return False
        inputs = self._inputs
        if not inputs:
            return False
        index = int(ctx.get_state("selected", 0))
        count = len(inputs)
        for offset in range(count):
            channel = inputs[(index + offset) % count]
            if channel.queue:
                self._send(output, self._pop(channel))
                ctx.set_state("selected", (index + offset + 1) % count)
                return True
        return False


class ConstGeneratorBehavior(PrimitiveBehavior):
    """Emit the configured constant whenever the consumer has space."""

    latency = 0

    def _bind(self, ctx: BehaviorContext) -> None:
        super()._bind(ctx)
        self._output = ctx.component.outputs.get("output")
        value = self.argument(1, 0)
        if hasattr(value, "logical_type"):
            value = 0
        self._packet = Packet(value)

    def fire(self, ctx: BehaviorContext) -> bool:
        if ctx is not self._ctx:
            self._bind(ctx)
        output = self._output
        if output is None or len(output.queue) >= output.capacity or output.pending:
            return False
        self._push(output, self._packet)
        return True


class BinaryOpBehavior(PrimitiveBehavior):
    """Two-input synchronised operator (arithmetic or comparison)."""

    def __init__(self, implementation: Implementation, operator: Callable[[object, object], object]) -> None:
        super().__init__(implementation)
        self.operator = operator

    def _bind(self, ctx: BehaviorContext) -> None:
        super()._bind(ctx)
        inputs = ctx.component.inputs
        self._lhs = inputs.get("lhs")
        self._rhs = inputs.get("rhs")
        # Arithmetic primitives name their output "output", comparators name
        # it "result"; use whichever single output port the streamlet has.
        self._output = next(iter(ctx.component.outputs.values()), None)

    def fire(self, ctx: BehaviorContext) -> bool:
        if ctx is not self._ctx:
            self._bind(ctx)
        lhs_channel = self._lhs
        rhs_channel = self._rhs
        if lhs_channel is None or not lhs_channel.queue or rhs_channel is None or not rhs_channel.queue:
            return False
        output = self._output
        if output is not None and (len(output.queue) >= output.capacity or output.pending):
            return False
        lhs = self._pop(lhs_channel)
        rhs = self._pop(rhs_channel)
        last = _merge_last(lhs, rhs)
        if lhs.value is None or rhs.value is None:
            # A pure close packet: propagate the sequence delimiter.
            packet = Packet(None, last)
        else:
            packet = Packet(self.operator(lhs.value, rhs.value), last)
        if output is not None:
            self._send(output, packet)
        return True


def _output_channel(ctx: BehaviorContext, port: str) -> tuple[Optional[object], bool]:
    """The channel of output ``port`` (None when unconnected), and whether
    the primitive is blocked for good: it has other outputs but no ``port``
    channel, so it can never send and never fires."""
    outputs = ctx.component.outputs
    channel = outputs.get(port)
    return channel, channel is None and bool(outputs)


class ConstCompareBehavior(PrimitiveBehavior):
    """Compare each input element against a compile-time constant."""

    def __init__(self, implementation: Implementation) -> None:
        super().__init__(implementation)
        self.reference = self.argument(1, 0)

    def _bind(self, ctx: BehaviorContext) -> None:
        super()._bind(ctx)
        self._output, blocked = _output_channel(ctx, "result")
        self._input = None if blocked else ctx.component.inputs.get("input")
        reference = self.reference
        self._textual = isinstance(reference, str)
        self._reference = str(reference) if self._textual else reference

    def fire(self, ctx: BehaviorContext) -> bool:
        if ctx is not self._ctx:
            self._bind(ctx)
        source = self._input
        if source is None or not source.queue:
            return False
        output = self._output
        if output is not None and (len(output.queue) >= output.capacity or output.pending):
            return False
        packet = self._pop(source)
        value = packet.value
        if value is None:
            result = Packet(None, packet.last)
        else:
            equal = str(value) == self._reference if self._textual else value == self._reference
            result = Packet(bool(equal), packet.last)
        if output is not None:
            self._send(output, result)
        return True


class LogicOpBehavior(PrimitiveBehavior):
    """N-input boolean combinator (and / or / not)."""

    def __init__(self, implementation: Implementation, op: str) -> None:
        super().__init__(implementation)
        self.op = op

    def _bind(self, ctx: BehaviorContext) -> None:
        super()._bind(ctx)
        self._output, blocked = _output_channel(ctx, "output")
        inputs = ctx.component.inputs
        self._inputs = () if blocked else tuple(inputs[port] for port in sorted(inputs))

    def fire(self, ctx: BehaviorContext) -> bool:
        if ctx is not self._ctx:
            self._bind(ctx)
        inputs = self._inputs
        if not inputs:
            return False
        for channel in inputs:
            if not channel.queue:
                return False
        output = self._output
        if output is not None and (len(output.queue) >= output.capacity or output.pending):
            return False
        packets = []
        for channel in inputs:
            packets.append(self._pop(channel))
        last = _merge_last(*packets)
        bools = []
        for packet in packets:
            if packet.value is not None:
                bools.append(bool(packet.value))
        if not bools:
            result = None
        elif self.op == "and":
            result = all(bools)
        elif self.op == "or":
            result = any(bools)
        else:  # "not"
            result = not bools[0]
        if output is not None:
            self._send(output, Packet(result, last))
        return True


class Combine2Behavior(PrimitiveBehavior):
    """Combine two synchronised element streams into one tuple-valued stream."""

    def _bind(self, ctx: BehaviorContext) -> None:
        super()._bind(ctx)
        self._output, blocked = _output_channel(ctx, "output")
        inputs = ctx.component.inputs
        self._first = None if blocked else inputs.get("in0")
        self._second = inputs.get("in1")

    def fire(self, ctx: BehaviorContext) -> bool:
        if ctx is not self._ctx:
            self._bind(ctx)
        first_channel = self._first
        second_channel = self._second
        if first_channel is None or not first_channel.queue or second_channel is None or not second_channel.queue:
            return False
        output = self._output
        if output is not None and (len(output.queue) >= output.capacity or output.pending):
            return False
        first = self._pop(first_channel)
        second = self._pop(second_channel)
        last = _merge_last(first, second)
        if first.value is None and second.value is None:
            packet = Packet(None, last)
        else:
            packet = Packet((first.value, second.value), last)
        if output is not None:
            self._send(output, packet)
        return True


class FilterBehavior(PrimitiveBehavior):
    """Forward the data packet only when the keep bit is true."""

    def _bind(self, ctx: BehaviorContext) -> None:
        super()._bind(ctx)
        self._output, blocked = _output_channel(ctx, "output")
        inputs = ctx.component.inputs
        self._data = None if blocked else inputs.get("input")
        self._keep = inputs.get("keep")

    def fire(self, ctx: BehaviorContext) -> bool:
        if ctx is not self._ctx:
            self._bind(ctx)
        data_channel = self._data
        keep_channel = self._keep
        if data_channel is None or not data_channel.queue or keep_channel is None or not keep_channel.queue:
            return False
        output = self._output
        if output is not None and (len(output.queue) >= output.capacity or output.pending):
            return False
        data = self._pop(data_channel)
        keep = self._pop(keep_channel)
        last = _merge_last(data, keep)
        if data.value is not None and keep.value:
            packet = Packet(data.value, last)
        elif any(last):
            # The dropped packet closed a sequence: forward an empty close
            # packet so downstream aggregators still terminate.
            packet = Packet(None, last)
        else:
            return True
        if output is not None:
            self._send(output, packet)
        return True


class AccumulatorBehavior(PrimitiveBehavior):
    """Reduce the input sequence to one result packet (sum/count/avg/min/max)."""

    def __init__(self, implementation: Implementation, kind: str) -> None:
        super().__init__(implementation)
        self.kind = kind

    def _bind(self, ctx: BehaviorContext) -> None:
        super()._bind(ctx)
        self._input = ctx.component.inputs.get("input")
        self._output = ctx.component.outputs.get("output")

    def fire(self, ctx: BehaviorContext) -> bool:
        if ctx is not self._ctx:
            self._bind(ctx)
        source = self._input
        if source is None or not source.queue:
            return False
        packet = self._pop(source)
        values: list[object] = ctx.get_state("values", None) or []
        if packet.value is not None:
            values = values + [packet.value]
        ctx.set_state("values", values)
        if packet.closes_outermost():
            result = self._reduce(values)
            if self._output is not None:
                self._send(self._output, Packet(result, (True,)))
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


def _group_order(item: tuple[object, object]) -> str:
    """Groups leave a keyed aggregator in the order of their keys' text."""
    return str(item[0])


class GroupAggregateBehavior(PrimitiveBehavior):
    """Keyed aggregation: reduce the value stream per key (SQL GROUP BY)."""

    def __init__(self, implementation: Implementation, kind: str) -> None:
        super().__init__(implementation)
        self.kind = kind

    def _bind(self, ctx: BehaviorContext) -> None:
        super()._bind(ctx)
        inputs = ctx.component.inputs
        self._key = inputs.get("key")
        self._value = inputs.get("value")
        self._output = ctx.component.outputs.get("output")
        self._push_later = ctx.simulator.push_later

    def fire(self, ctx: BehaviorContext) -> bool:
        if ctx is not self._ctx:
            self._bind(ctx)
        key_channel = self._key
        value_channel = self._value
        if key_channel is None or not key_channel.queue or value_channel is None or not value_channel.queue:
            return False
        key_packet = self._pop(key_channel)
        value_packet = self._pop(value_channel)
        last = _merge_last(key_packet, value_packet)
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
            output = self._output
            for index, (key, aggregated) in enumerate(sorted(results, key=_group_order)):
                is_final = index == len(results) - 1
                if output is not None:
                    self._send_after(self.latency + index, output, Packet((key, aggregated), (is_final,)))
            if not results and output is not None:
                self._send(output, Packet(None, (True,)))
            ctx.set_state("groups", {})
        return True

    def _send_after(self, delay: int, channel, packet: Packet) -> None:
        if delay > 0:
            self._push_later(delay, channel, packet)
        else:
            self._push(channel, packet)


# ---------------------------------------------------------------------------
# Scripted behaviour from `simulation { ... }` blocks
# ---------------------------------------------------------------------------


class ScriptedBehavior:
    """Behaviour compiled from an in-source simulation block (Section V-A)."""

    def __init__(self, implementation: Implementation, block: ast.SimulationBlock) -> None:
        self.implementation = implementation
        self.block = block
        self.latency = 0

    def start(self, ctx: BehaviorContext) -> None:
        scope = Scope(name="sim-init")
        for state in self.block.states:
            ctx.set_state(state.name, evaluate_expr(state.initial, scope))

    # -- event matching ------------------------------------------------------------

    def _event_ports(self, event: ast.EventExpr) -> list[str]:
        if isinstance(event, ast.ReceiveEvent):
            return [event.port]
        if isinstance(event, ast.CombinedEvent):
            return self._event_ports(event.left) + self._event_ports(event.right)
        return []

    def _event_satisfied(self, event: ast.EventExpr, ctx: BehaviorContext) -> bool:
        if isinstance(event, ast.ReceiveEvent):
            return ctx.has_input(event.port)
        if isinstance(event, ast.CombinedEvent):
            left = self._event_satisfied(event.left, ctx)
            right = self._event_satisfied(event.right, ctx)
            return (left and right) if event.op == "&&" else (left or right)
        return False

    def fire(self, ctx: BehaviorContext) -> bool:
        for handler in self.block.handlers:
            if self._event_satisfied(handler.event, ctx):
                self._run_handler(handler, ctx)
                return True
        return False

    # -- handler execution -------------------------------------------------------------

    def _run_handler(self, handler: ast.EventHandler, ctx: BehaviorContext) -> None:
        scope = Scope(name="sim-handler")
        consumed: dict[str, Packet] = {}
        last_flags: list[tuple[bool, ...]] = []
        # Bind the value of every port named in the event (peek; explicit
        # ack() statements consume).
        for port in dict.fromkeys(self._event_ports(handler.event)):
            packet = ctx.peek(port)
            if packet is not None:
                consumed[port] = packet
                last_flags.append(packet.last)
                scope.define(port, packet.value if packet.value is not None else 0)
        for name, value in ctx.component.state.items():
            if not scope.defined_here(name):
                scope.define(name, value)

        delay = 0
        acked: set[str] = set()
        for statement in handler.body:
            delay = self._run_statement(statement, ctx, scope, consumed, acked, delay, last_flags)
        # Implicit acknowledge: a handler that fired must consume at least the
        # packets that triggered it, otherwise it would fire forever.
        for port in consumed:
            if port not in acked and ctx.has_input(port):
                ctx.take(port)

    def _run_statement(
        self,
        statement: ast.SimStmt,
        ctx: BehaviorContext,
        scope: Scope,
        consumed: dict[str, Packet],
        acked: set[str],
        delay: int,
        last_flags: list[tuple[bool, ...]],
    ) -> int:
        if isinstance(statement, ast.DelayStmt):
            cycles = evaluate_expr(statement.cycles, scope)
            return delay + int(cycles)
        if isinstance(statement, ast.AckStmt):
            if ctx.has_input(statement.port):
                ctx.take(statement.port)
            acked.add(statement.port)
            return delay
        if isinstance(statement, ast.SendStmt):
            value = evaluate_expr(statement.value, scope)
            merged_last = tuple(
                any(flags[i] for flags in last_flags if i < len(flags))
                for i in range(max((len(f) for f in last_flags), default=0))
            )
            ctx.send(statement.port, Packet(value=value, last=merged_last), delay=delay)
            return delay
        if isinstance(statement, ast.SetStateStmt):
            value = evaluate_expr(statement.value, scope)
            ctx.set_state(statement.name, value)
            return delay
        if isinstance(statement, ast.SimIfStmt):
            condition = evaluate_expr(statement.condition, scope)
            body = statement.then_body if condition else statement.else_body
            for inner in body:
                delay = self._run_statement(inner, ctx, scope, consumed, acked, delay, last_flags)
            return delay
        raise TydiSimulationError(f"unsupported simulation statement {type(statement).__name__}")


# ---------------------------------------------------------------------------
# Behaviour registry and selection
# ---------------------------------------------------------------------------

_USER_BEHAVIORS: dict[str, Callable[[Implementation], object]] = {}


def register_behavior(implementation_name: str, factory: Callable[[Implementation], object]) -> None:
    """Register a behaviour factory for an external implementation by name."""
    _USER_BEHAVIORS[implementation_name] = factory


def _comparison(op: str) -> Callable[[object, object], object]:
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


def behavior_for(implementation: Implementation) -> object:
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
            return DuplicatorBehavior(implementation)
        if kind == "voider":
            return VoiderBehavior(implementation)
        if kind == "demux":
            return DemuxBehavior(implementation)
        if kind == "mux":
            return MuxBehavior(implementation)
        if kind in ("const_int_generator", "const_float_generator", "const_str_generator"):
            return ConstGeneratorBehavior(implementation)
        if kind == "adder":
            return BinaryOpBehavior(implementation, operator.add)
        if kind == "subtractor":
            return BinaryOpBehavior(implementation, operator.sub)
        if kind == "multiplier":
            return BinaryOpBehavior(implementation, operator.mul)
        if kind == "divider":
            return BinaryOpBehavior(implementation, lambda a, b: a / b if b else 0)
        if kind.startswith("compare_") and kind != "compare_const_eq":
            return BinaryOpBehavior(implementation, _comparison(kind))
        if kind == "compare_const_eq":
            return ConstCompareBehavior(implementation)
        if kind in ("and", "or", "not"):
            return LogicOpBehavior(implementation, kind)
        if kind == "filter":
            return FilterBehavior(implementation)
        if kind in ("sum", "count", "avg", "min_acc", "max_acc"):
            return AccumulatorBehavior(implementation, kind)
        if kind in ("group_sum", "group_avg", "group_count"):
            return GroupAggregateBehavior(implementation, kind)
        if kind == "combine2":
            return Combine2Behavior(implementation)

    raise TydiSimulationError(
        f"no behaviour available for external implementation {implementation.name!r}; "
        "register one with repro.sim.register_behavior or add a simulation block"
    )
