"""The Fletcher substitute: memory-reader interfaces from Arrow schemas.

Fletcher generates, for an Arrow schema, the hardware components that stream
the columnar data from host memory into the accelerator.  The paper
hand-writes the Tydi-lang *interface* of those components and counts it as
the "LoC for Fletcher part" of Table IV (166 lines), while their actual
behaviour comes from the Fletcher project.

This module plays both roles:

* :func:`fletcher_interface_source` generates the Tydi-lang source of the
  reader interfaces (one external streamlet/implementation per table, one
  output port per column, plus the shared column-type aliases), which is the
  quantity our Table-IV harness counts as LoCf;
* :class:`FletcherReaderBehavior` / :func:`reader_behaviors` provide the
  simulator behaviour of those readers, streaming a :class:`repro.arrow.Table`
  out of the column ports so that compiled query designs can be functionally
  validated.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.arrow.dataset import Table
from repro.arrow.schema import ArrowSchema, TYPE_ALIASES, tydi_type_expression
from repro.errors import TydiSimulationError
from repro.ir.model import Implementation
from repro.sim.packets import Packet


def fletcher_type_preamble() -> str:
    """Tydi-lang type aliases shared by every generated reader interface.

    Using one named alias per column category (rather than writing the
    ``Stream(...)`` inline at every port) keeps the DRC's *strict* type
    equality satisfied when two columns of the same category are compared.
    """
    lines = ["// Column types shared by all Fletcher-generated readers"]
    for column_type, alias in TYPE_ALIASES.items():
        lines.append(f"type {alias} = {tydi_type_expression(column_type)};  // {column_type}")
    return "\n".join(lines) + "\n"


def reader_name(schema: ArrowSchema) -> str:
    """Name of the generated reader implementation for a table schema."""
    return f"{schema.name}_reader_i"


def reader_streamlet_name(schema: ArrowSchema) -> str:
    return f"{schema.name}_reader_s"


def fletcher_interface_source(
    schemas: Iterable[ArrowSchema],
    *,
    include_preamble: bool = True,
) -> str:
    """Generate the Tydi-lang interface source for a set of table readers."""
    sections: list[str] = ["package fletcher;"]
    if include_preamble:
        sections.append(fletcher_type_preamble())
    for schema in schemas:
        lines = [f"// Fletcher-generated reader for Arrow table '{schema.name}'"]
        lines.append(f"streamlet {reader_streamlet_name(schema)} {{")
        for field in schema.fields:
            lines.append(f"    {field.name}: {field.type_alias()} out,")
        lines.append("}")
        lines.append(
            f"external impl {reader_name(schema)} of {reader_streamlet_name(schema)};"
        )
        sections.append("\n".join(lines))
    return "\n\n".join(sections) + "\n"


def fletcher_loc(schemas: Iterable[ArrowSchema]) -> int:
    """LoC of the generated Fletcher part (the LoCf term of Table IV)."""
    from repro.utils.text import count_loc

    return count_loc(fletcher_interface_source(schemas), language="tydi")


def _python_values(values: np.ndarray) -> list:
    """One column as the Python values a reader streams.

    Equal, by type and value, to ``values[i].item()`` for every element
    that has ``.item()`` and to ``values[i]`` otherwise; one ``tolist``
    does that for every dtype except ``object``, whose elements stay as
    they are.
    """
    if values.dtype != object:
        return values.tolist()
    return [value.item() if hasattr(value, "item") else value for value in values]


class FletcherReaderBehavior:
    """Simulator behaviour of a generated memory reader.

    Streams the rows of a :class:`Table` out of the column ports.  Every
    column advances independently (each output port has its own read
    pointer, the ``pos_<port>`` state), matching how Fletcher's per-column
    readers behave; the final row carries the ``last`` flag closing the
    outer dimension.  Each connected column is converted to Python values
    once, on the first fire.
    """

    latency = 1

    def __init__(self, implementation: Implementation, table: Table) -> None:
        self.implementation = implementation
        self.table = table
        self._columns: dict[str, list] = {}
        self._ctx = None
        #: ``(channel, state key, values)`` per connected column port, in
        #: output-port order; bound to the context they were built for.
        self._lanes: list[tuple] = []

    def _bind(self, ctx) -> None:
        lanes = []
        for port, channel in ctx.component.outputs.items():
            if port not in self.table:
                continue
            values = self._columns.get(port)
            if values is None:
                values = self._columns[port] = _python_values(self.table[port])
            lanes.append((channel, f"pos_{port}", values))
        self._ctx = ctx
        self._lanes = lanes

    def fire(self, ctx) -> bool:
        if ctx is not self._ctx:
            self._bind(ctx)
        state = ctx.component.state
        simulator = ctx.simulator
        push = simulator.push
        now = simulator.now
        progressed = False
        for channel, key, values in self._lanes:
            if len(channel.queue) >= channel.capacity or channel.pending:
                continue  # no space: the channel's pop wakes the reader again
            position = state.get(key, 0)
            if position >= len(values):
                continue
            push(channel, Packet(values[position], (position == len(values) - 1,), now))
            ctx.set_state(key, position + 1)
            progressed = True
        return progressed

    def start(self, ctx) -> None:
        if self.table.num_rows == 0:
            # An empty table still terminates every column stream.
            for port in ctx.output_ports():
                ctx.send(port, Packet(value=None, last=(True,)))


def reader_behaviors(
    schemas: Iterable[ArrowSchema],
    tables: Mapping[str, Table],
) -> dict[str, object]:
    """Build the ``behaviors`` mapping for :class:`repro.sim.Simulator`.

    Keys are reader implementation names (e.g. ``lineitem_reader_i``); the
    simulator looks behaviours up by implementation name, so these apply to
    every instance of the reader.
    """
    behaviors: dict[str, object] = {}
    for schema in schemas:
        if schema.name not in tables:
            raise TydiSimulationError(f"no dataset provided for table {schema.name!r}")

        def factory(table: Table):
            return lambda implementation: FletcherReaderBehavior(implementation, table)

        behaviors[reader_name(schema)] = factory(tables[schema.name])
    return behaviors
