"""Abstract syntax tree node definitions for Tydi-lang.

The parser (:mod:`repro.lang.parser`) produces these nodes; the evaluator
(:mod:`repro.lang.evaluate`) walks them.  Nodes are plain dataclasses holding
their source span for diagnostics.

Nodes and :class:`SourceUnit` pickle positionally: as their class and their
field values in ``__match_args__`` order, unpickled by one ``__init__``
call.  Inserting, removing or reordering a field therefore changes the
layout of every cached AST blob and of the stdlib snapshot: bump
``repro.pipeline.cache.STAGE_SCHEMA_VERSION`` and
``repro.stdlib.snapshot.SNAPSHOT_FORMAT`` with it
(``tests/test_pickle_layout.py`` pins the field order).

The node families are:

* expressions (:class:`Expr` subclasses) -- the "math system" of Section IV-A,
* type expressions (:class:`TypeExpr` subclasses) -- Bit/Null/Stream/named,
* declarations (:class:`Declaration` subclasses) -- consts, types, groups,
  unions, streamlets, implementations,
* implementation body items (:class:`ImplItem` subclasses) -- instances,
  connections, ``for``/``if``/``assert`` and local constants,
* simulation constructs (:class:`SimulationBlock` and friends) -- Section V-A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.utils.source import SourceSpan


def _reduce_positional(self) -> tuple:
    return (self.__class__, tuple(map(self.__getattribute__, self.__match_args__)))


@dataclass(frozen=True, slots=True)
class Node:
    """Base class of all AST nodes."""

    span: SourceSpan

    __reduce__ = _reduce_positional


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Expr(Node):
    """Base class of value expressions."""


@dataclass(frozen=True, slots=True)
class Literal(Expr):
    """An int, float, string or boolean literal."""

    value: object


@dataclass(frozen=True, slots=True)
class Identifier(Expr):
    """A reference to a variable, constant or template parameter."""

    name: str


@dataclass(frozen=True, slots=True)
class BinaryOp(Expr):
    """A binary operation: arithmetic, comparison or boolean."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class UnaryOp(Expr):
    """Unary minus or boolean not."""

    op: str
    operand: Expr


@dataclass(frozen=True, slots=True)
class Call(Expr):
    """A builtin function call such as ``ceil(log2(x))``."""

    function: str
    arguments: tuple[Expr, ...]


@dataclass(frozen=True, slots=True)
class ArrayLiteral(Expr):
    """An array literal ``[a, b, c]``."""

    items: tuple[Expr, ...]


@dataclass(frozen=True, slots=True)
class IndexExpr(Expr):
    """Indexing into an array value: ``values[i]``."""

    base: Expr
    index: Expr


@dataclass(frozen=True, slots=True)
class RangeExpr(Expr):
    """A half-open integer range ``start -> end`` used by ``for`` loops."""

    start: Expr
    end: Expr


# ---------------------------------------------------------------------------
# Type expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TypeExpr(Node):
    """Base class of logical-type expressions."""


@dataclass(frozen=True, slots=True)
class NullTypeExpr(TypeExpr):
    """The ``Null`` type."""


@dataclass(frozen=True, slots=True)
class BitTypeExpr(TypeExpr):
    """``Bit(width_expression)``."""

    width: Expr


@dataclass(frozen=True, slots=True)
class NamedTypeExpr(TypeExpr):
    """A reference to a named type or a ``type`` template parameter."""

    name: str


@dataclass(frozen=True, slots=True)
class StreamTypeExpr(TypeExpr):
    """``Stream(element, d=..., t=..., c=..., dir=..., sync=...)``."""

    element: TypeExpr
    arguments: tuple[tuple[str, Expr], ...] = ()


# ---------------------------------------------------------------------------
# Template parameters and arguments
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TemplateParam(Node):
    """One template parameter declaration.

    ``kind`` is one of ``int``, ``float``, ``string``, ``bool``,
    ``clockdomain``, ``type`` or ``impl``; when ``impl``, ``of_streamlet``
    names the streamlet the supplied implementation must be derived from.
    """

    name: str
    kind: str
    of_streamlet: Optional[str] = None


@dataclass(frozen=True, slots=True)
class TemplateArg(Node):
    """Base class of template arguments at an instantiation site."""


@dataclass(frozen=True, slots=True)
class TypeArg(TemplateArg):
    """``type <type-expression>`` argument."""

    type_expr: TypeExpr


@dataclass(frozen=True, slots=True)
class ImplArg(TemplateArg):
    """``impl <name>`` argument (an implementation passed as a value)."""

    name: str
    arguments: tuple["TemplateArg", ...] = ()


@dataclass(frozen=True, slots=True)
class ExprArg(TemplateArg):
    """A plain value argument."""

    expr: Expr


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Declaration(Node):
    """Base class of top-level declarations."""


@dataclass(frozen=True, slots=True)
class PackageDecl(Declaration):
    """``package name;`` -- names the current source file's package."""

    name: str


@dataclass(frozen=True, slots=True)
class UseDecl(Declaration):
    """``use name;`` -- imports another package's declarations."""

    name: str


@dataclass(frozen=True, slots=True)
class ConstDecl(Declaration):
    """``const name = expression;`` -- an immutable variable."""

    name: str
    value: Expr


@dataclass(frozen=True, slots=True)
class TypeAliasDecl(Declaration):
    """``type name = type-expression;``"""

    name: str
    type_expr: TypeExpr


@dataclass(frozen=True, slots=True)
class GroupDecl(Declaration):
    """``Group name { field: type, ... }``"""

    name: str
    fields: tuple[tuple[str, TypeExpr], ...]


@dataclass(frozen=True, slots=True)
class UnionDecl(Declaration):
    """``Union name { variant: type, ... }``"""

    name: str
    variants: tuple[tuple[str, TypeExpr], ...]


@dataclass(frozen=True, slots=True)
class PortDecl(Node):
    """A port of a streamlet, optionally an array of ports."""

    name: str
    type_expr: TypeExpr
    direction: str  # "in" | "out"
    array_size: Optional[Expr] = None
    clock_domain: Optional[str] = None


@dataclass(frozen=True, slots=True)
class StreamletDecl(Declaration):
    """``streamlet name<params> { ports }``"""

    name: str
    params: tuple[TemplateParam, ...]
    ports: tuple[PortDecl, ...]
    documentation: str = ""

    def is_template(self) -> bool:
        return bool(self.params)


# ---------------------------------------------------------------------------
# Implementation body items
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ImplItem(Node):
    """Base class of statements allowed inside an implementation body."""


@dataclass(frozen=True, slots=True)
class InstanceDecl(ImplItem):
    """``instance name(target<args>)[count]``"""

    name: str
    target: str
    arguments: tuple[TemplateArg, ...] = ()
    array_size: Optional[Expr] = None


@dataclass(frozen=True, slots=True)
class PortRefExpr(Node):
    """A reference to a port in a connection.

    ``owner`` is the instance name (``None`` for a port of the enclosing
    implementation); both the owner and the port may carry an index when
    referring to instance arrays or port arrays.
    """

    port: str
    owner: Optional[str] = None
    owner_index: Optional[Expr] = None
    port_index: Optional[Expr] = None


@dataclass(frozen=True, slots=True)
class ConnectionStmt(ImplItem):
    """``source => sink`` with optional attributes (e.g. ``@structural``)."""

    source: PortRefExpr
    sink: PortRefExpr
    attributes: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class ForStmt(ImplItem):
    """``for i in <array-or-range> { body }``"""

    variable: str
    iterable: Expr
    body: tuple[ImplItem, ...]


@dataclass(frozen=True, slots=True)
class IfStmt(ImplItem):
    """``if (cond) { body } else { body }``"""

    condition: Expr
    then_body: tuple[ImplItem, ...]
    else_body: tuple[ImplItem, ...] = ()


@dataclass(frozen=True, slots=True)
class AssertStmt(ImplItem):
    """``assert(expression)`` with an optional message string."""

    condition: Expr
    message: Optional[Expr] = None


@dataclass(frozen=True, slots=True)
class LocalConstDecl(ImplItem):
    """A ``const`` declaration local to an implementation body."""

    name: str
    value: Expr


# ---------------------------------------------------------------------------
# Simulation syntax (Section V-A)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SimStmt(Node):
    """Base class of simulation statements inside an event handler."""


@dataclass(frozen=True, slots=True)
class StateDecl(Node):
    """``state name = "initial";`` -- a string-valued state variable."""

    name: str
    initial: Expr


@dataclass(frozen=True, slots=True)
class EventExpr(Node):
    """Base class of event expressions (receive events and combinations)."""


@dataclass(frozen=True, slots=True)
class ReceiveEvent(EventExpr):
    """``receive(port)`` -- fires when a data packet arrives on ``port``."""

    port: str


@dataclass(frozen=True, slots=True)
class CombinedEvent(EventExpr):
    """Boolean combination of events (``&&`` / ``||``)."""

    op: str
    left: EventExpr
    right: EventExpr


@dataclass(frozen=True, slots=True)
class SendStmt(SimStmt):
    """``send(port, expression);`` -- emit a data packet on an output port."""

    port: str
    value: Expr


@dataclass(frozen=True, slots=True)
class AckStmt(SimStmt):
    """``ack(port);`` -- acknowledge the handshake on an input port."""

    port: str


@dataclass(frozen=True, slots=True)
class DelayStmt(SimStmt):
    """``delay n;`` -- advance simulated time by ``n`` cycles."""

    cycles: Expr


@dataclass(frozen=True, slots=True)
class SetStateStmt(SimStmt):
    """``state name = expression;`` -- update a state variable."""

    name: str
    value: Expr


@dataclass(frozen=True, slots=True)
class SimIfStmt(SimStmt):
    """``if (cond) { ... } else { ... }`` inside an event handler."""

    condition: Expr
    then_body: tuple[SimStmt, ...]
    else_body: tuple[SimStmt, ...] = ()


@dataclass(frozen=True, slots=True)
class EventHandler(Node):
    """``on <event-expression> { statements }``"""

    event: EventExpr
    body: tuple[SimStmt, ...]


@dataclass(frozen=True, slots=True)
class SimulationBlock(Node):
    """``simulation { state ...; on ... { ... } }`` inside an implementation."""

    states: tuple[StateDecl, ...]
    handlers: tuple[EventHandler, ...]


# ---------------------------------------------------------------------------
# Implementations and source files
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ImplDecl(Declaration):
    """``impl name<params> of streamlet<args> { body }``.

    ``external=True`` marks implementations whose behaviour lives outside the
    Tydi world; their body may only contain a simulation block.
    """

    name: str
    params: tuple[TemplateParam, ...]
    streamlet: str
    streamlet_args: tuple[TemplateArg, ...]
    body: tuple[ImplItem, ...]
    external: bool = False
    simulation: Optional[SimulationBlock] = None
    documentation: str = ""

    def is_template(self) -> bool:
        return bool(self.params)


@dataclass(frozen=True, slots=True)
class TopDecl(Declaration):
    """``top name<args>;`` -- designates the top-level implementation."""

    name: str
    arguments: tuple[TemplateArg, ...] = ()


@dataclass(slots=True)
class SourceUnit:
    """One parsed source file: package name plus its declarations."""

    package: str
    declarations: list[Declaration] = field(default_factory=list)
    uses: list[str] = field(default_factory=list)
    filename: str = "<string>"

    __reduce__ = _reduce_positional
