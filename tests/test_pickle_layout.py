"""The positional pickle layout of spans, tokens and AST nodes.

Spans, line indexes, tokens, AST nodes and source units pickle as their
class plus their field values in ``__match_args__`` order.  A field
inserted into (or moved within) one of those classes would silently shift
every later field when an AST blob of the stage cache or the stdlib
snapshot written by the old layout loads.  :data:`LAYOUT` pins every
class's positional fields; a change to it must come with a bump of both
version salts.
"""

from __future__ import annotations

import dataclasses
import inspect
import pickle

import pytest

from repro.lang import ast
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_source
from repro.utils.source import SourceFile

#: Positional pickle fields of every class, as committed with
#: ``STAGE_SCHEMA_VERSION`` 10 and ``SNAPSHOT_FORMAT`` 2.
LAYOUT: dict[str, tuple[str, ...]] = {
    "LineIndex": ("filename", "starts"),
    "SourceSpan": ("lo", "hi", "index"),
    "Token": ("kind", "text", "span", "value"),
    "SourceUnit": ("package", "declarations", "uses", "filename"),
    "Node": ("span",),
    "Expr": ("span",),
    "Literal": ("span", "value"),
    "Identifier": ("span", "name"),
    "BinaryOp": ("span", "op", "left", "right"),
    "UnaryOp": ("span", "op", "operand"),
    "Call": ("span", "function", "arguments"),
    "ArrayLiteral": ("span", "items"),
    "IndexExpr": ("span", "base", "index"),
    "RangeExpr": ("span", "start", "end"),
    "TypeExpr": ("span",),
    "NullTypeExpr": ("span",),
    "BitTypeExpr": ("span", "width"),
    "NamedTypeExpr": ("span", "name"),
    "StreamTypeExpr": ("span", "element", "arguments"),
    "TemplateParam": ("span", "name", "kind", "of_streamlet"),
    "TemplateArg": ("span",),
    "TypeArg": ("span", "type_expr"),
    "ImplArg": ("span", "name", "arguments"),
    "ExprArg": ("span", "expr"),
    "Declaration": ("span",),
    "PackageDecl": ("span", "name"),
    "UseDecl": ("span", "name"),
    "ConstDecl": ("span", "name", "value"),
    "TypeAliasDecl": ("span", "name", "type_expr"),
    "GroupDecl": ("span", "name", "fields"),
    "UnionDecl": ("span", "name", "variants"),
    "PortDecl": ("span", "name", "type_expr", "direction", "array_size", "clock_domain"),
    "StreamletDecl": ("span", "name", "params", "ports", "documentation"),
    "ImplItem": ("span",),
    "InstanceDecl": ("span", "name", "target", "arguments", "array_size"),
    "PortRefExpr": ("span", "port", "owner", "owner_index", "port_index"),
    "ConnectionStmt": ("span", "source", "sink", "attributes"),
    "ForStmt": ("span", "variable", "iterable", "body"),
    "IfStmt": ("span", "condition", "then_body", "else_body"),
    "AssertStmt": ("span", "condition", "message"),
    "LocalConstDecl": ("span", "name", "value"),
    "SimStmt": ("span",),
    "StateDecl": ("span", "name", "initial"),
    "EventExpr": ("span",),
    "ReceiveEvent": ("span", "port"),
    "CombinedEvent": ("span", "op", "left", "right"),
    "SendStmt": ("span", "port", "value"),
    "AckStmt": ("span", "port"),
    "DelayStmt": ("span", "cycles"),
    "SetStateStmt": ("span", "name", "value"),
    "SimIfStmt": ("span", "condition", "then_body", "else_body"),
    "EventHandler": ("span", "event", "body"),
    "SimulationBlock": ("span", "states", "handlers"),
    "ImplDecl": (
        "span",
        "name",
        "params",
        "streamlet",
        "streamlet_args",
        "body",
        "external",
        "simulation",
        "documentation",
    ),
    "TopDecl": ("span", "name", "arguments"),
}

BUMP = (
    "bump STAGE_SCHEMA_VERSION (repro.pipeline.cache) and SNAPSHOT_FORMAT "
    "(repro.stdlib.snapshot), rebuild the stdlib snapshot with "
    "`python -m repro.stdlib.snapshot`, then update LAYOUT"
)

#: Parses into at least one instance of every concrete node class.
EVERY_NODE = """
package demo;
use std;
const n = 4;
const xs = [1, 2, 3];
const y = -xs[1] + ceil(log2(8)) * 2;
const ok = !(n > 2) || true && false;
type byte_t = Stream(Bit(8), d=1);
type nothing_t = Null;
Group Pair { a: Bit(4), b: Bit(4), }
Union Choice { x: Bit(1), y: Null, }
streamlet pass_s<t: type, k: int> { i: t in, o: t out [k] @fast, }
external impl pass_i<t: type, k: int> of pass_s<type t, k>;
streamlet wrap_s<p: impl of pass_s> { i: byte_t in, o: byte_t out, }
impl wrap_i of wrap_s<impl pass_i<type byte_t, 1>> {
    instance u(pass_i<type byte_t, 1>) [2],
    const local = 3;
    for j in 0 -> 2 { }
    if (n > 1) { } else { }
    assert(n > 0, "positive"),
    i => u[0].i,
    u[0].o[0] => o @structural,
    simulation {
        state mode = "idle";
        on receive(i) && (receive(o) || receive(i)) {
            send(o, 1);
            ack(i);
            delay 2;
            state mode = "busy";
            if (mode == "busy") { ack(i); } else { delay 1; }
        }
    }
}
top wrap_i;
"""


def _node_classes() -> dict[str, type]:
    return {
        name: cls
        for name, cls in vars(ast).items()
        if inspect.isclass(cls) and cls.__module__ == ast.__name__ and dataclasses.is_dataclass(cls)
    }


def _walk(value, found: dict[type, object]) -> None:
    if isinstance(value, (ast.Node, ast.SourceUnit)):
        found.setdefault(type(value), value)
        for name in value.__match_args__:
            _walk(getattr(value, name), found)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _walk(item, found)


def _instances() -> dict[str, object]:
    """One instance of every pinned class."""
    found: dict[type, object] = {}
    _walk(parse_source(EVERY_NODE, "every.td"), found)
    span = SourceFile("x", "every.td").span(0, 1)
    instances: dict[str, object] = {}
    for name, cls in _node_classes().items():
        if cls not in found and LAYOUT.get(name) == ("span",):
            found[cls] = cls(span)  # an abstract base: its only field is the span
        instances[name] = found.get(cls)
    token = tokenize("const x = 1.5;", "every.td")[3]
    instances.update(Token=token, SourceSpan=token.span, LineIndex=token.span.index)
    return instances


def test_layout_covers_every_class():
    assert set(_node_classes()) | {"Token", "SourceSpan", "LineIndex"} == set(LAYOUT)
    missing = [name for name, instance in _instances().items() if instance is None]
    assert not missing, f"EVERY_NODE parses into no instance of {missing}"


@pytest.mark.parametrize("name", sorted(LAYOUT))
def test_positional_fields_are_pinned(name):
    cls = type(_instances()[name])
    assert cls.__match_args__ == LAYOUT[name], (
        f"the positional pickle layout of {name} changed from {LAYOUT[name]} to "
        f"{cls.__match_args__}: {BUMP}"
    )
    if dataclasses.is_dataclass(cls):
        # Unpickling calls ``cls(*fields)``: the order must be __init__'s.
        assert cls.__match_args__ == tuple(field.name for field in dataclasses.fields(cls))
    else:
        assert cls.__match_args__ == cls.__slots__


@pytest.mark.parametrize("name", sorted(LAYOUT))
def test_round_trip(name):
    instance = _instances()[name]
    cls = type(instance)
    reduced = instance.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
    assert reduced[:2] == (cls, tuple(getattr(instance, field) for field in LAYOUT[name]))
    copy = pickle.loads(pickle.dumps(instance, protocol=pickle.HIGHEST_PROTOCOL))
    assert type(copy) is cls
    assert copy == instance
    if cls is not ast.SourceUnit:  # the parser fills a unit in place
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(copy, LAYOUT[name][0], None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(copy, LAYOUT[name][-1])


def test_spans_of_one_file_share_their_index_through_pickle():
    unit = parse_source("const a = 1;\nconst b = a + 2;\n", "shared.td")
    copy = pickle.loads(pickle.dumps(unit, protocol=pickle.HIGHEST_PROTOCOL))
    indexes = {id(decl.span.index) for decl in copy.declarations}
    indexes.add(id(copy.declarations[1].value.span.index))
    assert len(indexes) == 1
    assert [str(decl.span) for decl in copy.declarations] == ["shared.td:1:1", "shared.td:2:1"]
    assert copy.declarations[1].value.span.end == unit.declarations[1].value.span.end
