"""Differential test: ``load_ir`` against the parser it replaced.

:func:`repro.interchange.parse.load_ir` parses a list of token texts from
one ``findall``, recomputes token offsets only for an error's span,
memoises repeated parenthesised type expressions per document, and slices
JSON strings that need no decoding.  It must load every document exactly
like the previous parser, kept verbatim below (offset-carrying ``_Token``
objects from one ``finditer`` match per token, every type parsed again,
``json.loads`` on every string): the same re-emitted document and the same
sharing of logical-type objects on success, and the same
:class:`~repro.errors.TydiIngestError` message, span and stage on failure.

The documents are emitted fuzz, TPC-H and fleet designs, a few
hand-written ones covering the rest of the grammar, and a few hundred
seeded mutations of them: a token deleted, duplicated, substituted or
truncated, or ``$``, a stray ``"`` or a non-ASCII digit inserted.
"""

from __future__ import annotations

import json
import random
import re
from typing import Optional

import pytest

from repro.errors import TydiBackendError, TydiIngestError, TydiTypeError
from repro.interchange import emit_document, parse
from repro.interchange.emit import FORMAT_VERSION
from repro.ir.model import (
    ClockDomain,
    Connection,
    Implementation,
    Instance,
    Port,
    PortDirection,
    PortRef,
    Project,
    Streamlet,
)
from repro.lang.compile import compile_sources
from repro.lang.values import ClockDomainValue, TypeValue
from repro.queries import ALL_QUERIES
from repro.spec.logical_types import (
    Bit,
    Group,
    LogicalType,
    Null,
    Stream,
    Union,
    _InternedTypeMeta,
    clear_intern_table,
)
from repro.spec.stream_params import Complexity, Direction, Synchronicity, Throughput
from repro.testing import build_random_design
from repro.utils.source import SourceFile
from test_hdl_netlist import _fleet

# -- the reference: the previous tokenizer and parser, verbatim ---------------

#: One match per token: skip whitespace and comments, then take one token.
#: Every position matches (``bad`` catches any other character, ``eof`` the
#: end), so ``finditer`` walks the document without gaps.
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|//[^\n]*)*
    (?:
      (?P<number>\d+(?:\.\d+)*(?:[eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>"(?:\\.|[^"\\])*")
    | (?P<punct>=>|[{}()\[\]:;,=@.\-])
    | (?P<bad>.)
    | (?P<eof>)\Z
    )
    """,
    re.VERBOSE | re.DOTALL,
)

_INT_RE = re.compile(r"\d+\Z")

_VERSION_RE = re.compile(r"//\s*Tydi-IR interchange, format v(\d+)")

#: The identifiers that open a logical-type expression.
_TYPE_HEADS = ("Null", "Bit", "Group", "Union", "Stream")


class _Token:
    __slots__ = ("kind", "text", "start", "end")

    def __init__(self, kind: str, text: str, start: int, end: int) -> None:
        self.kind = kind  # "ident" | "number" | "string" | "punct" | "eof"
        self.text = text
        self.start = start
        self.end = end


def _tokenize(source: SourceFile) -> list[_Token]:
    text = source.text
    tokens: list[_Token] = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        start, end = match.span(kind)
        if kind == "bad":
            span = source.span(start, end)
            if text[start] == '"':
                raise TydiIngestError("unterminated string literal", span)
            raise TydiIngestError(f"unexpected character {text[start]!r}", span)
        tokens.append(_Token(kind, text[start:end], start, end))
        if kind == "eof":
            break
    return tokens


class _DocumentParser:
    """Recursive-descent parser over the interchange grammar."""

    def __init__(self, text: str, filename: str) -> None:
        self._file = SourceFile(text, filename)
        self._tokens = _tokenize(self._file)
        self._pos = 0
        #: Per-document intern table: rendered type text -> instance.
        self._types: dict[str, LogicalType] = {}

    # -- token plumbing -------------------------------------------------------

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        token = self._tokens[self._pos]
        if token.kind != "eof":
            self._pos += 1
        return token

    def _error(self, message: str, token: Optional[_Token] = None) -> TydiIngestError:
        if token is None:
            token = self._peek()
        return TydiIngestError(message, self._file.span(token.start, token.end))

    def _describe(self, token: _Token) -> str:
        if token.kind == "eof":
            return "end of document"
        return f"{token.text!r}"

    def _expect_punct(self, text: str) -> _Token:
        token = self._peek()
        if token.kind != "punct" or token.text != text:
            raise self._error(f"expected {text!r}, got {self._describe(token)}")
        return self._advance()

    def _at_punct(self, text: str) -> bool:
        token = self._peek()
        return token.kind == "punct" and token.text == text

    def _expect_ident(self, what: str = "an identifier") -> _Token:
        token = self._peek()
        if token.kind != "ident":
            raise self._error(f"expected {what}, got {self._describe(token)}")
        return self._advance()

    def _expect_keyword(self, word: str) -> _Token:
        token = self._peek()
        if token.kind != "ident" or token.text != word:
            raise self._error(f"expected {word!r}, got {self._describe(token)}")
        return self._advance()

    def _at_ident(self, word: str) -> bool:
        token = self._peek()
        return token.kind == "ident" and token.text == word

    def _expect_string(self, what: str = "a string literal") -> str:
        token = self._peek()
        if token.kind != "string":
            raise self._error(f"expected {what}, got {self._describe(token)}")
        self._advance()
        try:
            return json.loads(token.text)
        except ValueError as exc:
            raise self._error(f"invalid string literal: {exc}", token) from exc

    def _expect_int(self, what: str = "an integer") -> int:
        token = self._peek()
        if token.kind != "number" or not _INT_RE.match(token.text):
            raise self._error(f"expected {what}, got {self._describe(token)}")
        self._advance()
        return int(token.text)

    # -- logical types --------------------------------------------------------

    def _intern(self, logical_type: LogicalType) -> LogicalType:
        key = logical_type.to_tydi()
        found = self._types.get(key)
        if found is not None:
            return found
        self._types[key] = logical_type
        return logical_type

    def parse_type(self) -> LogicalType:
        head = self._peek()
        if head.kind != "ident" or head.text not in _TYPE_HEADS:
            raise self._error(
                f"expected a logical type (one of {', '.join(_TYPE_HEADS)}), "
                f"got {self._describe(head)}"
            )
        self._advance()
        try:
            if head.text == "Null":
                parsed: LogicalType = Null()
            elif head.text == "Bit":
                self._expect_punct("(")
                width = self._expect_int("a bit width")
                self._expect_punct(")")
                parsed = Bit(width)
            elif head.text in ("Group", "Union"):
                parsed = self._parse_compound(head.text)
            else:
                parsed = self._parse_stream()
        except TydiTypeError as exc:
            raise self._error(f"invalid {head.text} type: {exc.message}", head) from exc
        return self._intern(parsed)

    def _parse_compound(self, kind: str) -> LogicalType:
        cls = Group if kind == "Group" else Union
        name: Optional[str] = None
        token = self._peek()
        if token.kind == "ident":
            name = self._advance().text
            open_punct, close_punct = "{", "}"
        else:
            open_punct, close_punct = "(", ")"
        self._expect_punct(open_punct)
        fields: list[tuple[str, LogicalType]] = []
        if not self._at_punct(close_punct):
            while True:
                field_name = self._expect_ident(f"a {kind} field name").text
                self._expect_punct(":")
                fields.append((field_name, self.parse_type()))
                if not self._at_punct(","):
                    break
                self._advance()
        self._expect_punct(close_punct)
        if cls is Group:
            return Group(tuple(fields), name=name)
        return Union(tuple(fields), name=name)

    def _parse_stream(self) -> Stream:
        self._expect_punct("(")
        element = self.parse_type()
        kwargs: dict[str, object] = {}
        while self._at_punct(","):
            self._advance()
            arg = self._expect_ident("a Stream parameter name")
            self._expect_punct("=")
            if arg.text == "d":
                kwargs["dimension"] = self._expect_int("a dimension")
            elif arg.text == "dir":
                value = self._expect_ident("a direction")
                try:
                    kwargs["direction"] = Direction(value.text)
                except ValueError as exc:
                    raise self._error(f"invalid direction {value.text!r}", value) from exc
            elif arg.text == "sync":
                value = self._expect_ident("a synchronicity")
                try:
                    kwargs["synchronicity"] = Synchronicity(value.text)
                except ValueError as exc:
                    raise self._error(
                        f"invalid synchronicity {value.text!r}", value
                    ) from exc
            elif arg.text == "c":
                value = self._peek()
                if value.kind != "number":
                    raise self._error(
                        f"expected a complexity, got {self._describe(value)}"
                    )
                self._advance()
                kwargs["complexity"] = Complexity.parse(value.text)
            elif arg.text == "t":
                value = self._peek()
                if value.kind != "number":
                    raise self._error(
                        f"expected a throughput, got {self._describe(value)}"
                    )
                self._advance()
                kwargs["throughput"] = Throughput.of(value.text)
            elif arg.text == "user":
                kwargs["user"] = self.parse_type()
            elif arg.text == "keep":
                value = self._expect_ident("true or false")
                if value.text not in ("true", "false"):
                    raise self._error(
                        f"expected true or false, got {value.text!r}", value
                    )
                kwargs["keep"] = value.text == "true"
            else:
                raise self._error(f"unknown Stream parameter {arg.text!r}", arg)
        self._expect_punct(")")
        return Stream(element=element, **kwargs)  # type: ignore[arg-type]

    # -- literal values -------------------------------------------------------

    def parse_value(self) -> object:
        token = self._peek()
        if token.kind == "ident":
            if token.text == "none":
                self._advance()
                return None
            if token.text == "true":
                self._advance()
                return True
            if token.text == "false":
                self._advance()
                return False
            if token.text in _TYPE_HEADS:
                return self.parse_type()
            if token.text == "type":
                self._advance()
                self._expect_punct("(")
                wrapped = TypeValue(self.parse_type())
                self._expect_punct(")")
                return wrapped
            if token.text == "clockdomain":
                self._advance()
                self._expect_punct("(")
                domain = self._expect_string("a clock domain name string")
                self._expect_punct(")")
                return ClockDomainValue(domain)
            raise self._error(f"unexpected identifier {token.text!r} in a value")
        if token.kind == "number":
            self._advance()
            return self._number_value(token)
        if token.kind == "punct" and token.text == "-":
            self._advance()
            number = self._peek()
            if number.kind != "number":
                raise self._error(f"expected a number after '-', got {self._describe(number)}")
            self._advance()
            value = self._number_value(number)
            return -value  # type: ignore[operator]
        if token.kind == "string":
            return self._expect_string()
        if token.kind == "punct" and token.text == "(":
            return self._parse_tuple()
        if token.kind == "punct" and token.text == "[":
            return self._parse_list()
        if token.kind == "punct" and token.text == "{":
            return self._parse_dict()
        raise self._error(f"expected a value, got {self._describe(token)}")

    def _number_value(self, token: _Token) -> object:
        if _INT_RE.match(token.text):
            return int(token.text)
        try:
            return float(token.text)
        except ValueError as exc:
            raise self._error(f"invalid number {token.text!r}", token) from exc

    def _parse_tuple(self) -> tuple:
        self._expect_punct("(")
        items: list[object] = []
        if self._at_punct(")"):
            self._advance()
            return ()
        items.append(self.parse_value())
        while self._at_punct(","):
            self._advance()
            if self._at_punct(")"):  # trailing comma of a 1-tuple
                break
            items.append(self.parse_value())
        self._expect_punct(")")
        return tuple(items)

    def _parse_list(self) -> list:
        self._expect_punct("[")
        items: list[object] = []
        if not self._at_punct("]"):
            items.append(self.parse_value())
            while self._at_punct(","):
                self._advance()
                items.append(self.parse_value())
        self._expect_punct("]")
        return items

    def _parse_dict(self) -> dict:
        self._expect_punct("{")
        result: dict[str, object] = {}
        if not self._at_punct("}"):
            while True:
                key = self._expect_string("a string dict key")
                self._expect_punct(":")
                result[key] = self.parse_value()
                if not self._at_punct(","):
                    break
                self._advance()
        self._expect_punct("}")
        return result

    def _parse_dict_arg(self, what: str) -> dict:
        token = self._peek()
        if not self._at_punct("{"):
            raise self._error(f"expected a {{...}} dict after {what!r}, got {self._describe(token)}")
        return self._parse_dict()

    # -- document structure ---------------------------------------------------

    def parse_document(self) -> Project:
        self._expect_keyword("project")
        name = self._expect_string("the project name string")
        self._expect_punct(";")
        project = Project(name=name)
        while True:
            token = self._peek()
            if token.kind == "eof":
                break
            if token.kind != "ident":
                raise self._error(
                    f"expected 'streamlet', 'impl' or 'top', got {self._describe(token)}"
                )
            if token.text == "streamlet":
                streamlet = self._parse_streamlet()
                try:
                    project.add_streamlet(streamlet)
                except TydiBackendError as exc:
                    raise self._error(exc.message, token) from exc
            elif token.text == "impl":
                implementation = self._parse_implementation()
                try:
                    project.add_implementation(implementation)
                except TydiBackendError as exc:
                    raise self._error(exc.message, token) from exc
            elif token.text == "top":
                self._advance()
                project.top = self._expect_ident("the top implementation name").text
                self._expect_punct(";")
                trailing = self._peek()
                if trailing.kind != "eof":
                    raise self._error(
                        f"expected end of document after the top declaration, "
                        f"got {self._describe(trailing)}"
                    )
                break
            else:
                raise self._error(
                    f"expected 'streamlet', 'impl' or 'top', got {token.text!r}", token
                )
        return project

    def _parse_streamlet(self) -> Streamlet:
        keyword = self._expect_keyword("streamlet")
        name = self._expect_ident("the streamlet name").text
        self._expect_punct("{")
        documentation = ""
        ports: list[Port] = []
        while not self._at_punct("}"):
            token = self._peek()
            if token.kind != "ident":
                raise self._error(
                    f"expected 'doc', 'port' or '}}', got {self._describe(token)}"
                )
            if token.text == "doc":
                self._advance()
                documentation = self._expect_string()
                self._expect_punct(";")
            elif token.text == "port":
                self._advance()
                ports.append(self._parse_port())
            else:
                raise self._error(
                    f"expected 'doc', 'port' or '}}', got {token.text!r}", token
                )
        self._expect_punct("}")
        try:
            return Streamlet(name=name, ports=ports, documentation=documentation)
        except (TydiBackendError, TydiTypeError) as exc:
            raise self._error(exc.message, keyword) from exc

    def _parse_port(self) -> Port:
        name_token = self._expect_ident("the port name")
        self._expect_punct(":")
        logical_type = self.parse_type()
        direction_token = self._expect_ident("'in' or 'out'")
        if direction_token.text not in ("in", "out"):
            raise self._error(
                f"expected 'in' or 'out', got {direction_token.text!r}", direction_token
            )
        domain = "default"
        if self._at_punct("@"):
            self._advance()
            domain = self._expect_ident("a clock domain name").text
        attributes: dict[str, object] = {}
        if self._at_ident("attrs"):
            self._advance()
            attributes = self._parse_dict_arg("attrs")
        self._expect_punct(";")
        try:
            return Port(
                name=name_token.text,
                logical_type=logical_type,
                direction=PortDirection(direction_token.text),
                clock_domain=ClockDomain(domain),
                attributes=attributes,
            )
        except TydiTypeError as exc:
            raise self._error(exc.message, name_token) from exc

    def _parse_implementation(self) -> Implementation:
        keyword = self._expect_keyword("impl")
        name = self._expect_ident("the implementation name").text
        self._expect_keyword("of")
        streamlet = self._expect_ident("the streamlet name").text
        self._expect_punct("{")
        external = False
        documentation = ""
        metadata: dict[str, object] = {}
        instances: list[Instance] = []
        connections: list[Connection] = []
        while not self._at_punct("}"):
            token = self._peek()
            if token.kind != "ident":
                raise self._error(
                    f"expected an implementation item, got {self._describe(token)}"
                )
            if token.text == "external":
                self._advance()
                self._expect_punct(";")
                external = True
            elif token.text == "doc":
                self._advance()
                documentation = self._expect_string()
                self._expect_punct(";")
            elif token.text == "meta":
                self._advance()
                metadata = self._parse_dict_arg("meta")
                self._expect_punct(";")
            elif token.text == "instance":
                self._advance()
                instance_name = self._expect_ident("the instance name").text
                self._expect_keyword("of")
                inner = self._expect_ident("the instantiated implementation name").text
                instance_meta: dict[str, object] = {}
                if self._at_ident("meta"):
                    self._advance()
                    instance_meta = self._parse_dict_arg("meta")
                self._expect_punct(";")
                instances.append(
                    Instance(name=instance_name, implementation=inner, metadata=instance_meta)
                )
            elif token.text == "connect":
                self._advance()
                connections.append(self._parse_connection())
            else:
                raise self._error(
                    f"expected 'external', 'doc', 'meta', 'instance', 'connect' "
                    f"or '}}', got {token.text!r}",
                    token,
                )
        self._expect_punct("}")
        try:
            return Implementation(
                name=name,
                streamlet=streamlet,
                instances=instances,
                connections=connections,
                external=external,
                documentation=documentation,
                metadata=metadata,
            )
        except TydiBackendError as exc:
            raise self._error(exc.message, keyword) from exc

    def _parse_connection(self) -> Connection:
        source = self._parse_portref()
        self._expect_punct("=>")
        sink = self._parse_portref()
        logical_type: Optional[LogicalType] = None
        name = ""
        structural = False
        synthesized = False
        if self._at_ident("type"):
            self._advance()
            logical_type = self.parse_type()
        if self._at_ident("name"):
            self._advance()
            name = self._expect_string()
        if self._at_ident("structural"):
            self._advance()
            structural = True
        if self._at_ident("synthesized"):
            self._advance()
            synthesized = True
        self._expect_punct(";")
        return Connection(
            source=source,
            sink=sink,
            logical_type=logical_type,
            name=name,
            structural=structural,
            synthesized=synthesized,
        )

    def _parse_portref(self) -> PortRef:
        first = self._expect_ident("a port reference")
        if self._at_punct("."):
            self._advance()
            port = self._expect_ident("a port name")
            return PortRef(port=port.text, instance=first.text)
        return PortRef(port=first.text)


def _check_format_version(text: str, filename: str) -> None:
    match = _VERSION_RE.search(text)
    if match is None:
        return  # hand-written documents may omit the stamp
    version = int(match.group(1))
    if version > FORMAT_VERSION:
        raise TydiIngestError(
            f"{filename}: document declares interchange format v{version}, "
            f"but this toolchain reads up to v{FORMAT_VERSION}"
        )


def load_ir(text: str, *, filename: str = "<tydi-ir>") -> Project:
    """Parse one Tydi-IR interchange document into a :class:`Project`.

    The returned project has passed :meth:`~repro.ir.model.Project.validate`
    (referential integrity); type-level checks are the DRC's job, exactly as
    for an evaluated design.  Raises :class:`~repro.errors.TydiIngestError`
    on any lexical, syntactic or referential problem.
    """
    if not isinstance(text, str):
        raise TydiIngestError(
            f"an IR document must be a string, got {type(text).__name__}"
        )
    _check_format_version(text, filename)
    project = _DocumentParser(text, filename).parse_document()
    try:
        project.validate()
    except TydiBackendError as exc:
        raise TydiIngestError(f"{filename}: {exc.message}") from exc
    return project


# -- documents -----------------------------------------------------------------

#: Hand-written documents for what the emitted designs leave out: escaped
#: and non-ASCII strings, every Stream parameter, named and anonymous
#: compound types (anonymous twins must stay distinct objects across
#: documents but share one within a document, even when spelled with
#: different tokens), every literal value form
#: and comments or ``//`` inside strings.  (No document here repeats the
#: format stamp after its first line: the reference read a stamp anywhere,
#: the one behaviour :func:`load_ir` changed on purpose.)
RICH_DOCUMENT = r"""// Tydi-IR interchange, format v1
// a second comment line
project "rich \"doc\" é café ünïcode";

streamlet source_s {
  doc "line one\nline two\ttab // not a comment";
  port out0: Stream(Group(a: Bit(8), b: Bit(4)), d=2, c=7, t=2.5, dir=Reverse, sync=Desync, user=Bit(3), keep=true) out @fast attrs {"fifo_depth": 16, "ratio": -0.25, "neg": -3, "big": 1e3, "tags": ["x", "y"], "pair": (1,), "none": none, "flag": false, "kind": type(Bit(2)), "domain": clockdomain("fast")};
  port out1: Stream(Group(a: Bit(8), b: Bit(4)), d=2, c=7, t=2.5, dir=Reverse, sync=Desync, user=Bit(3), keep=true) out @fast;
  port named: Stream(Union Choice { x: Bit(1), y: Null }, c=4.1.2) out;
  port plain: Null in;
  port empty: Group() in;
  port twice: Group Pair { lo: Bit(8), hi: Bit(8) } in;
  port spelled0: Stream(Group(a: Bit(8)), d=0) in;
  port spelled1: Stream(Group(a: Bit(8))) in;
}

impl source_i of source_s {
  external;
  doc "";
  meta {"data_type": Stream(Group(a: Bit(8), b: Bit(4)), d=2, c=7, t=2.5, dir=Reverse, sync=Desync, user=Bit(3), keep=true), "nested": {"deep": [(), (1, 2.0), {"k": "v"}]}};
}

streamlet top_s {
  port feed: Stream(Bit(8), d=1) in;
  port result: Stream(Bit(8), d=1) out;
}

impl top_i of top_s {
  doc "top";
  meta {};
  instance a of source_i meta {"array": "a", "index": 0};
  connect feed => result type Stream(Bit(8), d=1) name "n0" structural synthesized;
}

top top_i;
// a trailing comment
"""


def _documents() -> list[str]:
    projects = [compile_sources(build_random_design(random.Random(seed))).project for seed in range(6)]
    projects += [query.compile().project for query in ALL_QUERIES]
    projects.append(_fleet(40))
    return [emit_document(project) for project in projects] + [RICH_DOCUMENT]


#: Texts a substitution may put in place of a token: one of each kind,
#: non-ASCII digits, escapes, and tokens the grammar never expects.
_SUBSTITUTES = (
    "Null", "Bit", "Stream", "Group", "Union", "(", ")", "{", "}", "=>", "-", ",",
    "1.5", "2.0.1", "1e3", "٣", "7٣", '"x"', '"\\u0041\\n"', '"\\q"', "none",
    "type", "in", "out", "meta", "port", "connect", "top", "d", "keep", "user",
)


def _mutations(document: str, rng: random.Random, count: int) -> list[str]:
    """``count`` seeded single edits of ``document``."""
    spans = [(token.start, token.end) for token in _tokenize(SourceFile(document)) if token.kind != "eof"]
    texts = [document[start:end] for start, end in spans]
    mutants = []
    for _ in range(count):
        start, end = rng.choice(spans)
        edit = rng.randrange(5)
        if edit == 0:  # delete the token
            mutants.append(document[:start] + document[end:])
        elif edit == 1:  # duplicate it
            mutants.append(document[:end] + " " + document[start:end] + document[end:])
        elif edit == 2:  # substitute another token text
            substitute = rng.choice(texts) if rng.random() < 0.5 else rng.choice(_SUBSTITUTES)
            mutants.append(document[:start] + substitute + document[end:])
        elif edit == 3:  # truncate it
            mutants.append(document[:start] + document[start : start + (end - start) // 2] + document[end:])
        else:  # insert a character no valid document has there
            position = rng.randrange(len(document) + 1)
            mutants.append(document[:position] + rng.choice(("$", '"', "٣")) + document[position:])
    return mutants


# -- outcomes ------------------------------------------------------------------


def _value_types(value: object):
    if isinstance(value, LogicalType):
        yield from value.walk()
    elif isinstance(value, TypeValue):
        yield from _value_types(value.logical_type)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _value_types(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _value_types(item)


def _type_sharing(project: Project) -> list[int]:
    """Every logical-type object the project holds, in document order, as
    the index of the first distinct object it is identical to."""
    first_seen: dict[int, int] = {}
    values: list[object] = []
    for streamlet in project.streamlets.values():
        for port in streamlet.ports:
            values += [port.logical_type, port.attributes]
    for implementation in project.implementations.values():
        values.append(implementation.metadata)
        values += [instance.metadata for instance in implementation.instances]
        values += [connection.logical_type for connection in implementation.connections]
    return [
        first_seen.setdefault(id(logical_type), len(first_seen))
        for logical_type in _value_types(values)
    ]


def _outcome(load, text: str):
    try:
        project = load(text, filename="doc.tir")
    except TydiIngestError as exc:
        return ("error", exc.message, str(exc.span), repr(exc.span), exc.stage)
    try:
        emitted = emit_document(project)
    except TydiBackendError as exc:  # ingestible, but not emittable again
        emitted = f"emit error: {exc.message}"
    return ("ok", emitted, _type_sharing(project))


def _assert_loads_like_the_reference(text: str) -> tuple:
    expected = _outcome(load_ir, text)
    assert _outcome(parse.load_ir, text) == expected
    return expected


# -- tests ---------------------------------------------------------------------


def test_documents_load_like_the_reference():
    for document in _documents():
        assert _assert_loads_like_the_reference(document)[0] == "ok"


def test_rich_document_round_trips():
    project = parse.load_ir(RICH_DOCUMENT)
    assert project.name == 'rich "doc" é café ünïcode'
    assert project.streamlets["source_s"].documentation.startswith("line one\nline two\t")
    assert emit_document(parse.load_ir(emit_document(project))) == emit_document(project)


def test_mutated_documents_load_like_the_reference():
    """Each seeded edit loads, or fails with the same message, span and stage."""
    rng = random.Random(14)
    small = [
        emit_document(compile_sources(build_random_design(random.Random(seed))).project)
        for seed in (0, 3)
    ]
    small += [emit_document(ALL_QUERIES[0].compile().project), emit_document(_fleet(3, files=3))]
    small.append(RICH_DOCUMENT)
    outcomes = {"ok": 0, "error": 0}
    for document in small:
        for mutant in _mutations(document, rng, 80):
            outcomes[_assert_loads_like_the_reference(mutant)[0]] += 1
    # Both branches are exercised, and most edits break the document.
    assert outcomes["ok"] >= 10 and outcomes["error"] >= 300


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   \n// only a comment\n",
        "garbage",
        'project "p";',
        'project "p"; top',
        'project "p"; streamlet s { port i: Stream(Bit(٣), d=1) in; }',
        'project "p"; streamlet s { port i: Stream(Bit(8), d=1 in; }',
        'project "p"; streamlet s { port i: Stream(Bit(8), d=1) in; port j: Stream(Bit(8), d=1) in; }',
        'project "p"; streamlet s { port i: Stream(Bit(8), d=1) in; } impl x of s { connect i => i type Stream(Bit(8), d=1) extra; }',
        'project "p"; streamlet s { port i: Stream(Bit(8), d=1) in; port i: Bit(1) out; }',
        'project "p"; streamlet s { port i: Null( in; }',
        'project "p"; streamlet s { doc "tab\there"; }',
        'project "p"; streamlet s { doc "bad \\q escape"; }',
        'project "p"; streamlet s { port i: Stream(Bit(0)) in; }',
        'project "p"; streamlet s { port i: Stream(Bit(8), c=x) in; }',
        'project "p"; impl i of s { meta {"x": 1.2.3}; }',
        'project "p"; impl i of s { meta {"x": -"y"}; }',
        'project "p" ; ²',
        '// Tydi-IR interchange, format v2\nproject "p";',
        '// Tydi-IR interchange, format v1٣\nproject "p";',
    ],
)
def test_edge_documents_load_like_the_reference(text):
    _assert_loads_like_the_reference(text)


# -- the per-document type memo ------------------------------------------------


def _constructions(monkeypatch, document: str) -> int:
    """How many logical types ``load_ir`` constructs for ``document``."""
    calls = 0
    construct = _InternedTypeMeta.__call__

    def counting(cls, *args, **kwargs):
        nonlocal calls
        calls += 1
        return construct(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(_InternedTypeMeta, "__call__", counting)
        parse.load_ir(document)
    return calls


def test_type_constructions_do_not_grow_with_the_document(monkeypatch):
    # Every port and connection of the fleet is Stream(Bit(8), d=1).  Its two
    # type texts are parsed once per document: Bit(8), then the Stream, which
    # constructs the Null its user type defaults to.
    counts = [_constructions(monkeypatch, emit_document(_fleet(width))) for width in (40, 80)]
    assert counts == [3, 3]


def _port_and_connection_types(project: Project) -> list[LogicalType]:
    types = [port.logical_type for streamlet in project.streamlets.values() for port in streamlet.ports]
    for implementation in project.implementations.values():
        types += [connection.logical_type for connection in implementation.connections]
    return [logical_type for logical_type in types if logical_type is not None]


def test_repeated_type_texts_share_one_object():
    types = _port_and_connection_types(parse.load_ir(emit_document(_fleet(8))))
    assert len(types) > 100
    assert all(logical_type is types[0] for logical_type in types)


def test_the_type_memo_lives_with_one_document():
    document = emit_document(_fleet(4, files=3))
    first = _port_and_connection_types(parse.load_ir(document))[0]
    clear_intern_table()  # what a cold start sees: no process-wide table
    second = _port_and_connection_types(parse.load_ir(document))[0]
    assert second == first and second is not first
