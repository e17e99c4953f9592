"""Parsing Tydi-IR interchange documents back into the object model.

:func:`load_ir` is the ingest half of the round trip: it turns the text
:func:`repro.interchange.emit.emit_document` produces (or a hand-written
document in the same grammar) back into a :class:`repro.ir.model.Project`
that flows through the existing sugar / DRC / backend stages exactly like an
evaluated Tydi-lang design.

Two properties carry the byte-identical round trip
``emit(ingest(emit(P))) == emit(P)``:

* **order preservation** -- streamlets, implementations, ports, instances
  and connections are inserted in document order, and the emitter walks
  them in insertion order;
* **per-document type interning** -- every parsed logical type is interned
  by its rendered text, so two ports that shared one type *object* in the
  source project share one object again after the round trip.  Strict type
  equality (:func:`repro.spec.compat.strictly_equal`) distinguishes
  anonymous structural twins by identity, so without this step a re-parsed
  design could fail a DRC its source passed.  Collapsing identically
  rendered types can only *add* identities, never remove them, so a design
  that passed the DRC before emission always passes it again after ingest.

The parser reads the document as a list of token texts; a token's kind
follows from its text, and its offsets are recomputed only when an error
reports them.  A parenthesised type expression is parsed once per document
and its token texts remembered, because most documents repeat a handful of
type texts on every port and connection.

All failures raise :class:`repro.errors.TydiIngestError` (stage
``ingest``) carrying the document location of the offending token -- the
same ``file:line:col`` envelope shape the Tydi-lang frontend produces, so
served ingest errors are structured like every other pipeline stage's.
"""

from __future__ import annotations

import json
import re
from itertools import islice
from typing import Optional

from repro.errors import TydiBackendError, TydiIngestError, TydiTypeError
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
from repro.lang.values import ClockDomainValue, TypeValue
from repro.spec.logical_types import Bit, Group, LogicalType, Null, Stream, Union
from repro.spec.stream_params import Complexity, Direction, Synchronicity, Throughput
from repro.utils.source import SourceFile, SourceSpan

#: One match per token: skip whitespace and comments, then capture one
#: token -- a number, an identifier, a string, punctuation, any other
#: character (rejected before parsing) or, at the end, the empty
#: end-of-document token.  Every position matches, so ``findall`` returns
#: the document's token texts without gaps (after trailing whitespace it
#: returns the empty token twice; the parser never reads past the first).
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|//[^\n]*)*
    (
      \d+(?:\.\d+)*(?:[eE][+-]?\d+)?
    | [A-Za-z_][A-Za-z0-9_]*
    | "(?:\\.|[^"\\])*"
    | =>|[{}()\[\]:;,=@.\-]
    | .
    | \Z
    )
    """,
    re.VERBOSE | re.DOTALL,
)

_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_PUNCT = frozenset(("=>", "{", "}", "(", ")", "[", "]", ":", ";", ",", "=", "@", ".", "-"))

_VERSION_RE = re.compile(r"//\s*Tydi-IR interchange, format v(\d+)")

#: The identifiers that open a logical-type expression.
_TYPE_HEADS = ("Null", "Bit", "Group", "Union", "Stream")


def _kind(token: str) -> str:
    """The alternative of :data:`_TOKEN_RE` that matched ``token``.

    ``\\d`` in a ``str`` pattern is any Unicode decimal digit, which is
    exactly :meth:`str.isdecimal`; identifiers start with an ASCII letter or
    ``_``; a lone ``"`` is the opening quote of an unterminated string.
    """
    if not token:
        return "eof"
    first = token[0]
    if first.isdecimal():
        return "number"
    if first in _IDENT_START:
        return "ident"
    if first == '"' and len(token) > 1:
        return "string"
    if token in _PUNCT:
        return "punct"
    return "bad"


def _token_span(text: str, filename: str, index: int) -> SourceSpan:
    """The span of token ``index`` of ``text``, found by scanning it again."""
    match = next(islice(_TOKEN_RE.finditer(text), index, None))
    return SourceFile(text, filename).span(*match.span(1))


def _tokenize(text: str, filename: str) -> list[str]:
    """The token texts of ``text``, ending with the empty end-of-document token.

    A character no token accepts is rejected here, before parsing, at its
    first occurrence.
    """
    tokens = _TOKEN_RE.findall(text)
    bad = [token for token in set(tokens) if len(token) == 1 and _kind(token) == "bad"]
    if bad:
        index = min(map(tokens.index, bad))
        token = tokens[index]
        message = (
            "unterminated string literal"
            if token == '"'
            else f"unexpected character {token!r}"
        )
        raise TydiIngestError(message, _token_span(text, filename, index))
    return tokens


def _closing_paren(tokens: list[str], open_index: int) -> int:
    """The index of the ``)`` matching the ``(`` at ``open_index``, or -1
    when the statement (a type contains no ``;``) or the document ends first."""
    depth = 0
    for index in range(open_index, len(tokens)):
        token = tokens[index]
        if token == "(":
            depth += 1
        elif token == ")":
            depth -= 1
            if not depth:
                return index
        elif token == ";" or not token:
            return -1
    return -1


class _DocumentParser:
    """Recursive-descent parser over the interchange grammar."""

    def __init__(self, text: str, filename: str) -> None:
        self._text = text
        self._filename = filename
        self._tokens = _tokenize(text, filename)
        self._pos = 0
        #: Per-document intern table: rendered type text -> instance.
        self._types: dict[str, LogicalType] = {}
        #: Per-document parse memo: the token texts of a parenthesised type
        #: expression -> the interned type they parse to.
        self._parsed: dict[tuple[str, ...], LogicalType] = {}

    # -- token plumbing -------------------------------------------------------

    def _peek(self) -> str:
        return self._tokens[self._pos]

    def _error(self, message: str, index: Optional[int] = None) -> TydiIngestError:
        if index is None:
            index = self._pos
        return TydiIngestError(message, _token_span(self._text, self._filename, index))

    @staticmethod
    def _describe(token: str) -> str:
        return repr(token) if token else "end of document"

    def _expect(self, text: str) -> None:
        """Consume punctuation or a keyword: one exact token text."""
        token = self._tokens[self._pos]
        if token != text:
            raise self._error(f"expected {text!r}, got {self._describe(token)}")
        self._pos += 1

    def _at(self, text: str) -> bool:
        return self._tokens[self._pos] == text

    def _expect_ident(self, what: str = "an identifier") -> str:
        token = self._tokens[self._pos]
        if token[:1] not in _IDENT_START:
            raise self._error(f"expected {what}, got {self._describe(token)}")
        self._pos += 1
        return token

    def _expect_string(self, what: str = "a string literal") -> str:
        token = self._tokens[self._pos]
        if token[:1] != '"':
            raise self._error(f"expected {what}, got {self._describe(token)}")
        self._pos += 1
        # Without escapes or control characters a JSON string is its body.
        if "\\" not in token and token.isprintable():
            return token[1:-1]
        try:
            return json.loads(token)
        except ValueError as exc:
            raise self._error(f"invalid string literal: {exc}", self._pos - 1) from exc

    def _expect_int(self, what: str = "an integer") -> int:
        token = self._tokens[self._pos]
        if not token.isdecimal():
            raise self._error(f"expected {what}, got {self._describe(token)}")
        self._pos += 1
        return int(token)

    # -- logical types --------------------------------------------------------

    def _intern(self, logical_type: LogicalType) -> LogicalType:
        key = logical_type.to_tydi()
        found = self._types.get(key)
        if found is not None:
            return found
        self._types[key] = logical_type
        return logical_type

    def parse_type(self) -> LogicalType:
        tokens = self._tokens
        start = self._pos
        head = tokens[start]
        if head not in _TYPE_HEADS:
            raise self._error(
                f"expected a logical type (one of {', '.join(_TYPE_HEADS)}), "
                f"got {self._describe(head)}"
            )
        # The parse of a type reads no token past its own, so the token texts
        # it consumes decide it: when they recur, return the object interned
        # the first time.
        close = _closing_paren(tokens, start + 1) if tokens[start + 1] == "(" else -1
        key = tuple(tokens[start : close + 1]) if close >= 0 else None
        found = self._parsed.get(key)
        if found is not None:
            self._pos = close + 1
            return found
        self._pos += 1
        try:
            if head == "Null":
                parsed: LogicalType = Null()
            elif head == "Bit":
                self._expect("(")
                width = self._expect_int("a bit width")
                self._expect(")")
                parsed = Bit(width)
            elif head in ("Group", "Union"):
                parsed = self._parse_compound(head)
            else:
                parsed = self._parse_stream()
        except TydiTypeError as exc:
            raise self._error(f"invalid {head} type: {exc.message}", start) from exc
        parsed = self._intern(parsed)
        if key is not None and self._pos == close + 1:  # consumed exactly the key
            self._parsed[key] = parsed
        return parsed

    def _parse_compound(self, kind: str) -> LogicalType:
        cls = Group if kind == "Group" else Union
        name: Optional[str] = None
        token = self._peek()
        if token[:1] in _IDENT_START:
            name = token
            self._pos += 1
            open_punct, close_punct = "{", "}"
        else:
            open_punct, close_punct = "(", ")"
        self._expect(open_punct)
        fields: list[tuple[str, LogicalType]] = []
        if not self._at(close_punct):
            while True:
                field_name = self._expect_ident(f"a {kind} field name")
                self._expect(":")
                fields.append((field_name, self.parse_type()))
                if not self._at(","):
                    break
                self._pos += 1
        self._expect(close_punct)
        if cls is Group:
            return Group(tuple(fields), name=name)
        return Union(tuple(fields), name=name)

    def _parse_stream(self) -> Stream:
        self._expect("(")
        element = self.parse_type()
        kwargs: dict[str, object] = {}
        while self._at(","):
            self._pos += 1
            arg_index = self._pos
            arg = self._expect_ident("a Stream parameter name")
            self._expect("=")
            value_index = self._pos
            if arg == "d":
                kwargs["dimension"] = self._expect_int("a dimension")
            elif arg == "dir":
                value = self._expect_ident("a direction")
                try:
                    kwargs["direction"] = Direction(value)
                except ValueError as exc:
                    raise self._error(f"invalid direction {value!r}", value_index) from exc
            elif arg == "sync":
                value = self._expect_ident("a synchronicity")
                try:
                    kwargs["synchronicity"] = Synchronicity(value)
                except ValueError as exc:
                    raise self._error(
                        f"invalid synchronicity {value!r}", value_index
                    ) from exc
            elif arg == "c":
                value = self._peek()
                if not value[:1].isdecimal():
                    raise self._error(
                        f"expected a complexity, got {self._describe(value)}"
                    )
                self._pos += 1
                kwargs["complexity"] = Complexity.parse(value)
            elif arg == "t":
                value = self._peek()
                if not value[:1].isdecimal():
                    raise self._error(
                        f"expected a throughput, got {self._describe(value)}"
                    )
                self._pos += 1
                kwargs["throughput"] = Throughput.of(value)
            elif arg == "user":
                kwargs["user"] = self.parse_type()
            elif arg == "keep":
                value = self._expect_ident("true or false")
                if value not in ("true", "false"):
                    raise self._error(
                        f"expected true or false, got {value!r}", value_index
                    )
                kwargs["keep"] = value == "true"
            else:
                raise self._error(f"unknown Stream parameter {arg!r}", arg_index)
        self._expect(")")
        return Stream(element=element, **kwargs)  # type: ignore[arg-type]

    # -- literal values -------------------------------------------------------

    def parse_value(self) -> object:
        token = self._peek()
        if token[:1] in _IDENT_START:
            if token == "none":
                self._pos += 1
                return None
            if token == "true":
                self._pos += 1
                return True
            if token == "false":
                self._pos += 1
                return False
            if token in _TYPE_HEADS:
                return self.parse_type()
            if token == "type":
                self._pos += 1
                self._expect("(")
                wrapped = TypeValue(self.parse_type())
                self._expect(")")
                return wrapped
            if token == "clockdomain":
                self._pos += 1
                self._expect("(")
                domain = self._expect_string("a clock domain name string")
                self._expect(")")
                return ClockDomainValue(domain)
            raise self._error(f"unexpected identifier {token!r} in a value")
        if token[:1].isdecimal():
            self._pos += 1
            return self._number_value(token, self._pos - 1)
        if token == "-":
            self._pos += 1
            number = self._peek()
            if not number[:1].isdecimal():
                raise self._error(f"expected a number after '-', got {self._describe(number)}")
            self._pos += 1
            value = self._number_value(number, self._pos - 1)
            return -value  # type: ignore[operator]
        if token[:1] == '"':
            return self._expect_string()
        if token == "(":
            return self._parse_tuple()
        if token == "[":
            return self._parse_list()
        if token == "{":
            return self._parse_dict()
        raise self._error(f"expected a value, got {self._describe(token)}")

    def _number_value(self, token: str, index: int) -> object:
        if token.isdecimal():
            return int(token)
        try:
            return float(token)
        except ValueError as exc:
            raise self._error(f"invalid number {token!r}", index) from exc

    def _parse_tuple(self) -> tuple:
        self._expect("(")
        items: list[object] = []
        if self._at(")"):
            self._pos += 1
            return ()
        items.append(self.parse_value())
        while self._at(","):
            self._pos += 1
            if self._at(")"):  # trailing comma of a 1-tuple
                break
            items.append(self.parse_value())
        self._expect(")")
        return tuple(items)

    def _parse_list(self) -> list:
        self._expect("[")
        items: list[object] = []
        if not self._at("]"):
            items.append(self.parse_value())
            while self._at(","):
                self._pos += 1
                items.append(self.parse_value())
        self._expect("]")
        return items

    def _parse_dict(self) -> dict:
        self._expect("{")
        result: dict[str, object] = {}
        if not self._at("}"):
            while True:
                key = self._expect_string("a string dict key")
                self._expect(":")
                result[key] = self.parse_value()
                if not self._at(","):
                    break
                self._pos += 1
        self._expect("}")
        return result

    def _parse_dict_arg(self, what: str) -> dict:
        token = self._peek()
        if not self._at("{"):
            raise self._error(f"expected a {{...}} dict after {what!r}, got {self._describe(token)}")
        return self._parse_dict()

    # -- document structure ---------------------------------------------------

    def parse_document(self) -> Project:
        self._expect("project")
        name = self._expect_string("the project name string")
        self._expect(";")
        project = Project(name=name)
        while True:
            index = self._pos
            token = self._peek()
            if not token:
                break
            if token[:1] not in _IDENT_START:
                raise self._error(
                    f"expected 'streamlet', 'impl' or 'top', got {self._describe(token)}"
                )
            if token == "streamlet":
                streamlet = self._parse_streamlet()
                try:
                    project.add_streamlet(streamlet)
                except TydiBackendError as exc:
                    raise self._error(exc.message, index) from exc
            elif token == "impl":
                implementation = self._parse_implementation()
                try:
                    project.add_implementation(implementation)
                except TydiBackendError as exc:
                    raise self._error(exc.message, index) from exc
            elif token == "top":
                self._pos += 1
                project.top = self._expect_ident("the top implementation name")
                self._expect(";")
                trailing = self._peek()
                if trailing:
                    raise self._error(
                        f"expected end of document after the top declaration, "
                        f"got {self._describe(trailing)}"
                    )
                break
            else:
                raise self._error(
                    f"expected 'streamlet', 'impl' or 'top', got {token!r}", index
                )
        return project

    def _parse_streamlet(self) -> Streamlet:
        keyword = self._pos
        self._expect("streamlet")
        name = self._expect_ident("the streamlet name")
        self._expect("{")
        documentation = ""
        ports: list[Port] = []
        while not self._at("}"):
            token = self._peek()
            if token[:1] not in _IDENT_START:
                raise self._error(
                    f"expected 'doc', 'port' or '}}', got {self._describe(token)}"
                )
            if token == "doc":
                self._pos += 1
                documentation = self._expect_string()
                self._expect(";")
            elif token == "port":
                self._pos += 1
                ports.append(self._parse_port())
            else:
                raise self._error(f"expected 'doc', 'port' or '}}', got {token!r}")
        self._expect("}")
        try:
            return Streamlet(name=name, ports=ports, documentation=documentation)
        except (TydiBackendError, TydiTypeError) as exc:
            raise self._error(exc.message, keyword) from exc

    def _parse_port(self) -> Port:
        name_index = self._pos
        name = self._expect_ident("the port name")
        self._expect(":")
        logical_type = self.parse_type()
        direction_index = self._pos
        direction = self._expect_ident("'in' or 'out'")
        if direction not in ("in", "out"):
            raise self._error(f"expected 'in' or 'out', got {direction!r}", direction_index)
        domain = "default"
        if self._at("@"):
            self._pos += 1
            domain = self._expect_ident("a clock domain name")
        attributes: dict[str, object] = {}
        if self._at("attrs"):
            self._pos += 1
            attributes = self._parse_dict_arg("attrs")
        self._expect(";")
        try:
            return Port(
                name=name,
                logical_type=logical_type,
                direction=PortDirection(direction),
                clock_domain=ClockDomain(domain),
                attributes=attributes,
            )
        except TydiTypeError as exc:
            raise self._error(exc.message, name_index) from exc

    def _parse_implementation(self) -> Implementation:
        keyword = self._pos
        self._expect("impl")
        name = self._expect_ident("the implementation name")
        self._expect("of")
        streamlet = self._expect_ident("the streamlet name")
        self._expect("{")
        external = False
        documentation = ""
        metadata: dict[str, object] = {}
        instances: list[Instance] = []
        connections: list[Connection] = []
        while not self._at("}"):
            token = self._peek()
            if token[:1] not in _IDENT_START:
                raise self._error(
                    f"expected an implementation item, got {self._describe(token)}"
                )
            if token == "external":
                self._pos += 1
                self._expect(";")
                external = True
            elif token == "doc":
                self._pos += 1
                documentation = self._expect_string()
                self._expect(";")
            elif token == "meta":
                self._pos += 1
                metadata = self._parse_dict_arg("meta")
                self._expect(";")
            elif token == "instance":
                self._pos += 1
                instance_name = self._expect_ident("the instance name")
                self._expect("of")
                inner = self._expect_ident("the instantiated implementation name")
                instance_meta: dict[str, object] = {}
                if self._at("meta"):
                    self._pos += 1
                    instance_meta = self._parse_dict_arg("meta")
                self._expect(";")
                instances.append(
                    Instance(name=instance_name, implementation=inner, metadata=instance_meta)
                )
            elif token == "connect":
                self._pos += 1
                connections.append(self._parse_connection())
            else:
                raise self._error(
                    f"expected 'external', 'doc', 'meta', 'instance', 'connect' "
                    f"or '}}', got {token!r}"
                )
        self._expect("}")
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
        self._expect("=>")
        sink = self._parse_portref()
        logical_type: Optional[LogicalType] = None
        name = ""
        structural = False
        synthesized = False
        if self._at("type"):
            self._pos += 1
            logical_type = self.parse_type()
        if self._at("name"):
            self._pos += 1
            name = self._expect_string()
        if self._at("structural"):
            self._pos += 1
            structural = True
        if self._at("synthesized"):
            self._pos += 1
            synthesized = True
        self._expect(";")
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
        if self._at("."):
            self._pos += 1
            return PortRef(port=self._expect_ident("a port name"), instance=first)
        return PortRef(port=first)


def _check_format_version(text: str, filename: str) -> None:
    # The stamp is the document's first line; the same words in a later
    # comment or string are not a format claim.
    match = _VERSION_RE.match(text)
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
