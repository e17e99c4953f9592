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

All failures raise :class:`repro.errors.TydiIngestError` (stage
``ingest``) carrying the document location of the offending token -- the
same ``file:line:col`` envelope shape the Tydi-lang frontend produces, so
served ingest errors are structured like every other pipeline stage's.
"""

from __future__ import annotations

import json
import re
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
from repro.utils.source import SourceFile

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
