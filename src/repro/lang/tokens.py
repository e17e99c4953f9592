"""Token definitions for the Tydi-lang lexer."""

from __future__ import annotations

import enum
from dataclasses import FrozenInstanceError

from repro.utils.source import SourceSpan


class TokenKind(enum.Enum):
    """All token categories produced by the lexer."""

    # Literals and identifiers
    IDENT = "identifier"
    INT = "integer"
    FLOAT = "float"
    STRING = "string"

    # Punctuation
    LBRACE = "{"
    RBRACE = "}"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    LANGLE = "<"
    RANGLE = ">"
    COMMA = ","
    SEMICOLON = ";"
    COLON = ":"
    DOT = "."
    AT = "@"

    # Operators
    ASSIGN = "="
    ARROW = "=>"
    RANGE = "->"
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    CARET = "^"
    EQ = "=="
    NEQ = "!="
    LE = "<="
    GE = ">="
    AND = "&&"
    OR = "||"
    NOT = "!"

    # End of file
    EOF = "eof"


#: Words with dedicated meaning.  They still lex as IDENT tokens (the parser
#: decides contextually) except where a construct is unambiguous; keeping them
#: listed here lets the parser reject their use as plain identifiers where it
#: would be confusing.
KEYWORDS = frozenset(
    {
        "package",
        "use",
        "const",
        "type",
        "Group",
        "Union",
        "Stream",
        "Bit",
        "Null",
        "streamlet",
        "impl",
        "external",
        "instance",
        "of",
        "in",
        "out",
        "for",
        "if",
        "else",
        "assert",
        "true",
        "false",
        "int",
        "float",
        "string",
        "bool",
        "clockdomain",
        "simulation",
        "state",
        "on",
        "send",
        "ack",
        "delay",
        "top",
    }
)


class Token:
    """A single lexed token with its source span.

    Immutable: assigning or deleting an attribute raises
    :class:`dataclasses.FrozenInstanceError`.  Construction, equality,
    hashing and ``repr`` are those of the frozen dataclass this class was;
    it is a slotted class because the lexer builds one per token, and a
    slotted ``__init__`` costs less.
    """

    __slots__ = ("kind", "text", "span", "value")
    __match_args__ = ("kind", "text", "span", "value")

    kind: TokenKind
    text: str
    span: SourceSpan
    value: object

    def __init__(self, kind: TokenKind, text: str, span: SourceSpan, value: object = None) -> None:
        _set_kind(self, kind)
        _set_text(self, text)
        _set_span(self, span)
        _set_value(self, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.kind, self.text, self.span, self.value) == (
                other.kind,
                other.text,
                other.span,
                other.value,
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.kind, self.text, self.span, self.value))

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(kind={self.kind!r}, text={self.text!r}, "
            f"span={self.span!r}, value={self.value!r})"
        )

    def __reduce__(self) -> tuple:
        return (self.__class__, (self.kind, self.text, self.span, self.value))

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.IDENT and self.text == word

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})"


# ``__setattr__`` refuses every assignment, so ``__init__`` fills the slots
# through their member descriptors.
_set_kind = Token.kind.__set__
_set_text = Token.text.__set__
_set_span = Token.span.__set__
_set_value = Token.value.__set__
