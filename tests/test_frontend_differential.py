"""Differential safety net for the optimized frontend.

The lexer was rewritten around first-character dispatch tables
(``repro.lang.lexer``), the AST/token classes gained ``slots=True`` and
interned identifier strings, and source spans became two character offsets
plus a shared line index, with line and column computed on demand.  None
of that may change *behaviour*: this suite pins the optimized frontend
against byte-for-byte copies of the pre-optimization lexer (kept below as
:func:`_reference_tokenize`) and of the span, location, file and token
classes it built its tokens with (line and column computed eagerly, per
token), and asserts

* identical token streams (kind, text, value, ``str(span)`` and the
  line/column of both span ends) over the stdlib, the TPC-H query
  sources, a fuzzed design corpus and a bank of tricky and non-ASCII
  literals -- including the edge cases the dispatch rewrite special-cases;
* identical failures (exception type, stage, message, ``render()``,
  ``str(span)`` and the span's line/column ends) for every lex, parse,
  evaluate and DRC failure of a hand-written bank and of fuzzed breakages
  of the corpus, with the reference lexer's tokens -- and so its spans --
  monkeypatched into the parser;
* an identical end-to-end pipeline: compiling through the *reference*
  lexer produces the same IR text, stage logs and diagnostics as the
  optimized one.

One divergence is intended: a number literal whose characters
``str.isdigit`` accepts but ``int``/``float`` reject (``1²``) made the
reference leak a bare ``ValueError``; the optimized lexer raises a
:class:`~repro.errors.TydiSyntaxError` at the literal's span instead.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

import pytest

from repro.errors import TydiError, TydiSyntaxError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind
from repro.queries import ALL_QUERIES
from repro.stdlib.source import STDLIB_SOURCE
from repro.testing import build_random_design

# ---------------------------------------------------------------------------
# The pre-offset source spans and tokens, verbatim from ``repro.utils.source``
# and ``repro.lang.tokens``: every span computes its line and column when it
# is built.  These names shadow nothing -- this module imports neither live
# class -- so the reference lexer below never touches the code under test.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True, slots=True)
class SourceLocation:
    """A single point in a source file (1-based line and column)."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """A half-open byte range ``[start, end)`` within a named source file."""

    filename: str
    start: SourceLocation
    end: SourceLocation

    def __str__(self) -> str:
        return f"{self.filename}:{self.start}"

    def merge(self, other: "SourceSpan") -> "SourceSpan":
        """Return the smallest span covering both ``self`` and ``other``."""
        start = min(self.start, other.start)
        end = max(self.end, other.end)
        return SourceSpan(self.filename, start, end)


class SourceFile:
    """A named source text with O(log n) offset → line/column conversion."""

    def __init__(self, text: str, filename: str = "<string>") -> None:
        self.text = text
        self.filename = filename
        # Precompute the byte offset of the start of every line so that
        # offset→location lookups are a bisect rather than a scan.
        self._line_starts = [0]
        newline = text.find("\n")
        while newline >= 0:
            self._line_starts.append(newline + 1)
            newline = text.find("\n", newline + 1)

    def location(self, offset: int) -> SourceLocation:
        """Convert a character offset into a 1-based :class:`SourceLocation`."""
        if offset < 0:
            offset = 0
        if offset > len(self.text):
            offset = len(self.text)
        line_index = bisect.bisect_right(self._line_starts, offset) - 1
        column = offset - self._line_starts[line_index] + 1
        return SourceLocation(line=line_index + 1, column=column)

    def span(self, start_offset: int, end_offset: int) -> SourceSpan:
        """Build a :class:`SourceSpan` from two character offsets."""
        return SourceSpan(
            filename=self.filename,
            start=self.location(start_offset),
            end=self.location(end_offset),
        )


@dataclass(frozen=True, slots=True)
class Token:
    """A single lexed token with its source span."""

    kind: TokenKind
    text: str
    span: SourceSpan
    value: object = None

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.IDENT and self.text == word

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})"


# ---------------------------------------------------------------------------
# The pre-optimization lexer, verbatim (longest-first linear operator scan).
# This is the behavioural reference the dispatch-table lexer must match.
# ---------------------------------------------------------------------------

_REFERENCE_OPERATORS: list[tuple[str, TokenKind]] = [
    ("=>", TokenKind.ARROW),
    ("->", TokenKind.RANGE),
    ("==", TokenKind.EQ),
    ("!=", TokenKind.NEQ),
    ("<=", TokenKind.LE),
    (">=", TokenKind.GE),
    ("&&", TokenKind.AND),
    ("||", TokenKind.OR),
    ("{", TokenKind.LBRACE),
    ("}", TokenKind.RBRACE),
    ("(", TokenKind.LPAREN),
    (")", TokenKind.RPAREN),
    ("[", TokenKind.LBRACKET),
    ("]", TokenKind.RBRACKET),
    ("<", TokenKind.LANGLE),
    (">", TokenKind.RANGLE),
    (",", TokenKind.COMMA),
    (";", TokenKind.SEMICOLON),
    (":", TokenKind.COLON),
    (".", TokenKind.DOT),
    ("@", TokenKind.AT),
    ("=", TokenKind.ASSIGN),
    ("+", TokenKind.PLUS),
    ("-", TokenKind.MINUS),
    ("*", TokenKind.STAR),
    ("/", TokenKind.SLASH),
    ("%", TokenKind.PERCENT),
    ("^", TokenKind.CARET),
    ("!", TokenKind.NOT),
]


def _reference_tokenize(text: str, filename: str = "<string>") -> list[Token]:
    source = SourceFile(text, filename)
    tokens: list[Token] = []
    i = 0
    n = len(text)

    while i < n:
        ch = text[i]

        if ch in " \t\r\n":
            i += 1
            continue

        if text.startswith("//", i):
            end = text.find("\n", i)
            i = n if end == -1 else end + 1
            continue

        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end == -1:
                raise TydiSyntaxError("unterminated block comment", source.span(i, n))
            i = end + 2
            continue

        if ch in "\"'":
            quote = ch
            j = i + 1
            chars: list[str] = []
            while j < n and text[j] != quote:
                if text[j] == "\\" and j + 1 < n:
                    escape = text[j + 1]
                    chars.append({"n": "\n", "t": "\t", "\\": "\\", quote: quote}.get(escape, escape))
                    j += 2
                else:
                    chars.append(text[j])
                    j += 1
            if j >= n:
                raise TydiSyntaxError("unterminated string literal", source.span(i, n))
            tokens.append(
                Token(TokenKind.STRING, text[i : j + 1], source.span(i, j + 1), "".join(chars))
            )
            i = j + 1
            continue

        if ch.isdigit():
            j = i
            is_float = False
            while j < n and (text[j].isdigit() or text[j] == "_"):
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                is_float = True
                j += 1
                while j < n and (text[j].isdigit() or text[j] == "_"):
                    j += 1
            if j < n and text[j] in "eE" and (
                (j + 1 < n and text[j + 1].isdigit())
                or (j + 2 < n and text[j + 1] in "+-" and text[j + 2].isdigit())
            ):
                is_float = True
                j += 1
                if text[j] in "+-":
                    j += 1
                while j < n and text[j].isdigit():
                    j += 1
            literal = text[i:j].replace("_", "")
            if is_float:
                tokens.append(Token(TokenKind.FLOAT, text[i:j], source.span(i, j), float(literal)))
            else:
                tokens.append(Token(TokenKind.INT, text[i:j], source.span(i, j), int(literal)))
            i = j
            continue

        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(Token(TokenKind.IDENT, word, source.span(i, j), word))
            i = j
            continue

        matched = False
        for literal, kind in _REFERENCE_OPERATORS:
            if text.startswith(literal, i):
                tokens.append(Token(kind, literal, source.span(i, i + len(literal))))
                i += len(literal)
                matched = True
                break
        if matched:
            continue

        raise TydiSyntaxError(f"unexpected character {ch!r}", source.span(i, i + 1))

    tokens.append(Token(TokenKind.EOF, "", source.span(n, n)))
    return tokens


# ---------------------------------------------------------------------------
# Corpora
# ---------------------------------------------------------------------------


def _fuzzed_designs(count: int = 12) -> list[tuple[str, str]]:
    rng = random.Random(20260808)
    sources: list[tuple[str, str]] = []
    for _ in range(count):
        sources.extend(build_random_design(rng))
    return sources


TRICKY_SOURCES = [
    "x = 1_000_000; y = 3.14; z = 1e9; w = 2.5e-3; v = 10E+2;",
    "a=1..5; b = 0.5.c; d = 9_;",  # dots vs float boundaries
    's = "hi\\n\\t\\\\\\"there"; t = \'it\\\'s\';',
    "a=>b; a->b; a==b; a!=b; a<=b; a>=b; a&&b; a||b; a<b>c;",
    "impl/*inline*/x of// trailing\ny {}",
    "/* multi\nline\ncomment */ streamlet s { }",
    "αβγ = 42; café_au_lait = δ;",  # non-ASCII identifiers
    "x = ١٢٣; munge = ٣.٠;",  # non-ASCII (Arabic-Indic) digits
    "_underscore __dunder x_1_y",
    "",  # empty source: EOF only
    "   \t\r\n  ",  # whitespace only
    # Columns after non-ASCII text, CRLF line ends and tabs.
    "const π = 3;\n// ünïcödé\nconst ψ = π * 2;\r\n\tconst ω=ψ;",
    # A string literal spanning lines: its span ends on a later line.
    'x = "naïve\nmulti\nline"; y = 1;\n',
    "\n\n\n   trailing_after_blank_lines",
]

INVALID_SOURCES = [
    "x = ?",
    "a # b",
    '"unterminated',
    "'also unterminated",
    "/* never closed",
    "x = \x00",
    "const a = 1;\n  const b = ?;",
    "x = \"ok\";\n\n   'never closed\nacross lines",
    "/* ok */\nconst é = 1; /* never",
    "const ü = 2;\n\t\t$",
]

#: Number literals ``str.isdigit`` accepts but ``int``/``float`` reject:
#: the reference leaks a ``ValueError``, the optimized lexer raises a
#: syntax error at the literal (the one intended divergence).
UNREADABLE_NUMBERS = [
    ("const x = 1²;", "1²"),
    ("²", "²"),
    ("const a = 0;\nconst y = 1.5e²;", "1.5e²"),
    ("const z = ³;", "³"),
]


def _corpus() -> list[tuple[str, str]]:
    sources: list[tuple[str, str]] = [(STDLIB_SOURCE, "std.td")]
    for query in ALL_QUERIES:
        sources.extend(query.sources())
    sources.extend(_fuzzed_designs())
    sources.extend((text, f"tricky{i}.td") for i, text in enumerate(TRICKY_SOURCES))
    return sources


def _span_view(span) -> tuple:
    """All a diagnostic shows of a span: its text and both ends' line and column."""
    return (str(span), (span.start.line, span.start.column), (span.end.line, span.end.column))


def _token_view(token) -> tuple:
    return (token.kind, token.text, type(token.value), token.value, *_span_view(token.span))


def _failure_view(exc: TydiError) -> tuple:
    span = None if exc.span is None else _span_view(exc.span)
    return (type(exc), exc.stage, exc.message, exc.render(), span)


# ---------------------------------------------------------------------------
# Token-stream equivalence
# ---------------------------------------------------------------------------


class TestTokenStreams:
    def test_corpus_token_streams_identical(self):
        corpus = _corpus()
        assert len(corpus) > 40  # stdlib + 5 queries + fuzz + tricky bank
        for text, filename in corpus:
            optimized = [_token_view(token) for token in tokenize(text, filename)]
            reference = [_token_view(token) for token in _reference_tokenize(text, filename)]
            assert optimized == reference, filename

    def test_invalid_sources_raise_identically(self):
        for text in INVALID_SOURCES:
            with pytest.raises(TydiSyntaxError) as optimized:
                tokenize(text, "bad.td")
            with pytest.raises(TydiSyntaxError) as reference:
                _reference_tokenize(text, "bad.td")
            assert _failure_view(optimized.value) == _failure_view(reference.value), text
            assert str(optimized.value) == str(reference.value)

    def test_unreadable_number_is_a_syntax_error_at_the_literal(self):
        for text, literal in UNREADABLE_NUMBERS:
            with pytest.raises(ValueError):
                _reference_tokenize(text, "bad.td")
            with pytest.raises(TydiSyntaxError) as optimized:
                tokenize(text, "bad.td")
            lo = text.index(literal)
            expected_span = SourceFile(text, "bad.td").span(lo, lo + len(literal))
            error = optimized.value
            assert error.stage == "parse"
            assert error.message == f"invalid number literal {literal!r}"
            assert _span_view(error.span) == _span_view(expected_span)
            assert error.render() == f"{expected_span}: {error.message}"

    def test_operator_tables_cover_reference(self):
        from repro.lang import lexer

        assert {**lexer._TWO_CHAR_OPERATORS, **lexer._ONE_CHAR_OPERATORS} == dict(
            _REFERENCE_OPERATORS
        )


# ---------------------------------------------------------------------------
# End-to-end pipeline equivalence (reference lexer monkeypatched in)
# ---------------------------------------------------------------------------


def _render_result(result) -> tuple:
    """Everything observable about a compile, in comparable form."""
    return (
        result.ir_text(),
        [(s.name, s.detail) for s in result.stages],
        [str(d) for d in result.diagnostics],
        {target: files for target, files in sorted(result.outputs.items())},
    )


def _outcome(sources, options) -> tuple:
    """A compile's rendered result, or what its failure shows."""
    from repro.lang.compile import run_pipeline

    try:
        return ("ok", _render_result(run_pipeline(sources, options)))
    except TydiError as exc:
        return ("error", _failure_view(exc))


_DRC_HEADER = "type byte_t = Stream(Bit(8), d=1);\ntype word_t = Stream(Bit(16), d=1);\n"

#: Hand-written failures of every frontend stage, as (source, options).
FAILING_DESIGNS: list[tuple[str, dict]] = [
    # lex
    ("const a = 1;\nconst b = ?;\n", {}),
    ('streamlet s {\n  i: "never closed in,\n}', {}),
    # parse
    ("streamlet broken {", {}),
    ("const a = (1 + 2;\n", {}),
    ("type t = Stream(Bit(8), d=1);\nstreamlet s {\n    i: t sideways,\n}\n", {}),
    ("impl i of s {\n  instance x(y) z\n}", {}),
    ("streamlet s<n: widget> { }", {}),
    # evaluate: names, types, values and assertions
    ("impl ghost_i of missing_s { }\ntop ghost_i;", {}),
    ("streamlet s {\n  p: mystery_t in,\n}\nimpl i of s {}\ntop i;", {}),
    ("const a = b;\nconst b = a;\nstreamlet s { }\nimpl i of s {}\ntop i;", {}),
    ("type a = b;\ntype b = a;\nstreamlet s { p: a in, }\nimpl i of s {}\ntop i;", {}),
    ("const x = 1;\nconst x = 2;", {}),
    ("const q = 7 /\n   0;\n", {}),
    ("const xs = [1, 2];\nconst y = xs[5];\n", {}),
    ("const y = 2 + unknown_fn(1);\n", {}),
    ("const s = \"a\" - 1;\n", {}),
    ("type t = Stream(Bit(8), d=1, bogus=2);\nstreamlet s { i: t in, }\nimpl i of s {}\ntop i;", {}),
    (
        _DRC_HEADER
        + "streamlet s { i: byte_t in, o: byte_t out, }\n"
        + "impl i of s {\n  assert(1 > 2, \"one is not more\"),\n  i => o,\n}\ntop i;",
        {},
    ),
    (
        _DRC_HEADER
        + "streamlet rep_s<n: int> { input: byte_t in, output: byte_t out [n], }\n"
        + "external impl rep_i<n: int> of rep_s<n>;\n"
        + "streamlet top_s { i: byte_t in, o: byte_t out, }\n"
        + "impl top_i of top_s {\n  instance r(rep_i<\"four\">),\n  i => r.input,\n  r.output[0] => o,\n}\n"
        + "top top_i;",
        {},
    ),
    (_DRC_HEADER + "streamlet s { i: byte_t in, o: byte_t out, }\nimpl i of s { i => nowhere, }\ntop i;", {}),
    # DRC: a connection between different types; a fan-out left unsugared
    (_DRC_HEADER + "streamlet s { i: byte_t in, o: word_t out, }\nimpl i of s { i => o, }\ntop i;", {}),
    (
        _DRC_HEADER
        + "streamlet s { a: byte_t in, x: byte_t out, y: byte_t out, }\n"
        + "impl i of s { a => x, a => y, }\ntop i;",
        {"sugaring": False},
    ),
]


def _broken_designs(count: int) -> list[tuple[list[tuple[str, str]], dict]]:
    """Corpus designs with one file truncated, garbled or given an unknown name."""
    import re

    rng = random.Random(20261017)
    designs = [(query.sources(), {"top": query.top}) for query in ALL_QUERIES]
    designs += [(build_random_design(rng), {}) for _ in range(4)]
    broken = []
    for _ in range(count):
        sources, options = rng.choice(designs)
        sources = list(sources)
        index = rng.randrange(len(sources))
        text, filename = sources[index]
        kind = rng.choice(["truncate", "garble", "rename"])
        if kind == "truncate":
            text = text[: rng.randrange(len(text))]
        elif kind == "garble":
            at = rng.randrange(len(text) + 1)
            text = text[:at] + rng.choice("?#$`~\\") + text[at:]
        else:
            word = rng.choice(list(re.finditer(r"[A-Za-z_]\w*", text)))
            text = text[: word.start()] + "undefined_" + word.group() + text[word.end() :]
        sources[index] = (text, filename)
        broken.append((sources, options))
    return broken


class TestPipelineDifferential:
    def _compile_both(self, monkeypatch, sources, options):
        from repro.lang import compile as compile_mod
        from repro.lang import parser

        compile_mod._parsed_stdlib.cache_clear()
        optimized = _outcome(sources, options)
        monkeypatch.setattr(parser, "tokenize", _reference_tokenize)
        compile_mod._parsed_stdlib.cache_clear()
        reference = _outcome(sources, options)
        monkeypatch.undo()
        compile_mod._parsed_stdlib.cache_clear()
        return optimized, reference

    def test_fuzzed_designs_compile_identically(self, monkeypatch):
        from repro.lang.compile import CompileOptions

        rng = random.Random(97)
        for _ in range(4):
            sources = build_random_design(rng)
            optimized, reference = self._compile_both(
                monkeypatch, sources, CompileOptions(targets=("vhdl",))
            )
            assert optimized[0] == "ok"
            assert optimized == reference

    def test_tpch_query_compiles_identically(self, monkeypatch):
        from repro.lang.compile import CompileOptions

        query = ALL_QUERIES[0]
        optimized, reference = self._compile_both(
            monkeypatch, query.sources(), CompileOptions(top=query.top)
        )
        assert optimized[0] == "ok"
        assert optimized == reference

    def test_failures_render_identically(self, monkeypatch):
        """Every lex, parse, evaluate and DRC failure shows the same type,
        stage, message, rendering and span through either lexer's spans."""
        from repro.lang.compile import CompileOptions

        cases = [([(text, "bad.td")], options) for text, options in FAILING_DESIGNS]
        cases += _broken_designs(48)
        stages: set[str] = set()
        for sources, options in cases:
            optimized, reference = self._compile_both(
                monkeypatch, sources, CompileOptions(**options)
            )
            assert optimized == reference, sources
            if optimized[0] == "error":
                stages.add(optimized[1][1])
        assert {"parse", "resolve", "type", "evaluate", "assert", "drc"} <= stages
