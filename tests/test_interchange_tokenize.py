"""Differential test: the ``.tir`` tokenizers against the first one.

Two tokenizers must produce the same token stream, and raise the same
:class:`~repro.errors.TydiIngestError` messages and spans, as the first
tokenizer, kept below as :func:`_reference_tokenize` (one match per token
*or* gap, and a failed match for a bad character):

* the one-match-per-token tokenizer, which skips whitespace and comments
  inside each token's match, catches bad characters with a catch-all
  group and builds offset-carrying ``_Token`` objects (kept verbatim with
  the previous parser in ``test_interchange_ingest.py``);
* the text-only tokenizer :func:`repro.interchange.parse._tokenize`, which
  returns token texts from one ``findall``.  Here each token's kind comes
  from :func:`~repro.interchange.parse._kind` and its offsets from
  ``finditer`` over the same pattern, as the parser recovers them for an
  error's span.
"""

from __future__ import annotations

import random
import re

import pytest

from repro.errors import TydiIngestError
from repro.interchange import emit_document
from repro.interchange.parse import _TOKEN_RE, _kind, _tokenize
from repro.lang.compile import compile_sources
from repro.queries import ALL_QUERIES
from repro.testing import build_random_design
from repro.utils.source import SourceFile
from test_interchange_ingest import _tokenize as _one_match_tokenize

_REFERENCE_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>//[^\n]*)
    | (?P<number>\d+(?:\.\d+)*(?:[eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>"(?:\\.|[^"\\])*")
    | (?P<punct>=>|[{}()\[\]:;,=@.\-])
    """,
    re.VERBOSE,
)


def _reference_tokenize(source: SourceFile) -> list[tuple[str, str, int, int]]:
    text = source.text
    tokens = []
    pos = 0
    while pos < len(text):
        match = _REFERENCE_TOKEN_RE.match(text, pos)
        if match is None:
            span = source.span(pos, pos + 1)
            if text[pos] == '"':
                raise TydiIngestError("unterminated string literal", span)
            raise TydiIngestError(f"unexpected character {text[pos]!r}", span)
        pos = match.end()
        kind = match.lastgroup
        if kind in ("ws", "comment"):
            continue
        tokens.append((kind, match.group(), match.start(), match.end()))
    tokens.append(("eof", "", len(text), len(text)))
    return tokens


def _text_only_tokenize(source: SourceFile) -> list[tuple[str, str, int, int]]:
    texts = _tokenize(source.text, source.filename)
    tokens = []
    for text, match in zip(texts, _TOKEN_RE.finditer(source.text)):
        assert match.group(1) == text
        tokens.append((_kind(text), text, *match.span(1)))
        if not text:  # the parser reads nothing past the first end token
            break
    return tokens


TOKENIZERS = (_one_match_tokenize, _text_only_tokenize)


def _outcome(tokenize, text: str):
    source = SourceFile(text, "doc.tir")
    try:
        tokens = tokenize(source)
    except TydiIngestError as exc:
        return ("error", exc.message, str(exc.span), exc.span.start, exc.span.end)
    return [token if isinstance(token, tuple) else (token.kind, token.text, token.start, token.end) for token in tokens]


def _documents() -> list[str]:
    projects = [compile_sources(build_random_design(random.Random(seed))).project for seed in range(6)]
    projects.append(ALL_QUERIES[-1].compile().project)
    return [emit_document(project) for project in projects]


#: Hand-written edge cases: gaps at either end, comments without a final
#: newline, every token kind, and bad characters or unterminated strings
#: at the start, middle and end of a line (two of them: the first one
#: counts), non-ASCII decimal digits (a
#: number), a superscript digit (a bad character) and a no-break space
#: (whitespace).
TRICKY = [
    "",
    " ",
    "\n\n",
    "// only a comment",
    "// comment\n",
    "project \"p\";",
    "project \"p\";   \n  // trailing comment",
    "x => y.z; a-1 2.5e-3 1.2.3 {}[]():;,=@",
    "   leading spaces then ident",
    "\"escaped \\\" quote\" \"\"",
    "#",
    "ok #",
    "ok\n  $ bad",
    "a / b",
    "/",
    "\"unterminated",
    "ok \"unterminated\nnext line",
    "tab\tseparated\r\nwindows",
    "café",
    "é",
    "x y",
    "line1\nline2\n   ~",
    "9abc",
    "-",
    "Bit(٣)",
    "x٣ ٣.٣e٣",
    "²",
    "1\u00a02",
    "ok # then $",
    '"unterminated $',
]


@pytest.mark.parametrize("text", TRICKY, ids=range(len(TRICKY)))
def test_tricky_inputs_tokenize_like_the_reference(text):
    expected = _outcome(_reference_tokenize, text)
    for tokenize in TOKENIZERS:
        assert _outcome(tokenize, text) == expected


def test_emitted_documents_tokenize_like_the_reference():
    for document in _documents():
        expected = _outcome(_reference_tokenize, document)
        for tokenize in TOKENIZERS:
            assert _outcome(tokenize, document) == expected


def test_corrupted_documents_fail_like_the_reference():
    """A bad character or a cut string anywhere gives the same error and span."""
    document = _documents()[0]
    rng = random.Random(7)
    for _ in range(40):
        position = rng.randrange(len(document))
        for insert in ("$", '"', "§", "٣"):
            broken = document[:position] + insert + document[position:]
            expected = _outcome(_reference_tokenize, broken)
            for tokenize in TOKENIZERS:
                assert _outcome(tokenize, broken) == expected
