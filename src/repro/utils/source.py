"""Source-text bookkeeping: files, line indexes, locations and spans.

The Tydi-lang compiler reports every diagnostic against a location in the
original source text (file name, 1-based line, 1-based column).  The lexer
produces a :class:`SourceSpan` for every token and the parser propagates the
spans onto AST nodes, mirroring what the Rust/Pest implementation does with
pest's ``Span`` type: a span is the half-open character-offset range
``[lo, hi)`` plus a reference to its file's shared :class:`LineIndex` (the
file name and the offset at which each line starts, but not the text).

Line and column are computed on demand -- by ``span.start``, ``span.end``
and ``str(span)``, that is when a diagnostic is rendered -- with one bisect
over the line starts.  Lexing, parsing and merging spans never compute them.
"""

from __future__ import annotations

import bisect
from dataclasses import FrozenInstanceError, dataclass


@dataclass(frozen=True, order=True, slots=True)
class SourceLocation:
    """A single point in a source file (1-based line and column)."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class LineIndex:
    """A file name and the character offset at which each of its lines starts.

    Every span of one file shares one index, so a pickled AST stores it
    once.  An index with no lines (see :func:`unknown_span`) maps every
    offset to line 0, column 0.  Immutable like :class:`SourceSpan`.
    """

    __slots__ = ("filename", "starts")
    __match_args__ = ("filename", "starts")

    filename: str
    starts: tuple[int, ...]

    def __init__(self, filename: str, starts: tuple[int, ...]) -> None:
        _set_index_filename(self, filename)
        _set_index_starts(self, starts)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self is other or (self.filename == other.filename and self.starts == other.starts)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.filename, len(self.starts)))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(filename={self.filename!r}, lines={len(self.starts)})"

    def __reduce__(self) -> tuple:
        return (self.__class__, (self.filename, self.starts))

    def location(self, offset: int) -> SourceLocation:
        """The 1-based :class:`SourceLocation` of a character offset."""
        line = bisect.bisect_right(self.starts, offset)
        if not line:
            return SourceLocation(0, 0)
        return SourceLocation(line, offset - self.starts[line - 1] + 1)


class SourceSpan:
    """The half-open character range ``[lo, hi)`` of one source file.

    Immutable: assigning or deleting an attribute raises
    :class:`dataclasses.FrozenInstanceError`.  Two spans are equal when
    their offsets and line indexes are.  ``filename``, ``start`` and ``end``
    are computed from the line index when read.
    """

    __slots__ = ("lo", "hi", "index")
    __match_args__ = ("lo", "hi", "index")

    lo: int
    hi: int
    index: LineIndex

    def __init__(self, lo: int, hi: int, index: LineIndex) -> None:
        _set_lo(self, lo)
        _set_hi(self, hi)
        _set_index(self, index)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.lo == other.lo and self.hi == other.hi and self.index == other.index
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.index.filename))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(lo={self.lo!r}, hi={self.hi!r}, index={self.index!r})"

    def __reduce__(self) -> tuple:
        return (self.__class__, (self.lo, self.hi, self.index))

    def __str__(self) -> str:
        return f"{self.index.filename}:{self.start}"

    @property
    def filename(self) -> str:
        return self.index.filename

    @property
    def start(self) -> SourceLocation:
        return self.index.location(self.lo)

    @property
    def end(self) -> SourceLocation:
        return self.index.location(self.hi)

    def merge(self, other: "SourceSpan") -> "SourceSpan":
        """Return the smallest span covering both ``self`` and ``other``."""
        lo = self.lo
        hi = self.hi
        other_lo = other.lo
        other_hi = other.hi
        return SourceSpan(
            other_lo if other_lo < lo else lo, other_hi if other_hi > hi else hi, self.index
        )


# ``__setattr__`` refuses every assignment, so ``__init__`` fills the slots
# through their member descriptors.
_set_index_filename = LineIndex.filename.__set__
_set_index_starts = LineIndex.starts.__set__
_set_lo = SourceSpan.lo.__set__
_set_hi = SourceSpan.hi.__set__
_set_index = SourceSpan.index.__set__


class SourceFile:
    """A named source text and its :class:`LineIndex`."""

    def __init__(self, text: str, filename: str = "<string>") -> None:
        self.text = text
        self.filename = filename
        # Precompute the offset of the start of every line so that
        # offset→location lookups are a bisect rather than a scan.
        starts = [0]
        newline = text.find("\n")
        while newline >= 0:
            starts.append(newline + 1)
            newline = text.find("\n", newline + 1)
        self.index = LineIndex(filename, tuple(starts))

    def location(self, offset: int) -> SourceLocation:
        """Convert a character offset into a 1-based :class:`SourceLocation`."""
        return self.index.location(self._clamp(offset))

    def span(self, start_offset: int, end_offset: int) -> SourceSpan:
        """Build a :class:`SourceSpan` from two character offsets."""
        return SourceSpan(self._clamp(start_offset), self._clamp(end_offset), self.index)

    def _clamp(self, offset: int) -> int:
        if offset < 0:
            return 0
        return min(offset, len(self.text))

    def line_text(self, line: int) -> str:
        """Return the text of a 1-based line (without trailing newline)."""
        starts = self.index.starts
        if line < 1 or line > len(starts):
            return ""
        start = starts[line - 1]
        end = starts[line] - 1 if line < len(starts) else len(self.text)
        return self.text[start:end].rstrip("\n")

    def num_lines(self) -> int:
        if not self.text:
            return 0
        return len(self.index.starts)

    def snippet(self, span: SourceSpan, context: int = 0) -> str:
        """Render the lines covered by ``span`` with a caret under the start."""
        lines = []
        start = span.start
        first = max(1, start.line - context)
        last = min(self.num_lines() or 1, span.end.line + context)
        for line_no in range(first, last + 1):
            lines.append(f"{line_no:>5} | {self.line_text(line_no)}")
            if line_no == start.line:
                lines.append("      | " + " " * (start.column - 1) + "^")
        return "\n".join(lines)


def unknown_span(filename: str = "<unknown>") -> SourceSpan:
    """A placeholder span for synthesized constructs (e.g. sugaring output)."""
    return SourceSpan(0, 0, LineIndex(filename, ()))
