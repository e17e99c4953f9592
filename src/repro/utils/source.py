"""Source-text bookkeeping: files, locations and spans.

The Tydi-lang compiler reports every diagnostic against a location in the
original source text (file name, 1-based line, 1-based column).  The lexer
produces a :class:`SourceSpan` for every token and the parser propagates the
spans onto AST nodes, mirroring what the Rust/Pest implementation does with
pest's ``Span`` type.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional


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

    def line_text(self, line: int) -> str:
        """Return the text of a 1-based line (without trailing newline)."""
        if line < 1 or line > len(self._line_starts):
            return ""
        start = self._line_starts[line - 1]
        end = self._line_starts[line] - 1 if line < len(self._line_starts) else len(self.text)
        return self.text[start:end].rstrip("\n")

    def num_lines(self) -> int:
        if not self.text:
            return 0
        return len(self._line_starts)

    def snippet(self, span: SourceSpan, context: int = 0) -> str:
        """Render the lines covered by ``span`` with a caret under the start."""
        lines = []
        first = max(1, span.start.line - context)
        last = min(self.num_lines() or 1, span.end.line + context)
        for line_no in range(first, last + 1):
            lines.append(f"{line_no:>5} | {self.line_text(line_no)}")
            if line_no == span.start.line:
                lines.append("      | " + " " * (span.start.column - 1) + "^")
        return "\n".join(lines)


def unknown_span(filename: str = "<unknown>") -> SourceSpan:
    """A placeholder span for synthesized constructs (e.g. sugaring output)."""
    loc = SourceLocation(0, 0)
    return SourceSpan(filename, loc, loc)
