"""Unit tests for source locations and spans."""

import pytest

from repro.utils.source import SourceFile, SourceLocation, unknown_span


class TestSourceLocation:
    def test_ordering(self):
        assert SourceLocation(1, 5) < SourceLocation(2, 1)
        assert SourceLocation(3, 2) < SourceLocation(3, 10)

    def test_str(self):
        assert str(SourceLocation(4, 7)) == "4:7"


class TestSourceFile:
    def test_offset_to_location_first_line(self):
        source = SourceFile("hello\nworld\n", "demo.td")
        assert source.location(0) == SourceLocation(1, 1)
        assert source.location(4) == SourceLocation(1, 5)

    def test_offset_to_location_second_line(self):
        source = SourceFile("hello\nworld\n", "demo.td")
        assert source.location(6) == SourceLocation(2, 1)
        assert source.location(10) == SourceLocation(2, 5)

    def test_offset_clamping(self):
        source = SourceFile("ab", "demo.td")
        assert source.location(-5) == SourceLocation(1, 1)
        assert source.location(100) == SourceLocation(1, 3)

    def test_span_filename(self):
        source = SourceFile("streamlet x {}", "design.td")
        span = source.span(0, 9)
        assert span.filename == "design.td"
        assert span.start == SourceLocation(1, 1)
        assert span.end == SourceLocation(1, 10)

    def test_line_text(self):
        source = SourceFile("first\nsecond\nthird", "f")
        assert source.line_text(2) == "second"
        assert source.line_text(99) == ""

    def test_num_lines(self):
        assert SourceFile("", "f").num_lines() == 0
        assert SourceFile("a\nb\nc", "f").num_lines() == 3

    def test_snippet_contains_caret(self):
        source = SourceFile("const x = 1;\nconst y = oops;", "f")
        span = source.span(source.text.index("oops"), source.text.index("oops") + 4)
        snippet = source.snippet(span)
        assert "const y = oops;" in snippet
        assert "^" in snippet


class TestSourceSpan:
    def test_merge_takes_extremes(self):
        source = SourceFile("abcdefgh\nabcdefghij", "f")
        a = source.span(0, 4)  # 1:1 .. 1:5
        b = source.span(11, 17)  # 2:3 .. 2:9
        merged = a.merge(b)
        assert merged.start == SourceLocation(1, 1)
        assert merged.end == SourceLocation(2, 9)

    def test_str_points_at_start(self):
        span = SourceFile("\n\nabcdefghij", "x.td").span(5, 10)  # 3:4 .. 3:9
        assert str(span) == "x.td:3:4"

    def test_unknown_span(self):
        span = unknown_span()
        assert span.start.line == 0
