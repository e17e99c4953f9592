"""Unit tests for identifier sanitisation and template-name mangling."""

import itertools
import random
import re

import pytest

from repro.spec.logical_types import Bit, Group, Stream
from repro.utils.names import _VHDL_KEYWORDS, mangle, render_argument, sanitize_identifier, unique_namer

_REFERENCE_IDENT_RE = re.compile(r"[^A-Za-z0-9_]")


def _reference_sanitize_identifier(name: str, keyword_suffix: bool = True) -> str:
    """``sanitize_identifier`` before its fast path, verbatim."""
    cleaned = _REFERENCE_IDENT_RE.sub("_", name)
    cleaned = re.sub(r"_+", "_", cleaned).strip("_")
    if not cleaned:
        cleaned = "anon"
    if cleaned[0].isdigit():
        cleaned = "_" + cleaned
    if keyword_suffix and cleaned.lower() in _REFERENCE_VHDL_KEYWORDS:
        cleaned += "_i"
    return cleaned


_REFERENCE_VHDL_KEYWORDS = frozenset(
    """
    abs access after alias all and architecture array assert attribute begin
    block body buffer bus case component configuration constant disconnect
    downto else elsif end entity exit file for function generate generic group
    guarded if impure in inertial inout is label library linkage literal loop
    map mod nand new next nor not null of on open or others out package port
    postponed procedure process pure range record register reject rem report
    return rol ror select severity signal shared sla sll sra srl subtype then
    to transport type unaffected units until use variable wait when while with
    xnor xor
    """.split()
)


def _name_corpus() -> list[str]:
    """Names covering every branch of the sanitizer, clean and not."""
    pieces = ["a", "Z", "x1", "9", "_", "__", "é", "ß", "ǅ", "٣", "²", "Ⅻ", "-", " ", "(", ".", ""]
    names = ["", "_", "___", "anon", "a", "A1", "adder_32", "Stream(Bit(8))", "8bit", "_8bit"]
    names += ["".join(combo) for combo in itertools.product(pieces, repeat=3)]
    for keyword in sorted(_REFERENCE_VHDL_KEYWORDS):
        mixed = "".join(c.upper() if i % 2 else c for i, c in enumerate(keyword))
        names += [keyword, keyword.upper(), mixed, f"_{keyword}_", f"{keyword}__x", f"{mixed}!"]
    rng = random.Random(20261017)
    alphabet = "abcXYZ0189____ -.()éñ٣²\u00a0\t"
    names += ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12))) for _ in range(2000)]
    return names


class TestSanitizeIdentifier:
    def test_plain_name_unchanged(self):
        assert sanitize_identifier("adder_32") == "adder_32"

    def test_special_characters_become_underscores(self):
        assert sanitize_identifier("Stream(Bit(8))") == "Stream_Bit_8"

    def test_leading_digit_prefixed(self):
        assert sanitize_identifier("8bit").startswith("_")

    def test_vhdl_keyword_suffixed(self):
        assert sanitize_identifier("signal") == "signal_i"
        assert sanitize_identifier("entity") == "entity_i"

    def test_empty_becomes_anon(self):
        assert sanitize_identifier("!!!") == "anon"

    def test_consecutive_underscores_collapsed(self):
        assert "__" not in sanitize_identifier("a!!b")

    def test_keyword_table_matches_reference(self):
        assert _VHDL_KEYWORDS == _REFERENCE_VHDL_KEYWORDS

    @pytest.mark.parametrize("keyword_suffix", [True, False])
    def test_matches_reference_over_generated_names(self, keyword_suffix):
        names = _name_corpus()
        unchanged = 0
        for name in names:
            expected = _reference_sanitize_identifier(name, keyword_suffix)
            assert sanitize_identifier(name, keyword_suffix) == expected, name
            unchanged += expected == name
        # Both the fast path (clean names) and the rewrite path are covered.
        assert 100 < unchanged < len(names) - 100


class TestRenderArgument:
    def test_bool(self):
        assert render_argument(True) == "true"
        assert render_argument(False) == "false"

    def test_int(self):
        assert render_argument(42) == "42"
        assert render_argument(-3) == "m3"

    def test_float(self):
        assert render_argument(0.5) == "0p5"

    def test_string_lowercased(self):
        assert render_argument("MED BAG") == "med_bag"

    def test_logical_type_uses_mangle_hook(self):
        stream = Stream.new(Bit(8), dimension=1)
        assert render_argument(stream) == "stream_bit_8_d1"


class TestMangle:
    def test_no_arguments(self):
        assert mangle("duplicator") == "duplicator"

    def test_arguments_are_position_tagged(self):
        name = mangle("dup", (8, 2))
        assert "0_8" in name and "1_2" in name

    def test_distinct_arguments_distinct_names(self):
        assert mangle("adder", (Bit(8),)) != mangle("adder", (Bit(16),))

    def test_same_arguments_same_name(self):
        group = Group.of("G", a=Bit(4))
        assert mangle("x", (group, 3)) == mangle("x", (group, 3))

    def test_mangled_name_is_sanitized(self):
        name = mangle("dup", (Stream.new(Bit(8)),))
        assert "__" not in name
        assert "(" not in name


class TestUniqueNamer:
    def test_names_are_unique(self):
        namer = unique_namer()
        names = {namer("x") for _ in range(10)}
        assert len(names) == 10

    def test_hint_used_as_base(self):
        namer = unique_namer()
        assert namer("dup_port").startswith("dup_port")

    def test_fallback_prefix(self):
        namer = unique_namer("sugar")
        assert namer(None).startswith("sugar")
