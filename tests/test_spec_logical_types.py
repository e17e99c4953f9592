"""Unit tests for the Tydi-spec logical type system."""

import pytest

from repro.errors import TydiTypeError
from repro.spec.logical_types import Bit, Group, Null, Stream, Union, bool_stream
from repro.spec.stream_params import Complexity, Direction, Synchronicity, Throughput


class TestNull:
    def test_zero_width(self):
        assert Null().bit_width() == 0

    def test_render(self):
        assert Null().to_tydi() == "Null"

    def test_is_null(self):
        assert Null().is_null()
        assert not Bit(1).is_null()


class TestBit:
    def test_width(self):
        assert Bit(8).bit_width() == 8

    def test_ascii_character_is_8_bits(self):
        # The paper's example: an ASCII character requires Bit(8).
        assert Bit(8).to_tydi() == "Bit(8)"

    def test_zero_width_rejected(self):
        with pytest.raises(TydiTypeError):
            Bit(0)

    def test_negative_width_rejected(self):
        with pytest.raises(TydiTypeError):
            Bit(-3)

    def test_non_integer_rejected(self):
        with pytest.raises(TydiTypeError):
            Bit(2.5)
        with pytest.raises(TydiTypeError):
            Bit(True)


class TestGroup:
    def test_width_is_sum_of_fields(self):
        group = Group.of("Pair", lo=Bit(8), hi=Bit(24))
        assert group.bit_width() == 32

    def test_field_lookup(self):
        group = Group.of("Pair", lo=Bit(8), hi=Bit(24))
        assert group.field("hi").bit_width() == 24
        with pytest.raises(TydiTypeError):
            group.field("missing")

    def test_duplicate_field_rejected(self):
        with pytest.raises(TydiTypeError):
            Group((("a", Bit(1)), ("a", Bit(2))))

    def test_invalid_field_name_rejected(self):
        with pytest.raises(TydiTypeError):
            Group((("not valid", Bit(1)),))

    def test_nested_group_width(self):
        inner = Group.of("Inner", x=Bit(4))
        outer = Group.of("Outer", inner=inner, flag=Bit(1))
        assert outer.bit_width() == 5

    def test_named_rendering(self):
        group = Group.of("AdderInput", data0=Bit(32), data1=Bit(32))
        assert "AdderInput" in group.to_tydi()

    def test_walk_visits_children(self):
        group = Group.of("G", a=Bit(1), b=Bit(2))
        kinds = [t.kind for t in group.walk()]
        assert kinds == ["Group", "Bit", "Bit"]

    def test_field_names_order_preserved(self):
        group = Group.of("G", z=Bit(1), a=Bit(1))
        assert group.field_names() == ["z", "a"]


class TestUnion:
    def test_width_is_max_plus_tag(self):
        union = Union.of("U", small=Bit(4), big=Bit(12))
        # 12 payload bits + 1 tag bit for 2 variants
        assert union.bit_width() == 13

    def test_single_variant_no_tag(self):
        union = Union.of("U", only=Bit(7))
        assert union.tag_width() == 0
        assert union.bit_width() == 7

    def test_four_variants_two_tag_bits(self):
        union = Union.of("U", a=Bit(1), b=Bit(1), c=Bit(1), d=Bit(1))
        assert union.tag_width() == 2

    def test_empty_union_rejected(self):
        with pytest.raises(TydiTypeError):
            Union(())

    def test_variant_lookup(self):
        union = Union.of("U", a=Bit(3), b=Bit(5))
        assert union.variant("b").bit_width() == 5
        with pytest.raises(TydiTypeError):
            union.variant("c")


class TestStream:
    def test_sentence_example(self):
        # The paper: Stream(Bit(8), dimension=2) represents an English sentence.
        sentence = Stream.new(Bit(8), dimension=2)
        assert sentence.dimension == 2
        assert sentence.data_width() == 8

    def test_default_parameters(self):
        stream = Stream.new(Bit(8))
        assert stream.direction is Direction.FORWARD
        assert stream.synchronicity is Synchronicity.SYNC
        assert stream.complexity == Complexity()
        assert float(stream.throughput) == 1.0

    def test_throughput_lanes_multiply_width(self):
        stream = Stream.new(Bit(8), throughput=4)
        assert stream.bit_width() == 32

    def test_fractional_throughput_rounds_up_lanes(self):
        stream = Stream.new(Bit(8), throughput=2.5)
        assert stream.throughput.lanes == 3

    def test_nested_stream_rejected(self):
        inner = Stream.new(Bit(8))
        with pytest.raises(TydiTypeError):
            Stream.new(inner)

    def test_negative_dimension_rejected(self):
        with pytest.raises(TydiTypeError):
            Stream(element=Bit(1), dimension=-1)

    def test_with_element_preserves_parameters(self):
        stream = Stream.new(Bit(8), dimension=2, throughput=2)
        changed = stream.with_element(Bit(16))
        assert changed.element == Bit(16)
        assert changed.dimension == 2
        assert changed.throughput == stream.throughput

    def test_render_includes_dimension(self):
        assert "d=2" in Stream.new(Bit(8), dimension=2).to_tydi()

    def test_contains_stream(self):
        group = Group.of("G", payload=Stream.new(Bit(8)))
        assert group.contains_stream()
        assert not Group.of("G2", payload=Bit(8)).contains_stream()

    def test_string_direction_and_sync(self):
        stream = Stream.new(Bit(1), direction="Reverse", synchronicity="Flatten")
        assert stream.direction is Direction.REVERSE
        assert stream.synchronicity is Synchronicity.FLATTEN

    def test_mangle_name(self):
        assert Stream.new(Bit(8), dimension=1).mangle_name() == "stream_bit_8_d1"


class TestBoolStream:
    def test_shape(self):
        stream = bool_stream()
        assert stream.element == Bit(1)
        assert stream.dimension == 1


class TestRenderedText:
    def _anonymous(self):
        # Anonymous groups are never interned: each call builds a new object.
        return Stream.new(Group.of(a=Bit(8), b=Union.of(x=Bit(2), y=Null())), dimension=2)

    def test_render_is_stable(self):
        stream = self._anonymous()
        assert stream.to_tydi() == stream.to_tydi() == str(stream)
        assert stream.to_tydi() == self._anonymous().to_tydi()

    def test_rendered_text_is_not_pickled(self):
        import pickle

        rendered, fresh = self._anonymous(), self._anonymous()
        text = rendered.to_tydi()
        blob = pickle.dumps(rendered)
        assert blob == pickle.dumps(fresh)
        assert text.encode() not in blob
        loaded = pickle.loads(blob)
        assert loaded == rendered and loaded.to_tydi() == text
