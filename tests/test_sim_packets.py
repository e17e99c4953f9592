"""Unit tests for simulation packets."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from repro.errors import TydiSimulationError
from repro.sim.engine import SimulationTrace
from repro.sim.packets import Packet, packets_to_sequence, sequence_to_packets


class TestPacketContract:
    """What a packet promised as a frozen dataclass: construction, equality,
    hashing, repr, immutability and pickling."""

    def test_keyword_and_positional_construction(self):
        assert Packet(1, (True,), 3) == Packet(value=1, last=(True,), produced_at=3)
        assert Packet(1, (False,)) == Packet(value=1, last=(False,), produced_at=0)
        packet = Packet(value={"a": 1})
        assert (packet.value, packet.last, packet.produced_at) == ({"a": 1}, (), 0)

    def test_missing_value_rejected(self):
        with pytest.raises(TypeError):
            Packet()  # type: ignore[call-arg]

    def test_repr(self):
        assert repr(Packet(1, last=(True,), produced_at=3)) == (
            "Packet(value=1, last=(True,), produced_at=3)"
        )
        assert repr(Packet("x")) == "Packet(value='x', last=(), produced_at=0)"
        assert repr(Packet(None, (False, True))) == (
            "Packet(value=None, last=(False, True), produced_at=0)"
        )

    def test_equality_compares_every_field(self):
        packet = Packet(1, (True,), 3)
        assert packet == Packet(1, (True,), 3)
        assert not packet != Packet(1, (True,), 3)
        assert packet != Packet(2, (True,), 3)
        assert packet != Packet(1, (False,), 3)
        assert packet != Packet(1, (True,), 4)

    def test_not_equal_to_a_tuple_of_its_fields(self):
        assert Packet(1) != (1, (), 0)
        assert not Packet(1) == (1, (), 0)
        assert (1, (), 0) != Packet(1)

    def test_hash_is_the_hash_of_the_fields(self):
        for packet in (Packet(1), Packet("x", (True, False), 7), Packet(None, (True,))):
            assert hash(packet) == hash((packet.value, packet.last, packet.produced_at))
        assert len({Packet(1, (True,)), Packet(1, (True,)), Packet(1, (False,))}) == 2

    def test_unhashable_value_makes_an_unhashable_packet(self):
        with pytest.raises(TypeError):
            hash(Packet({"a": 1}))

    @pytest.mark.parametrize("name", ("value", "last", "produced_at", "other"))
    def test_assignment_and_deletion_raise(self, name):
        packet = Packet(1, (True,), 3)
        with pytest.raises(FrozenInstanceError):
            setattr(packet, name, 2)
        with pytest.raises(FrozenInstanceError):
            delattr(packet, name)
        assert packet == Packet(1, (True,), 3)

    def test_pickle_and_copy_round_trip(self):
        packet = Packet({"k": [1, 2]}, (False, True), 11)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(packet, protocol=protocol))
            assert clone == packet and type(clone) is Packet
        assert copy.copy(packet) == packet
        assert copy.deepcopy(packet) == packet

    def test_pickle_round_trip_inside_an_error_trace(self):
        trace = SimulationTrace(
            outputs={"o": [(4, Packet(7, (True,), 4))]},
            inputs={"i": [(0, Packet(3, (False,))), (1, Packet(None, (True,), 1))]},
            end_time=4,
            events_processed=9,
        )
        error = TydiSimulationError("simulation exceeded 8 events", trace=trace)
        clone = pickle.loads(pickle.dumps(error))
        assert str(clone) == str(error)
        assert clone.trace.outputs == trace.outputs
        assert clone.trace.inputs == trace.inputs
        assert clone.trace.output_packets("o") == [Packet(7, (True,), 4)]


class TestPacket:
    def test_closes_outermost(self):
        assert Packet(1, last=(False, True)).closes_outermost()
        assert not Packet(1, last=(True, False)).closes_outermost()
        assert not Packet(1).closes_outermost()

    def test_closes_dimension(self):
        packet = Packet(1, last=(True, False))
        assert packet.closes_dimension(0)
        assert not packet.closes_dimension(1)
        assert not packet.closes_dimension(5)

    def test_with_value_and_last(self):
        packet = Packet(1, last=(True,))
        assert packet.with_value(9).value == 9
        assert packet.with_value(9).last == (True,)
        assert packet.with_last([False]).last == (False,)


class TestSequenceConversion:
    def test_roundtrip(self):
        values = [3, 1, 4, 1, 5]
        packets = sequence_to_packets(values)
        assert packets_to_sequence(packets) == values

    def test_only_final_packet_closes(self):
        packets = sequence_to_packets([1, 2, 3], dimensions=2)
        assert all(not p.closes_outermost() for p in packets[:-1])
        assert packets[-1].last == (True, True)

    def test_empty_sequence_emits_close_packet(self):
        packets = sequence_to_packets([])
        assert len(packets) == 1
        assert packets[0].value is None
        assert packets[0].closes_outermost()
        assert packets_to_sequence(packets) == []

    @given(st.lists(st.integers(), max_size=30), st.integers(min_value=1, max_value=3))
    def test_roundtrip_property(self, values, dimensions):
        packets = sequence_to_packets(values, dimensions)
        assert packets_to_sequence(packets) == values
        assert packets[-1].closes_outermost()
