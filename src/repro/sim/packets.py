"""Data packets travelling over simulated Tydi streams.

A packet carries a Python value (the element data -- for a ``Group`` element
this is a dict of field values) plus the per-dimension ``last`` flags that
close nesting levels, exactly like the physical stream's ``last`` bits.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Iterable


class Packet:
    """One element transfer on a stream.

    Immutable: assigning or deleting an attribute raises
    :class:`dataclasses.FrozenInstanceError`.  Construction, equality,
    hashing, ``repr`` and pickling are those of the frozen dataclass this
    class was; it is a slotted class because the engine builds one per
    push, and a slotted ``__init__`` costs less.
    """

    __slots__ = ("value", "last", "produced_at")
    __match_args__ = ("value", "last", "produced_at")

    value: object
    #: last[i] closes dimension i (0 = innermost); all False for inner elements.
    last: tuple[bool, ...]
    #: The simulated time at which the packet was produced (set by the engine).
    produced_at: int

    def __init__(self, value: object, last: tuple[bool, ...] = (), produced_at: int = 0) -> None:
        _set_value(self, value)
        _set_last(self, last)
        _set_produced_at(self, produced_at)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.value, self.last, self.produced_at) == (
                other.value,
                other.last,
                other.produced_at,
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.last, self.produced_at))

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(value={self.value!r}, "
            f"last={self.last!r}, produced_at={self.produced_at!r})"
        )

    def __reduce__(self) -> tuple:
        return (self.__class__, (self.value, self.last, self.produced_at))

    def closes_outermost(self) -> bool:
        """True when this packet terminates the whole (outermost) sequence."""
        return bool(self.last) and self.last[-1]

    def closes_dimension(self, dimension: int) -> bool:
        return dimension < len(self.last) and self.last[dimension]

    def with_last(self, last: Iterable[bool]) -> "Packet":
        return Packet(value=self.value, last=tuple(last), produced_at=self.produced_at)

    def with_value(self, value: object) -> "Packet":
        return Packet(value=value, last=self.last, produced_at=self.produced_at)


# ``__setattr__`` refuses every assignment, so ``__init__`` fills the slots
# through their member descriptors.
_set_value = Packet.value.__set__
_set_last = Packet.last.__set__
_set_produced_at = Packet.produced_at.__set__


def sequence_to_packets(values: Iterable[object], dimensions: int = 1) -> list[Packet]:
    """Wrap a flat Python sequence into packets of a ``d``-dimensional stream.

    All elements belong to one outer sequence: only the final packet carries
    the ``last`` flags (all dimensions closed).  An empty sequence produces a
    single empty "close" packet so downstream accumulators still terminate.
    """
    values = list(values)
    packets: list[Packet] = []
    if not values:
        return [Packet(value=None, last=tuple(True for _ in range(max(1, dimensions))))]
    for index, value in enumerate(values):
        is_last = index == len(values) - 1
        last = tuple(is_last for _ in range(max(1, dimensions)))
        packets.append(Packet(value=value, last=last))
    return packets


def packets_to_sequence(packets: Iterable[Packet]) -> list[object]:
    """Unwrap packets back into the flat list of element values."""
    return [p.value for p in packets if p.value is not None]
