"""Tydi-spec logical types: Null, Bit, Group, Union and Stream.

These are the five constructors of the Tydi type system (Table I of the
paper).  Logical types are immutable value objects:

* ``Null`` represents empty data; a stream of Null is optimised away.
* ``Bit(x)`` represents ``x`` hardware bits.
* ``Group(a=..., b=...)`` is a product: total width is the sum of the fields.
* ``Union(a=..., b=...)`` is a sum: width is the max field width plus a tag.
* ``Stream(element, ...)`` wraps a logical type with stream-space properties
  (dimensionality, direction, synchronicity, complexity, throughput, user
  signals and clock domain).

Every logical type knows its data bit width (:meth:`LogicalType.bit_width`)
and can render itself back to Tydi-lang / Tydi-IR syntax (:meth:`to_tydi`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.errors import TydiTypeError
from repro.spec.stream_params import Complexity, Direction, Synchronicity, Throughput
from repro.utils.names import sanitize_identifier


class _InternedTypeMeta(type):
    """Constructor-level hash-consing of logical type instances.

    Logical types are immutable value objects compared *structurally* all
    over the DRC/compat hot path (``strictly_equal`` falls back to deep
    comparison, ``structurally_equal`` always recurses).  Interning at the
    constructor makes structurally identical constructions return the *same*
    object, so those comparisons short-circuit on their ``a is b`` fast
    paths -- without touching ``__eq__``/``__hash__`` semantics at all
    (dataclass-generated structural equality is exactly what keys the
    intern table).

    Properties:

    * validation still runs first -- ``__post_init__`` raises before the
      table is consulted, so invalid constructions never intern;
    * only instances whose :meth:`LogicalType._internable` predicate holds
      are collapsed.  Strict equality (``strictly_equal``) deliberately
      distinguishes *anonymous* structural twins -- two separately written
      ``Group { x: Bit(8) }`` types are different types -- so anonymous
      Groups/Unions (and Streams wrapping them) are never interned.
      Primitives and *named* compound types are safe: dataclass equality
      for those already implies strict equality, so collapsing them cannot
      change any DRC verdict;
    * an instance with an unhashable field (never the case for the five
      spec constructors, but subclasses are free) simply skips interning;
    * the table is bounded: at :data:`_INTERN_CAPACITY` entries it is
      cleared wholesale (interning is an optimisation, not an identity
      guarantee -- ``__eq__`` remains the source of truth);
    * unpickled instances bypass ``__call__`` and are therefore not
      interned; pickle's memo still preserves sharing *within* one payload,
      and equality semantics are unchanged either way.
    """

    _INTERN_CAPACITY = 4096
    _intern_table: dict["LogicalType", "LogicalType"] = {}

    def __call__(cls, *args, **kwargs):
        instance = super().__call__(*args, **kwargs)
        if not instance._internable():
            return instance
        table = _InternedTypeMeta._intern_table
        try:
            canonical = table.get(instance)
        except TypeError:  # unhashable field: skip interning
            return instance
        if canonical is not None:
            return canonical
        if len(table) >= _InternedTypeMeta._INTERN_CAPACITY:
            table.clear()
        table[instance] = instance
        return instance


def clear_intern_table() -> None:
    """Drop every interned logical type (test isolation hook)."""
    _InternedTypeMeta._intern_table.clear()


def intern_table_size() -> int:
    return len(_InternedTypeMeta._intern_table)


class LogicalType(metaclass=_InternedTypeMeta):
    """Base class for all Tydi logical types."""

    #: Short constructor name used in rendering ("Null", "Bit", ...).
    kind: str = "Logical"

    def bit_width(self) -> int:
        """Number of data bits needed to represent one element of this type."""
        raise NotImplementedError

    def to_tydi(self) -> str:
        """Render this type in Tydi-lang / Tydi-IR surface syntax.

        Types are immutable, so each instance renders once and keeps the
        text; :meth:`__getstate__` leaves it out of pickles.
        """
        text = self.__dict__.get("_tydi")
        if text is None:
            text = self.__dict__["_tydi"] = self._render_tydi()
        return text

    def _render_tydi(self) -> str:
        raise NotImplementedError

    def __getstate__(self) -> dict | None:
        state = {key: value for key, value in self.__dict__.items() if key != "_tydi"}
        return state or None

    def mangle_name(self) -> str:
        """A filesystem/identifier-safe rendering used for template mangling."""
        return sanitize_identifier(self.to_tydi().lower())

    def is_null(self) -> bool:
        return isinstance(self, Null)

    def contains_stream(self) -> bool:
        """True if this type or any nested field is a Stream."""
        return any(isinstance(t, Stream) for t in self.walk())

    def walk(self) -> Iterator["LogicalType"]:
        """Depth-first iteration over this type and all nested types."""
        yield self

    def children(self) -> Iterable[tuple[str, "LogicalType"]]:
        """(name, type) pairs of direct children; empty for leaf types."""
        return ()

    def _internable(self) -> bool:
        """Whether constructor-level interning may collapse equal instances.

        Must only be True when dataclass equality implies *strict* equality
        (see :func:`repro.spec.compat.strictly_equal`): anonymous compound
        types are distinct types even when structurally identical, so they
        opt out via overrides.  Leaf primitives are always safe.
        """
        return True

    def __str__(self) -> str:
        return self.to_tydi()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_tydi()})"


@dataclass(frozen=True, repr=False)
class Null(LogicalType):
    """The empty logical type: zero bits of data."""

    kind = "Null"

    def bit_width(self) -> int:
        return 0

    def _render_tydi(self) -> str:
        return "Null"


@dataclass(frozen=True, repr=False)
class Bit(LogicalType):
    """``Bit(x)``: data requiring ``x`` hardware bits."""

    width: int
    kind = "Bit"

    def __post_init__(self) -> None:
        if not isinstance(self.width, int) or isinstance(self.width, bool):
            raise TydiTypeError(f"Bit width must be an integer, got {self.width!r}")
        if self.width < 1:
            raise TydiTypeError(f"Bit width must be >= 1, got {self.width}")

    def bit_width(self) -> int:
        return self.width

    def _render_tydi(self) -> str:
        return f"Bit({self.width})"


def _validate_fields(fields: tuple[tuple[str, LogicalType], ...], kind: str) -> None:
    seen: set[str] = set()
    for name, logical_type in fields:
        if not name or not name.isidentifier():
            raise TydiTypeError(f"{kind} field name {name!r} is not a valid identifier")
        if name in seen:
            raise TydiTypeError(f"duplicate field {name!r} in {kind}")
        if not isinstance(logical_type, LogicalType):
            raise TydiTypeError(
                f"{kind} field {name!r} must be a logical type, got {logical_type!r}"
            )
        seen.add(name)


@dataclass(frozen=True, repr=False)
class Group(LogicalType):
    """Product type: a named tuple of logical types.

    The data width is the sum of the field widths.  Field order is
    significant because it fixes the bit layout in the physical stream.
    """

    fields: tuple[tuple[str, LogicalType], ...]
    name: Optional[str] = None
    kind = "Group"

    def __post_init__(self) -> None:
        _validate_fields(self.fields, "Group")

    @classmethod
    def of(cls, name: Optional[str] = None, **fields: LogicalType) -> "Group":
        return cls(tuple(fields.items()), name=name)

    def field(self, name: str) -> LogicalType:
        for field_name, logical_type in self.fields:
            if field_name == name:
                return logical_type
        raise TydiTypeError(f"Group has no field {name!r}")

    def field_names(self) -> list[str]:
        return [name for name, _ in self.fields]

    def children(self) -> Iterable[tuple[str, LogicalType]]:
        return self.fields

    def bit_width(self) -> int:
        return sum(t.bit_width() for _, t in self.fields)

    def walk(self) -> Iterator[LogicalType]:
        yield self
        for _, t in self.fields:
            yield from t.walk()

    def _render_tydi(self) -> str:
        inner = ", ".join(f"{name}: {t.to_tydi()}" for name, t in self.fields)
        if self.name:
            return f"Group {self.name} {{ {inner} }}"
        return f"Group({inner})"

    def mangle_name(self) -> str:
        if self.name:
            return sanitize_identifier(self.name.lower())
        return super().mangle_name()

    def _internable(self) -> bool:
        # Anonymous groups are distinct types under strict equality even
        # when structurally identical; only named ones may be collapsed.
        return bool(self.name)


@dataclass(frozen=True, repr=False)
class Union(LogicalType):
    """Sum type: data is exactly one of the named variants.

    The data width is the maximum variant width; a tag of
    ``ceil(log2(len(variants)))`` bits selects the active variant.
    """

    variants: tuple[tuple[str, LogicalType], ...]
    name: Optional[str] = None
    kind = "Union"

    def __post_init__(self) -> None:
        if not self.variants:
            raise TydiTypeError("Union must have at least one variant")
        _validate_fields(self.variants, "Union")

    @classmethod
    def of(cls, name: Optional[str] = None, **variants: LogicalType) -> "Union":
        return cls(tuple(variants.items()), name=name)

    def variant(self, name: str) -> LogicalType:
        for variant_name, logical_type in self.variants:
            if variant_name == name:
                return logical_type
        raise TydiTypeError(f"Union has no variant {name!r}")

    def children(self) -> Iterable[tuple[str, LogicalType]]:
        return self.variants

    def tag_width(self) -> int:
        count = len(self.variants)
        return max(1, math.ceil(math.log2(count))) if count > 1 else 0

    def bit_width(self) -> int:
        payload = max(t.bit_width() for _, t in self.variants)
        return payload + self.tag_width()

    def walk(self) -> Iterator[LogicalType]:
        yield self
        for _, t in self.variants:
            yield from t.walk()

    def _render_tydi(self) -> str:
        inner = ", ".join(f"{name}: {t.to_tydi()}" for name, t in self.variants)
        if self.name:
            return f"Union {self.name} {{ {inner} }}"
        return f"Union({inner})"

    def mangle_name(self) -> str:
        if self.name:
            return sanitize_identifier(self.name.lower())
        return super().mangle_name()

    def _internable(self) -> bool:
        # Same rule as Group: anonymous unions stay distinct.
        return bool(self.name)


@dataclass(frozen=True, repr=False)
class Stream(LogicalType):
    """Stream-space wrapper around an element type.

    Parameters mirror the Tydi specification:

    dimension:
        Dimensionality ``d`` of the data carried by the stream.  A flat value
        has ``d=0`` (in Tydi-lang sources ``d`` often starts at 1 for a
        sequence); an English sentence -- a sequence of variable-length words
        of characters -- has ``d=2``.
    direction / synchronicity / complexity / throughput:
        See :mod:`repro.spec.stream_params`.
    user:
        An optional logical type transported as transfer-level user data.
    keep:
        Whether the stream must be kept even if the element type is Null.
    """

    element: LogicalType
    dimension: int = 0
    direction: Direction = Direction.FORWARD
    synchronicity: Synchronicity = Synchronicity.SYNC
    complexity: Complexity = field(default_factory=Complexity)
    throughput: Throughput = field(default_factory=Throughput)
    user: LogicalType = field(default_factory=Null)
    keep: bool = False
    kind = "Stream"

    def __post_init__(self) -> None:
        if not isinstance(self.element, LogicalType):
            raise TydiTypeError(f"Stream element must be a logical type, got {self.element!r}")
        if isinstance(self.element, Stream):
            raise TydiTypeError(
                "Stream element may not directly be another Stream; nest it inside a Group"
            )
        if not isinstance(self.dimension, int) or self.dimension < 0:
            raise TydiTypeError(f"Stream dimension must be a non-negative int, got {self.dimension!r}")

    @classmethod
    def new(
        cls,
        element: LogicalType,
        dimension: int = 0,
        direction: Direction | str = Direction.FORWARD,
        synchronicity: Synchronicity | str = Synchronicity.SYNC,
        complexity: Complexity | int | str = 1,
        throughput: Throughput | int | float = 1,
        user: LogicalType | None = None,
        keep: bool = False,
    ) -> "Stream":
        """Convenience constructor accepting plain Python values."""
        if isinstance(direction, str):
            direction = Direction(direction.capitalize())
        if isinstance(synchronicity, str):
            synchronicity = Synchronicity(synchronicity)
        return cls(
            element=element,
            dimension=dimension,
            direction=direction,
            synchronicity=synchronicity,
            complexity=Complexity.parse(complexity),
            throughput=Throughput.of(throughput),
            user=user if user is not None else Null(),
            keep=keep,
        )

    def children(self) -> Iterable[tuple[str, LogicalType]]:
        return (("element", self.element), ("user", self.user))

    def _internable(self) -> bool:
        # Mirrors the element condition of ``strictly_equal``'s Stream rule:
        # collapsing two equal streams is only safe when equal elements are
        # guaranteed strictly equal -- primitives and named compound types.
        # Streams around anonymous Groups/Unions stay distinct objects.
        return isinstance(self.element, (Bit, Null)) or bool(getattr(self.element, "name", None))

    def data_width(self) -> int:
        """Bits of element data per lane (excluding dimension / user bits)."""
        return self.element.bit_width()

    def bit_width(self) -> int:
        """Total data bits across all lanes of one transfer."""
        return self.data_width() * self.throughput.lanes

    def walk(self) -> Iterator[LogicalType]:
        yield self
        yield from self.element.walk()
        if not self.user.is_null():
            yield from self.user.walk()

    def with_element(self, element: LogicalType) -> "Stream":
        """Return a copy of this stream carrying a different element type."""
        return Stream(
            element=element,
            dimension=self.dimension,
            direction=self.direction,
            synchronicity=self.synchronicity,
            complexity=self.complexity,
            throughput=self.throughput,
            user=self.user,
            keep=self.keep,
        )

    def mangle_name(self) -> str:
        parts = ["stream", self.element.mangle_name()]
        if self.dimension:
            parts.append(f"d{self.dimension}")
        if self.throughput.lanes != 1:
            parts.append(f"t{self.throughput.lanes}")
        return "_".join(parts)

    def _render_tydi(self) -> str:
        args = [self.element.to_tydi()]
        if self.dimension:
            args.append(f"d={self.dimension}")
        if self.direction is not Direction.FORWARD:
            args.append(f"dir={self.direction}")
        if self.synchronicity is not Synchronicity.SYNC:
            args.append(f"sync={self.synchronicity}")
        if self.complexity != Complexity():
            args.append(f"c={self.complexity}")
        if float(self.throughput) != 1.0:
            args.append(f"t={self.throughput}")
        if not self.user.is_null():
            args.append(f"user={self.user.to_tydi()}")
        if self.keep:
            args.append("keep=true")
        return f"Stream({', '.join(args)})"


#: Convenience alias: a 1-bit boolean stream used pervasively in the paper
#: (the ``select_or_not`` / ``keep`` signals of filters), ``Stream(Bit(1), d=1)``.
def bool_stream(dimension: int = 1) -> Stream:
    """The ``bool = Stream(Bit(1), d=1)`` type used by filter/select templates."""
    return Stream.new(Bit(1), dimension=dimension)
