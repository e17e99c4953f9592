"""Identifier helpers: sanitization, template-instance mangling, uniquing.

Template instantiation in Tydi-lang produces *concrete* streamlets and
implementations whose names must be valid identifiers in Tydi-IR and in the
generated VHDL.  We mirror the Rust compiler's approach of mangling the
template name together with a stable rendering of its arguments.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable

_IDENT_RE = re.compile(r"[^A-Za-z0-9_]")
_UNDERSCORES_RE = re.compile(r"_+")
_VHDL_KEYWORDS = frozenset(
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


def sanitize_identifier(name: str, keyword_suffix: bool = True) -> str:
    """Turn an arbitrary string into a legal VHDL/Tydi-IR identifier.

    Non-alphanumeric characters become underscores, a leading digit gets an
    underscore prefix, consecutive/trailing underscores are collapsed, and --
    unless ``keyword_suffix`` is disabled -- VHDL reserved words get an ``_i``
    suffix.  IR-level names keep their spelling (``keyword_suffix=False``);
    only the VHDL backend needs the reserved-word escape.
    """
    if (
        name.isascii()
        and name.isidentifier()
        and name[0] != "_"
        and name[-1] != "_"
        and "__" not in name
    ):
        # Already clean: ASCII letters, digits and single inner underscores,
        # starting with a letter.  Most names a design uses are.
        cleaned = name
    else:
        cleaned = _IDENT_RE.sub("_", name)
        cleaned = _UNDERSCORES_RE.sub("_", cleaned).strip("_")
        if not cleaned:
            cleaned = "anon"
        if cleaned[0].isdigit():
            cleaned = "_" + cleaned
    if keyword_suffix and cleaned.lower() in _VHDL_KEYWORDS:
        cleaned += "_i"
    return cleaned


def render_argument(value: object) -> str:
    """Render a template argument value for inclusion in a mangled name."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        text = f"{value:g}".replace(".", "p").replace("-", "m")
        return text
    if isinstance(value, int):
        return str(value) if value >= 0 else f"m{-value}"
    if isinstance(value, str):
        return sanitize_identifier(value.lower())
    # Logical types, implementations etc. render via their own name hooks.
    name = getattr(value, "mangle_name", None)
    if callable(name):
        return str(name())
    return sanitize_identifier(str(value))


def mangle(base: str, arguments: Iterable[object] = ()) -> str:
    """Build the concrete name of a template instance.

    ``duplicator`` instantiated with ``(Stream(Bit(32)), 2)`` becomes e.g.
    ``duplicator_0_stream_bit32_1_2``.  Positional indices keep instantiations
    with identical-looking arguments of different kinds distinct.
    """
    parts = [sanitize_identifier(base)]
    for index, argument in enumerate(arguments):
        parts.append(f"{index}_{render_argument(argument)}")
    # Sanitize the joined name so that it is identical to what the IR classes
    # store (they sanitize on construction); callers use it as a lookup key.
    return sanitize_identifier("__".join(parts))


def unique_namer(prefix: str = "anon") -> Callable[[str | None], str]:
    """Return a closure that produces unique names with a shared counter.

    Used by sugaring to name the automatically inserted duplicators and
    voiders deterministically within a single compilation.
    """
    counter = {"value": 0}

    def next_name(hint: str | None = None) -> str:
        counter["value"] += 1
        base = sanitize_identifier(hint) if hint else prefix
        return f"{base}_{counter['value']}"

    return next_name
