"""Precompiled standard-library AST snapshot.

Every compilation with ``include_stdlib=True`` starts by parsing the same
few hundred lines of stdlib source; on a cold process that parse is pure
overhead.  This module maintains a pickled snapshot of the parsed stdlib
:class:`~repro.lang.ast.SourceUnit` next to the package
(:data:`SNAPSHOT_FILENAME`) so a cold compile deserialises the AST instead
of lexing and parsing it.

Format 2 (the current one) pickles the AST positionally: every node and
the unit reduce to their class and their field values in ``__match_args__``
order, and every span to its two character offsets plus the file's line
index, which the pickle stores once.  Unpickling is one ``__init__`` call
per object; no line or column is stored or computed.

The snapshot is **advisory, never authoritative**:

* it is version-stamped with the pickle format, a SHA-256 of the stdlib
  source text and the compiler version; any mismatch (or a missing,
  truncated or corrupt file) silently falls back to a live parse and bumps
  :func:`snapshot_counters`'s ``fallbacks`` counter --
  :func:`load_stdlib_unit` never raises;
* ``tests/test_stdlib_snapshot.py`` asserts the committed snapshot is
  fresh (stamp matches the current source and version) and that the
  deserialised AST equals a live parse, so the snapshot cannot drift;
* ``setup.py`` rebuilds it at wheel build time and
  ``python -m repro.stdlib.snapshot`` regenerates it by hand after any
  stdlib or AST change.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from pathlib import Path
from typing import Optional

from repro import __version__
from repro.stdlib.source import STDLIB_SOURCE

#: Bump when the payload layout changes incompatibly, including the
#: positional field order of an AST class (the compiler-version stamp does
#: not change with it).
SNAPSHOT_FORMAT = 2

#: Snapshot file, shipped as package data next to this module.
SNAPSHOT_FILENAME = "_stdlib_ast.pkl"

_LOCK = threading.Lock()
_COUNTERS = {"hits": 0, "fallbacks": 0}
_LAST_FALLBACK: Optional[str] = None


def snapshot_path() -> Path:
    """Where the snapshot lives (inside the installed package)."""
    return Path(__file__).resolve().parent / SNAPSHOT_FILENAME


def _stamp(source_text: str) -> dict[str, object]:
    return {
        "format": SNAPSHOT_FORMAT,
        "source_sha256": hashlib.sha256(source_text.encode("utf-8")).hexdigest(),
        "compiler": __version__,
    }


def _record_fallback(reason: str) -> None:
    global _LAST_FALLBACK
    with _LOCK:
        _COUNTERS["fallbacks"] += 1
        _LAST_FALLBACK = reason


def snapshot_counters() -> dict[str, object]:
    """Hit/fallback counters (and the most recent fallback reason)."""
    with _LOCK:
        return {**_COUNTERS, "last_fallback": _LAST_FALLBACK}


def reset_counters() -> None:
    global _LAST_FALLBACK
    with _LOCK:
        _COUNTERS["hits"] = 0
        _COUNTERS["fallbacks"] = 0
        _LAST_FALLBACK = None


def load_stdlib_unit(path: Optional[Path] = None):
    """Deserialise the stdlib AST snapshot, or ``None`` on any mismatch.

    Returns the pickled :class:`~repro.lang.ast.SourceUnit` only when the
    stamp matches the *current* stdlib source and compiler version; every
    failure mode -- missing file, short read, unpicklable bytes, stale
    stamp, wrong payload shape -- records a fallback reason and returns
    ``None`` so the caller live-parses instead.  This function must never
    raise: a broken snapshot may cost milliseconds, not a compile.
    """
    target = path if path is not None else snapshot_path()
    try:
        raw = target.read_bytes()
    except OSError:
        _record_fallback("missing")
        return None
    try:
        payload = pickle.loads(raw)
    except Exception:
        _record_fallback("corrupt")
        return None
    if not isinstance(payload, dict):
        _record_fallback("corrupt")
        return None
    if payload.get("stamp") != _stamp(STDLIB_SOURCE):
        _record_fallback("stale")
        return None
    unit = payload.get("unit")
    from repro.lang.ast import SourceUnit

    if not isinstance(unit, SourceUnit):
        _record_fallback("corrupt")
        return None
    with _LOCK:
        _COUNTERS["hits"] += 1
    return unit


def build_snapshot(path: Optional[Path] = None) -> Path:
    """Parse the stdlib live and write a fresh, stamped snapshot."""
    from repro.lang.parser import parse_source

    target = path if path is not None else snapshot_path()
    unit = parse_source(STDLIB_SOURCE, "std.td")
    payload = {"stamp": _stamp(STDLIB_SOURCE), "unit": unit}
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_suffix(".tmp")
    tmp.write_bytes(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    tmp.replace(target)
    return target


def main() -> int:  # pragma: no cover - exercised via CLI
    target = build_snapshot()
    print(f"wrote {target} ({target.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
