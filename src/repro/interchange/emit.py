"""Canonical Tydi-IR interchange emission.

The textual IR of the ``ir`` backend (:mod:`repro.ir.emit`) is a
human-oriented *report*: its type references are abbreviated (a ``Stream``
reference drops direction, synchronicity, user and keep), so the text cannot
be parsed back into the exact :class:`~repro.ir.model.Project` it came from.
This module defines the *complete* interchange form the ``tydi-ir`` backend
emits and :func:`repro.interchange.parse.load_ir` ingests:

* every port and connection type is rendered with the full
  :meth:`~repro.spec.logical_types.LogicalType.to_tydi` surface syntax,
* documentation strings, metadata dictionaries and port attributes are
  carried verbatim through a small literal grammar
  (:func:`render_value`), and
* declaration order is preserved exactly (the emitter walks the project's
  insertion-ordered dictionaries; the parser re-inserts in document order),
  which is what makes the round trip ``emit(ingest(emit(P))) == emit(P)``
  byte-identical.

The only model field *not* carried is ``Implementation.simulation``:
behaviour specs drive the simulator, never emission (they are excluded from
:func:`repro.backends.implementation_fingerprint` for the same reason), and
they hold arbitrary Python callables with no stable textual form.  See
``docs/interchange.md``.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii

from repro.errors import TydiBackendError
from repro.ir.model import Implementation, Port, Project, Streamlet
from repro.lang.values import ClockDomainValue, TypeValue
from repro.spec.logical_types import LogicalType

#: Format version stamped into the document prelude; the parser rejects
#: documents claiming a newer major format.
FORMAT_VERSION = 1


def render_value(value: object) -> str:
    """Render one metadata / attribute value in the interchange literal grammar.

    Supported: ``None`` / booleans / ints / finite floats / strings,
    logical types (full ``to_tydi`` syntax), and tuples / lists /
    string-keyed dicts of supported values.  Anything else is an emission
    error -- the document must stay parseable, so unknown objects may not
    leak through ``repr``.
    """
    if value is None:
        return "none"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise TydiBackendError(
                f"tydi-ir interchange cannot serialise non-finite float {value!r}"
            )
        return repr(value)
    if isinstance(value, str):
        # What json.dumps(value) returns, without its dispatch.
        return encode_basestring_ascii(value)
    if isinstance(value, LogicalType):
        return value.to_tydi()
    if isinstance(value, TypeValue):
        # Evaluator wrapper for a type-valued template argument; kept
        # distinct from a bare logical type so primitive generators (which
        # sniff for the wrapper) behave identically after the round trip.
        return f"type({value.logical_type.to_tydi()})"
    if isinstance(value, ClockDomainValue):
        return f"clockdomain({json.dumps(value.name)})"
    if isinstance(value, tuple):
        if len(value) == 1:
            return f"({render_value(value[0])},)"
        return "(" + ", ".join(render_value(item) for item in value) + ")"
    if isinstance(value, list):
        return "[" + ", ".join(render_value(item) for item in value) + "]"
    if isinstance(value, dict):
        parts = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TydiBackendError(
                    f"tydi-ir interchange dict keys must be strings, got {key!r}"
                )
            parts.append(f"{encode_basestring_ascii(key)}: {render_value(item)}")
        return "{" + ", ".join(parts) + "}"
    raise TydiBackendError(
        f"tydi-ir interchange cannot serialise a {type(value).__name__} value "
        f"({value!r}); supported: none/bool/int/float/str, logical types, "
        f"tuples, lists and string-keyed dicts thereof"
    )


def document_prelude(project: Project) -> str:
    """The header section: format stamp plus the project declaration."""
    return (
        f"// Tydi-IR interchange, format v{FORMAT_VERSION}\n"
        f"project {json.dumps(project.name)};"
    )


def _port_line(port: Port) -> str:
    parts = [f"port {port.name}: {port.logical_type.to_tydi()} {port.direction}"]
    if port.clock_domain.name != "default":
        if not port.clock_domain.name.isidentifier():
            raise TydiBackendError(
                f"tydi-ir interchange cannot serialise clock domain "
                f"{port.clock_domain.name!r} (not an identifier)"
            )
        parts.append(f"@{port.clock_domain.name}")
    if port.attributes:
        parts.append("attrs " + render_value(dict(port.attributes)))
    return " ".join(parts) + ";"


def emit_streamlet_block(streamlet: Streamlet) -> str:
    """One ``streamlet name { ... }`` section."""
    lines = [f"streamlet {streamlet.name} {{"]
    if streamlet.documentation:
        lines.append(f"  doc {json.dumps(streamlet.documentation)};")
    for port in streamlet.ports:
        lines.append("  " + _port_line(port))
    lines.append("}")
    return "\n".join(lines)


def emit_implementation_block(implementation: Implementation) -> str:
    """One ``impl name of streamlet { ... }`` section.

    External implementations keep the uniform block form with an
    ``external;`` body marker, so they can still carry documentation and
    metadata (primitive kinds live there).
    """
    lines = [f"impl {implementation.name} of {implementation.streamlet} {{"]
    if implementation.external:
        lines.append("  external;")
    if implementation.documentation:
        lines.append(f"  doc {json.dumps(implementation.documentation)};")
    if implementation.metadata:
        lines.append(f"  meta {render_value(dict(implementation.metadata))};")
    for instance in implementation.instances:
        line = f"  instance {instance.name} of {instance.implementation}"
        if instance.metadata:
            line += f" meta {render_value(dict(instance.metadata))}"
        lines.append(line + ";")
    for connection in implementation.connections:
        line = f"  connect {connection.source} => {connection.sink}"
        if connection.logical_type is not None:
            line += f" type {connection.logical_type.to_tydi()}"
        if connection.name:
            line += f" name {json.dumps(connection.name)}"
        if connection.structural:
            line += " structural"
        if connection.synthesized:
            line += " synthesized"
        lines.append(line + ";")
    lines.append("}")
    return "\n".join(lines)


def emit_document(project: Project) -> str:
    """Render the complete interchange document for one project: the one
    ``.tir`` file of the registered ``tydi-ir`` backend."""
    from repro.backends import get_backend

    (document,) = get_backend("tydi-ir").emit(project).values()
    return document
