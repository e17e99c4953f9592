"""Wire protocol of the compile service: envelopes and error encoding.

One request/response shape serves both transports of :mod:`repro.server.
transport` (newline-delimited JSON over TCP, and the same JSON document as
the body of an HTTP/1.1 ``POST``):

Request::

    {"id": 7, "method": "get_ir", "params": {"design": "q19"}}

``id`` is optional and echoed back verbatim (clients use it to pair
responses on a pipelined connection); ``params`` defaults to ``{}``.

Success response::

    {"id": 7, "ok": true, "result": {"design": "q19", "ir": "...", ...}}

Error response::

    {"id": 7, "ok": false,
     "error": {"type": "TydiSyntaxError", "stage": "parse",
               "message": "...", "rendered": "file.td:3:7: ...",
               "span": "file.td:3:7"}}

The ``error`` object is a structured :class:`~repro.errors.TydiError`: the
concrete exception class name, its pipeline ``stage`` tag, the raw message
and the location-annotated rendering -- everything a remote caller needs to
report the failure exactly as the in-process toolchain would.  Non-Tydi
exceptions are reported with ``stage: "internal"``; protocol violations
(malformed envelope, unknown method, bad parameters) use ``stage:
"server"`` via :class:`~repro.errors.TydiServerError`.

Every response line comes from one compact, ASCII-only encoder
(:func:`encode`).  A success result encoded once (:func:`encode_result`)
can be spliced into the line of any later request id
(:func:`success_line`), byte-identical to encoding the whole envelope.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Optional

from repro.errors import TydiError, TydiServerError, did_you_mean

#: Bump on incompatible envelope changes; ``ping`` reports it so clients can
#: detect a mismatched server before issuing real requests.
PROTOCOL_VERSION = 1

#: Hard bound on one serialized request/response line (NDJSON framing reads
#: whole lines into memory; 64 MiB comfortably holds any TPC-H design yet
#: stops a malicious or broken peer from ballooning the server).
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

#: The one JSON encoder of responses: compact, ASCII-only.  Every line the
#: server writes comes from it, so a result encoded once can be spliced
#: into any later response unchanged.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


class RemoteCompileError(TydiServerError):
    """A structured error envelope received from the server.

    Raised by :class:`repro.server.client.CompileClient` when a response
    carries ``ok: false``.  ``remote_type`` and ``remote_stage`` preserve
    the server-side exception identity (e.g. ``TydiSyntaxError`` /
    ``parse``) so callers can branch on *which stage* rejected the design
    without string-matching the message; ``envelope`` is the raw error
    object for anything else.
    """

    def __init__(self, error: Mapping[str, Any]) -> None:
        self.envelope = dict(error)
        self.remote_type = str(error.get("type") or "TydiError")
        self.remote_stage = str(error.get("stage") or "general")
        rendered = str(error.get("rendered") or error.get("message") or "remote error")
        super().__init__(rendered)
        # Report the *remote* stage (parse, drc, ...), not this class's
        # "server" tag: the caller cares which pipeline stage failed.
        self.stage = self.remote_stage


def encode_error(exc: BaseException) -> dict[str, Any]:
    """The structured error object for one raised exception."""
    if isinstance(exc, TydiError):
        return {
            "type": type(exc).__name__,
            "stage": exc.stage,
            "message": exc.message,
            "rendered": exc.render(),
            "span": str(exc.span) if exc.span is not None else None,
        }
    return {
        "type": type(exc).__name__,
        "stage": "internal",
        "message": str(exc),
        "rendered": f"{type(exc).__name__}: {exc}",
        "span": None,
    }


def error_envelope(request_id: Any, exc: BaseException) -> dict[str, Any]:
    return {"id": request_id, "ok": False, "error": encode_error(exc)}


def encode(envelope: Mapping[str, Any]) -> bytes:
    """One response envelope as its wire line (the NDJSON frame, and the HTTP body)."""
    return _bounded(_ENCODER.encode(envelope).encode() + b"\n", envelope.get("id"))


def encode_result(result: Mapping[str, Any]) -> bytes:
    """A success result as the JSON bytes :func:`success_line` splices in."""
    return _ENCODER.encode(result).encode()


def success_line(request_id: Any, result: bytes) -> bytes:
    """The wire line of a success envelope whose result is already encoded.

    Byte-identical to ``encode({"id": request_id, "ok": True, "result":
    decoded})``: a compact dict's encoding is its items' encodings joined in
    order.
    """
    return _bounded(
        b'{"id":' + _ENCODER.encode(request_id).encode() + b',"ok":true,"result":'
        + result + b"}\n",
        request_id,
    )


def _bounded(line: bytes, request_id: Any) -> bytes:
    """``line``, or an error line if it is past ``MAX_MESSAGE_BYTES``: a peer
    reading with the documented line bound would only see a truncated,
    unparseable line otherwise."""
    if len(line) <= MAX_MESSAGE_BYTES:
        return line
    oversized = error_envelope(
        request_id,
        TydiServerError(
            f"response of {len(line)} bytes exceeds the protocol bound "
            f"of {MAX_MESSAGE_BYTES} (split the design or query fewer outputs)"
        ),
    )
    return _ENCODER.encode(oversized).encode() + b"\n"


def parse_request(message: Any) -> tuple[Any, str, dict[str, Any]]:
    """Validate one decoded request document into ``(id, method, params)``.

    Raises :class:`~repro.errors.TydiServerError` (stage ``server``) on any
    malformed shape; the caller turns that into an error envelope carrying
    whatever ``id`` could still be recovered.
    """
    if not isinstance(message, Mapping):
        raise TydiServerError(
            f"request must be a JSON object, got {type(message).__name__}"
        )
    method = message.get("method")
    if not isinstance(method, str) or not method:
        raise TydiServerError("request is missing the 'method' string")
    params = message.get("params", {})
    if not isinstance(params, Mapping):
        raise TydiServerError(
            f"'params' must be a JSON object, got {type(params).__name__}"
        )
    return message.get("id"), method, dict(params)


def recover_request_id(message: Any) -> Any:
    """The ``id`` of a request too malformed to fully parse (best effort)."""
    if isinstance(message, Mapping):
        return message.get("id")
    return None


def require_param(params: Mapping[str, Any], name: str, kind: type, method: str) -> Any:
    """One required, type-checked request parameter (server-stage errors)."""
    if name not in params:
        raise TydiServerError(f"{method}: missing required parameter {name!r}")
    value = params[name]
    if not isinstance(value, kind):
        raise TydiServerError(
            f"{method}: parameter {name!r} must be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def unknown_method_error(method: str, known: list[str]) -> TydiServerError:
    return TydiServerError(
        f"unknown method {method!r}{did_you_mean(method, known)} "
        f"(methods: {', '.join(known)})"
    )


def unknown_params_check(
    params: Mapping[str, Any], allowed: tuple[str, ...], method: str
) -> None:
    """Reject unexpected parameter names (typos fail loudly, not silently)."""
    for name in params:
        if name not in allowed:
            raise TydiServerError(
                f"{method}: unknown parameter {name!r}"
                f"{did_you_mean(name, allowed)}"
                + (f" (parameters: {', '.join(allowed)})" if allowed else " (no parameters)")
            )


def coerce_options(value: Any, method: str) -> Optional[dict[str, Any]]:
    """Validate an ``options`` parameter shape (content is validated by
    :meth:`repro.lang.compile.CompileOptions.from_kwargs` downstream).

    JSON has no tuples, so list-valued fields (``targets``, ``top_args``)
    arrive as lists -- ``CompileOptions`` normalises them.  ``backend_options``
    mappings pass through :func:`repro.lang.compile.normalize_backend_options`
    the same way.
    """
    if value is None:
        return None
    if not isinstance(value, Mapping):
        raise TydiServerError(
            f"{method}: 'options' must be a JSON object, got {type(value).__name__}"
        )
    return dict(value)
