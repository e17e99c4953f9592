"""The compile service's method table, and the one function that runs a method.

:data:`METHODS` is the only place that classifies a request.  Each entry
holds the parameters the method accepts, its handler and its *kind*; every
rule of the request path is derived from the kind:

* ``front`` -- answered on the event loop from the service's own state
  (``ping``, ``list_backends``); handler ``(service, params)``.
* ``session`` -- reads the whole session on a compile thread (``stats``,
  ``get_report``); handler ``(target, params)``, where the target is the
  service, which asks each of its workspaces in turn: its own on a compile
  thread, or each pool worker's through the same frames as a design job.
* ``read`` / ``mutation`` / ``simulate`` -- the design methods; handler
  ``(workspace, params)``, run on a compile thread or, in pool mode, by the
  worker that owns the design's shard.  Reads are memoised by the front,
  mutations drop a design's memoised reads (and are mirrored for crash
  replay), simulations are neither.
* ``watch`` -- subscribes the request's connection to a design; handler
  ``(watch, params)``, where ``watch`` is the NDJSON connection's watch
  state, or ``None`` where no event frame can be pushed (HTTP, in-process).
* ``shutdown`` -- drains the service, then stops it; an async handler
  ``(service, params)``.

:func:`run` is the execution function of every synchronous handler: the
result's JSON bytes (:func:`~repro.server.protocol.encode_result`) or the
structured error object (:func:`~repro.server.protocol.encode_error`).  The
``workers=0`` service calls it on a compile thread, and a pool worker calls
it over its bare workspace, so a result is encoded once, where it is
computed, and the front splices those bytes into its response line.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, NamedTuple

from repro.errors import TydiServerError
from repro.server import protocol

FRONT = "front"
SESSION = "session"
READ = "read"
MUTATION = "mutation"
SIMULATE = "simulate"
WATCH = "watch"
SHUTDOWN = "shutdown"

#: The kinds routed to the owning worker of their ``design`` in pool mode.
DESIGN_KINDS = frozenset({READ, MUTATION, SIMULATE})


class Method(NamedTuple):
    """One request method: its kind, the params it accepts, and its handler."""

    kind: str
    params: tuple[str, ...]
    handler: Callable[..., Any]

    @property
    def pooled(self) -> bool:
        """Routed to the worker that owns its design (pool mode)."""
        return self.kind in DESIGN_KINDS

    @property
    def in_executor(self) -> bool:
        """Run off the event loop: it can wait on a workspace or design lock."""
        return self.kind in DESIGN_KINDS or self.kind == SESSION

    @property
    def drain_rejected(self) -> bool:
        """Rejected once draining: it would start compile work or change a
        design (``ping``, ``stats`` and ``list_backends`` let operators watch
        the drain; ``get_report`` refuses itself, see ``CompileService.report``)."""
        return self.kind in DESIGN_KINDS or self.kind == WATCH


def run(target: Any, method: str, params: Mapping[str, Any]) -> tuple[bool, Any]:
    """Run one method's handler over ``target``: ``(True, result JSON bytes)``
    or ``(False, error object)``.  Never raises."""
    try:
        return True, protocol.encode_result(METHODS[method].handler(target, params))
    except Exception as exc:
        return False, protocol.encode_error(exc)


# -- handlers --------------------------------------------------------------------
# Each takes the request's validated params (unknown names are rejected by the
# front before any handler runs) and returns the JSON-ready result.


def _ping(service, params: Mapping[str, Any]) -> dict[str, Any]:
    import repro

    return {
        "protocol": protocol.PROTOCOL_VERSION,
        "version": repro.__version__,
        "methods": sorted(METHODS),
        "jobs": service.jobs,
        "workers": service.workers,
    }


def _list_backends(service, params: Mapping[str, Any]) -> dict[str, Any]:
    from repro.backends import available_backends, backend_class, option_schema

    return {
        "backends": [
            {
                "name": name,
                "description": backend_class(name).description,
                "options": option_schema(backend_class(name)),
            }
            for name in available_backends()
        ]
    }


def _stats(target, params: Mapping[str, Any]) -> dict[str, Any]:
    """The service's stats around its workspaces', or one workspace's."""
    return target.stats()


def _get_report(target, params: Mapping[str, Any]) -> dict[str, Any]:
    """The service's report over its workspaces, or one workspace's."""
    return dict(target.report())


def _open_design(workspace, params: Mapping[str, Any]) -> dict[str, Any]:
    name = protocol.require_param(params, "design", str, "open_design")
    files = params.get("files", {})
    if not isinstance(files, (Mapping, list)):
        raise TydiServerError(
            f"open_design: 'files' must be a JSON object or array, "
            f"got {type(files).__name__}"
        )
    options = protocol.coerce_options(params.get("options"), "open_design")
    replace = bool(params.get("replace", True))
    workspace.add_design(name, files, options, replace=replace)
    return {
        "design": name,
        "files": sorted(workspace.files(name)),
        "fingerprint": workspace.fingerprint(name),
    }


def _open_ir_design(workspace, params: Mapping[str, Any]) -> dict[str, Any]:
    """Open a design from one Tydi-IR interchange document.

    The served twin of :meth:`~repro.workspace.Workspace.add_ir_design`:
    the document text replaces Tydi-lang sources as the design's input;
    everything downstream works unchanged, and in pool mode the request is
    mirrored for crash replay just like ``open_design``.
    """
    name = protocol.require_param(params, "design", str, "open_ir_design")
    text = protocol.require_param(params, "text", str, "open_ir_design")
    options = protocol.coerce_options(params.get("options"), "open_ir_design")
    replace = bool(params.get("replace", True))
    workspace.add_ir_design(name, text, options, replace=replace)
    return {
        "design": name,
        "files": sorted(workspace.files(name)),
        "fingerprint": workspace.fingerprint(name),
    }


def _update_file(workspace, params: Mapping[str, Any]) -> dict[str, Any]:
    design = protocol.require_param(params, "design", str, "update_file")
    filename = protocol.require_param(params, "filename", str, "update_file")
    text = protocol.require_param(params, "text", str, "update_file")
    workspace.update_file(design, filename, text)
    return {
        "design": design,
        "filename": filename,
        "fingerprint": workspace.fingerprint(design),
        "fresh": workspace.is_fresh(design),
    }


def _remove_file(workspace, params: Mapping[str, Any]) -> dict[str, Any]:
    design = protocol.require_param(params, "design", str, "remove_file")
    filename = protocol.require_param(params, "filename", str, "remove_file")
    workspace.remove_file(design, filename)
    return {
        "design": design,
        "filename": filename,
        "fingerprint": workspace.fingerprint(design),
    }


def _remove_design(workspace, params: Mapping[str, Any]) -> dict[str, Any]:
    design = protocol.require_param(params, "design", str, "remove_design")
    workspace.remove_design(design)
    return {"design": design, "removed": True}


def _get_ir(workspace, params: Mapping[str, Any]) -> dict[str, Any]:
    design = protocol.require_param(params, "design", str, "get_ir")
    ir = workspace.ir(design)
    return {"design": design, "ir": ir, "fingerprint": workspace.fingerprint(design)}


def _get_outputs(workspace, params: Mapping[str, Any]) -> dict[str, Any]:
    design = protocol.require_param(params, "design", str, "get_outputs")
    target = protocol.require_param(params, "target", str, "get_outputs")
    files = workspace.outputs(design, target)
    return {"design": design, "target": target, "files": dict(files)}


def _get_diagnostics(workspace, params: Mapping[str, Any]) -> dict[str, Any]:
    design = protocol.require_param(params, "design", str, "get_diagnostics")
    return {
        "design": design,
        "diagnostics": [
            {
                "severity": diag.severity,
                "stage": diag.stage,
                "message": diag.message,
                "span": str(diag.span) if diag.span is not None else None,
            }
            for diag in workspace.diagnostics(design)
        ],
    }


def _plan(params: Mapping[str, Any], method: str):
    """The request's simulation plan (``None``: the default plan)."""
    from repro.sim.harness import SimulationPlan

    plan = params.get("plan")
    if plan is not None and not isinstance(plan, Mapping):
        raise TydiServerError(
            f"{method}: 'plan' must be a JSON object, got {type(plan).__name__}"
        )
    return SimulationPlan.coerce(plan)


def _simulate_design(workspace, params: Mapping[str, Any]) -> dict[str, Any]:
    design = protocol.require_param(params, "design", str, "simulate_design")
    report = workspace.simulate(design, _plan(params, "simulate_design"))
    return {
        "design": design,
        "fingerprint": workspace.fingerprint(design),
        "report": report.as_dict(),
    }


def _watch_design(watch, params: Mapping[str, Any]) -> dict[str, Any]:
    design = protocol.require_param(params, "design", str, "watch_design")
    if watch is None:
        raise TydiServerError(
            "watch_design requires a streaming NDJSON connection "
            "(the HTTP front and one-shot dispatch cannot push event frames)"
        )
    _plan(params, "watch_design")  # reject malformed plans up front
    return {
        "design": design,
        "watching": True,
        "watch": watch.subscribe(design, params.get("plan")),
        "queue_depth": watch.depth,
    }


async def _shutdown(service, params: Mapping[str, Any]) -> dict[str, Any]:
    return {"stopping": True, "drained": await service.drain()}


#: Every request method of the service.
METHODS: dict[str, Method] = {
    "ping": Method(FRONT, (), _ping),
    "open_design": Method(MUTATION, ("design", "files", "options", "replace"), _open_design),
    "open_ir_design": Method(MUTATION, ("design", "text", "options", "replace"), _open_ir_design),
    "update_file": Method(MUTATION, ("design", "filename", "text"), _update_file),
    "remove_file": Method(MUTATION, ("design", "filename"), _remove_file),
    "remove_design": Method(MUTATION, ("design",), _remove_design),
    "get_ir": Method(READ, ("design",), _get_ir),
    "get_outputs": Method(READ, ("design", "target"), _get_outputs),
    "get_diagnostics": Method(READ, ("design",), _get_diagnostics),
    "simulate_design": Method(SIMULATE, ("design", "plan"), _simulate_design),
    "watch_design": Method(WATCH, ("design", "plan"), _watch_design),
    "get_report": Method(SESSION, (), _get_report),
    "list_backends": Method(FRONT, (), _list_backends),
    "stats": Method(SESSION, (), _stats),
    "shutdown": Method(SHUTDOWN, (), _shutdown),
}
