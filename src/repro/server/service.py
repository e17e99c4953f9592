"""The transport-agnostic compile service: JSON requests onto warm compile state.

:class:`CompileService` is the core of the compile daemon.  It has two
execution modes behind one request surface:

* ``workers=0`` (default): one shared :class:`~repro.workspace.Workspace`
  -- the cache's parse / frontend-snapshot / backend tiers and the
  per-design memos all live in one session -- with every
  workspace-touching request running in a bounded
  :class:`~concurrent.futures.ThreadPoolExecutor`.  Inside the pool the
  workspace's per-design locks do the scheduling: different designs
  compile in parallel (up to ``jobs`` threads, GIL permitting), same-
  design requests coalesce on the design lock.
* ``workers=N`` (N >= 1): a **multi-process**
  :class:`~repro.server.pool.WorkerPool` -- N forked workers, each owning
  the shard of designs that hashes to it, so pure-Python compile work
  escapes the GIL and each worker's in-memory caches stay hot for its
  shard.  Design-addressed methods route to the owning worker; ``ping`` /
  ``stats`` / ``list_backends`` are answered by the parent, with ``stats``
  aggregating per-worker counters, queue depths and restart totals.

Both modes share the drain lifecycle: a ``shutdown`` request marks the
service *draining* (new work is rejected with a structured
:class:`~repro.errors.TydiDrainingError` envelope), waits for every
in-flight request to complete -- so no response is ever dropped by the
transport winding down -- then drains the worker pool (if any) and only
then signals the transport to stop.

Both modes also share the read memo (:mod:`repro.server.memo`): a repeat
``get_ir`` / ``get_outputs`` / ``get_diagnostics`` of a design no mutation
touched since is answered on the event loop, without reaching either pool.

Requests and responses have the shape documented by
:mod:`repro.server.protocol`.  A transport decodes each request once and
hands the document to :meth:`respond`.  The method table
(:mod:`repro.server.methods`) says where it runs, and both modes run a
design method through the same :func:`~repro.server.methods.run`, which
encodes the result where it is computed: on a compile thread, or in the
pool worker.  :meth:`respond` splices those bytes into the response line
and stores the same bytes in the read memo, so no result is decoded or
encoded twice.  Failures never escape :meth:`respond` -- every exception
becomes a structured error envelope carrying the
:class:`~repro.errors.TydiError` stage and rendering.  Every request's
latency, queueing and encoding included, goes into the service's
:class:`~repro.tracing.Recorder`, whose request view is the ``stats``
endpoint's request counters and per-method histograms.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Mapping, Optional

from repro.errors import TydiDrainingError
from repro.server import protocol
from repro.server.memo import ReadMemo
from repro.server.methods import METHODS, MUTATION, READ, SHUTDOWN, WATCH, Method, run
from repro.server.pool import WorkerPool
from repro.tracing import Recorder
from repro.workspace import Workspace


def default_jobs() -> int:
    """Default compile-pool width: the CPU count, bounded to stay polite."""
    return max(1, min(8, os.cpu_count() or 1))


class _Watch:
    """One ``watch_design`` subscription: a design name, an optional
    simulation plan (wire form), and the transport's delivery callback.

    ``last_sim`` remembers the previous simulation outcome (a canonical
    JSON string) so notifications can report *deltas*: the full report is
    pushed only when it changed since the last push to this watcher.
    """

    __slots__ = ("token", "design", "plan", "deliver", "last_sim")

    def __init__(self, token: int, design: str, plan: Optional[dict], deliver) -> None:
        self.token = token
        self.design = design
        self.plan = plan
        self.deliver = deliver
        self.last_sim: Optional[str] = None


class CompileService:
    """Maps JSON requests onto warm compile state (threaded or multi-process).

    Parameters
    ----------
    workspace:
        The session to serve (``workers=0`` only).  Omit it to have the
        service build one from ``cache_dir`` / ``max_cache_mb`` /
        ``remote_cache`` / ``options`` (the same knobs ``tydi-compile``
        exposes), so a served session and a CLI session share on-disk
        artefacts -- and, with a remote endpoint, the fleet-wide L2.
        A workspace passed here must be mutated through the service only:
        the read memo sees the service's mutating methods, not direct
        ``Workspace`` calls, and would keep serving the reads they changed.
    jobs:
        Width of the compile thread pool (default: CPU count, capped at 8).
    workers:
        Forked compile worker processes.  ``0`` (default) keeps the
        in-process thread path; ``N >= 1`` builds a
        :class:`~repro.server.pool.WorkerPool` with design sharding --
        ``workspace=`` must then be omitted (each worker owns its own).
    drain_timeout:
        Upper bound on waiting for in-flight requests during shutdown.
    backlog / restart_budget:
        Pool tuning: bounded per-worker queue depth, and crash respawns
        allowed per worker (see :class:`~repro.server.pool.WorkerPool`).
    """

    def __init__(
        self,
        workspace: Optional[Workspace] = None,
        *,
        jobs: Optional[int] = None,
        workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
        max_cache_mb: Optional[float] = None,
        remote_cache: Optional[str] = None,
        options: Optional[Mapping[str, object]] = None,
        drain_timeout: float = 30.0,
        backlog: int = 64,
        restart_budget: int = 3,
    ) -> None:
        self.workers = int(workers) if workers else 0
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.pool: Optional[WorkerPool] = None
        if self.workers:
            if workspace is not None:
                raise ValueError(
                    "workers >= 1 gives every worker its own workspace; "
                    "pass cache_dir=/options= instead of workspace="
                )
            self.pool = WorkerPool(
                self.workers,
                cache_dir=cache_dir,
                max_cache_mb=max_cache_mb,
                remote_cache=remote_cache,
                options=options,
                backlog=backlog,
                restart_budget=restart_budget,
            )
            self.workspace = None
        else:
            if workspace is None:
                workspace = Workspace(
                    cache_dir=cache_dir,
                    max_cache_mb=max_cache_mb,
                    remote_cache=remote_cache,
                    options=options,
                )
            elif cache_dir is not None or max_cache_mb is not None or remote_cache is not None:
                raise ValueError(
                    "pass either an existing workspace= or "
                    "cache_dir=/max_cache_mb=/remote_cache=, not both"
                )
            self.workspace = workspace
        self.jobs = jobs if jobs is not None else default_jobs()
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        self.drain_timeout = drain_timeout
        self._executor = ThreadPoolExecutor(
            max_workers=self.jobs, thread_name_prefix="tydi-serve"
        )
        #: Set once shutdown has fully drained; transports watch it
        #: (thread-safe: the CLI's signal handler may also set it).
        self.shutdown_requested = threading.Event()
        #: Set the moment a shutdown request is parsed: new work is
        #: rejected while in-flight requests finish.
        self.draining = threading.Event()
        self._drain_lock = threading.Lock()
        self._drain_result: Optional[bool] = None
        #: Every request's latency by method: see :meth:`record_request`.
        self.requests = Recorder()
        self._counters_lock = threading.Lock()
        self._in_flight = 0
        self._max_in_flight = 0
        self._shutdowns_in_flight = 0
        self._closed = False
        # watch_design subscriptions: token -> _Watch.  Registered through
        # the NDJSON connection's watch state (which owns the delivery
        # callback) and notified after each successful update_file.
        self._watch_lock = threading.Lock()
        self._watches: dict[int, _Watch] = {}
        self._next_watch_token = 0
        self._notify_tasks: set["asyncio.Task[None]"] = set()
        #: Repeat reads of unchanged designs, answered without the pools.
        self.read_memo = ReadMemo()
        if self.pool is not None:
            self.pool.on_respawn = self._drop_shard_reads

    # -- the request path ------------------------------------------------------

    async def respond(
        self, message: Any, watch: Any = None
    ) -> tuple[bytes, Optional[str]]:
        """One decoded request document in, its encoded response line out
        (with the error's stage, as :meth:`finish` returns it).

        ``watch`` is the NDJSON connection's watch state, which a
        ``watch_design`` subscribes; without one the method is rejected.
        Never raises: malformed envelopes, unknown methods, bad parameters
        and compile failures all come back as error lines.
        """
        start = time.perf_counter()
        try:
            request_id, method, params = protocol.parse_request(message)
        except Exception as exc:
            request_id, method = protocol.recover_request_id(message), None
            ok, payload = False, protocol.encode_error(exc)
        else:
            ok, payload = await self._answer(method, params, watch)
        return self.finish(request_id, method, start, ok, payload)

    def finish(
        self, request_id: Any, method: Optional[str], start: float, ok: bool, payload: Any
    ) -> tuple[bytes, Optional[str]]:
        """The response line of one answered request, recorded with its
        latency (``start`` is its ``time.perf_counter()``).

        ``payload`` is the result's JSON bytes, spliced into the line as
        they are, or the error object.  Returns the line and, for an error,
        its ``stage`` (``None`` for a success), which is all the HTTP front
        needs to pick a status.  The transport calls it for a line that is
        not JSON.
        """
        if ok:
            line, stage = protocol.success_line(request_id, payload), None
        else:
            line = protocol.encode({"id": request_id, "ok": False, "error": payload})
            stage = payload["stage"]
        self.record_request(method, time.perf_counter() - start, ok=ok)
        return line, stage

    def handle_sync(self, message: Any) -> dict[str, Any]:
        """:meth:`respond` for callers without a loop, decoded: the envelope
        a remote client would read, made of fresh objects every call."""
        line, _ = asyncio.run(self.respond(message))
        return json.loads(line)

    def record_request(self, method: Optional[str], seconds: float, *, ok: bool) -> None:
        """Count one answered request and its latency.

        Only known method names get their own series: arbitrary strings
        from misbehaving peers, and requests too malformed to name a
        method, land in ``<unknown>``, so they cannot grow the recorder (or
        the stats payload) without bound in a long-lived daemon.
        """
        name = method if method in METHODS else "<unknown>"
        self.requests.record(name, seconds, ok=ok)

    async def _answer(
        self, method: str, params: dict[str, Any], watch: Any
    ) -> tuple[bool, Any]:
        """One parsed request's ``(ok, payload)``, as :func:`run` returns it.

        A memoised read that succeeded stores its result bytes, and a repeat
        is answered with them, on the event loop."""
        entry = METHODS.get(method)
        try:
            if entry is None:
                raise protocol.unknown_method_error(method, sorted(METHODS))
            protocol.unknown_params_check(params, entry.params, method)
            if self.draining.is_set() and entry.drain_rejected:
                raise TydiDrainingError(
                    f"service is draining for shutdown; {method!r} rejected"
                )
        except Exception as exc:
            return False, protocol.encode_error(exc)
        design = params.get("design")
        target = params.get("target")
        memoised = (
            entry.kind == READ
            and isinstance(design, str)
            and (target is None or isinstance(target, str))
            and not (self.pool is not None and self.pool.worker_for(design).dead)
        )
        mutation = entry.kind == MUTATION and isinstance(design, str)
        if memoised:
            key = (design, method, target)
            stored = self.read_memo.lookup(key)
            if stored is not None:
                return True, stored
            generation = self.read_memo.generation(design)
        elif mutation:
            self.read_memo.invalidate(design)
        self._enter_request(entry.kind)
        try:
            ok, payload = await self._execute(entry, method, params, watch)
        except Exception as exc:  # backpressure, a draining pool, a closed executor
            ok, payload = False, protocol.encode_error(exc)
        finally:
            self._exit_request(entry.kind)
            if mutation:
                self.read_memo.invalidate(design)
        if ok and memoised:
            self.read_memo.store(key, generation, payload)
        if ok and method == "update_file":
            self._schedule_watch_notify(design)
        return ok, payload

    async def _execute(
        self, entry: Method, method: str, params: dict[str, Any], watch: Any
    ) -> tuple[bool, Any]:
        """Run one validated request where its kind says it runs."""
        if entry.kind == SHUTDOWN:
            return True, protocol.encode_result(await entry.handler(self, params))
        if entry.kind == WATCH:
            return run(watch, method, params)
        if not entry.in_executor:
            return run(self, method, params)
        if entry.pooled and self.pool is not None:
            return await asyncio.wrap_future(self.pool.submit(method, params))
        target = self.workspace if entry.pooled else self
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, run, target, method, params)

    def close(self) -> None:
        """Release workers and the compile pool (idempotent; pending work
        finishes -- the pool drains gracefully)."""
        if not self._closed:
            self._closed = True
            if self.pool is not None:
                self.pool.close()
            self._executor.shutdown(wait=True)

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the drain path --------------------------------------------------------

    async def drain(self) -> bool:
        """Drain, then stop: in-flight responses are never dropped.

        Sets :attr:`draining` immediately (new work is rejected), waits --
        off the event loop, and *not* on a compile-pool thread, so a full
        compile pool cannot deadlock the drain -- for every other
        in-flight request to complete, drains the worker pool, and only
        then sets :attr:`shutdown_requested` for the transport.  Returns
        whether everything finished within ``drain_timeout``.
        """
        self.draining.set()
        return await asyncio.get_running_loop().run_in_executor(None, self._drain_blocking)

    def _drain_blocking(self) -> bool:
        with self._drain_lock:  # concurrent shutdowns share one drain
            if self._drain_result is None:
                deadline = time.monotonic() + self.drain_timeout
                drained = self._wait_for_idle(deadline)
                if self.pool is not None:
                    remaining = max(0.1, deadline - time.monotonic())
                    drained = self.pool.drain(timeout=remaining) and drained
                self._drain_result = drained
            result = self._drain_result
        self.shutdown_requested.set()
        return result

    def _wait_for_idle(self, deadline: float) -> bool:
        """Until every non-shutdown in-flight request has completed."""
        while True:
            with self._counters_lock:
                busy = self._in_flight - self._shutdowns_in_flight
            if busy <= 0:
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.005)

    # -- the session views (``stats`` and ``get_report``) --------------------------

    def stats(self) -> dict[str, Any]:
        """The ``stats`` result: the request counters around every workspace's."""
        requests = self.requests.request_view()
        with self._counters_lock:
            server = {
                "requests": requests["requests"],
                "errors": requests["errors"],
                "in_flight": self._in_flight,
                "max_in_flight": self._max_in_flight,
                "methods": requests["methods"],
                "jobs": self.jobs,
                "workers": self.workers,
                "draining": self.draining.is_set(),
            }
        server["latency"] = requests["latency"]
        server["read_memo"] = self.read_memo.stats()
        if self.pool is not None:
            pool_stats = self.pool.stats()
            return {
                "server": server,
                "pool": pool_stats,
                "workspace": _aggregate_worker_workspaces(pool_stats),
            }
        return {"server": server, "workspace": self.workspace.stats()}

    def report(self) -> dict[str, Any]:
        """The ``get_report`` result.  Refused once draining, like compile
        work: a draining pool has no workers left to report."""
        if self.draining.is_set():
            raise TydiDrainingError("service is draining for shutdown; 'get_report' rejected")
        if self.pool is not None:
            return self.pool.report()
        return self.workspace.report()

    def _drop_shard_reads(self, shard: int) -> None:
        """Forget a respawned worker's designs: its replacement answers them."""
        self.read_memo.invalidate_where(lambda design: self.pool.shard_of(design) == shard)

    # -- watch subscriptions ---------------------------------------------------

    def add_watch(self, design: str, deliver, plan: Optional[Mapping] = None) -> int:
        """Register one ``watch_design`` subscription.

        ``deliver`` is a thread-safe callable taking one JSON-ready event
        dict; it must never block -- the NDJSON transport hands in a
        bounded drop-oldest queue.  ``plan`` is the wire-form simulation
        plan (or ``None`` for the default plan).  Returns the watch token
        to pass to :meth:`remove_watch` when the connection goes away.
        """
        plan_dict = dict(plan) if isinstance(plan, Mapping) else None
        with self._watch_lock:
            self._next_watch_token += 1
            token = self._next_watch_token
            self._watches[token] = _Watch(token, design, plan_dict, deliver)
        return token

    def remove_watch(self, token: int) -> None:
        with self._watch_lock:
            self._watches.pop(token, None)

    def has_watches(self, design: object) -> bool:
        with self._watch_lock:
            return any(watch.design == design for watch in self._watches.values())

    def _schedule_watch_notify(self, design: object) -> None:
        """Fire-and-forget the post-mutation notification task.

        Runs off the mutation's own request path so an ``update_file``
        response is never delayed by the recompile + simulation behind its
        watchers' notifications.
        """
        if not isinstance(design, str) or self.draining.is_set():
            return
        if not self.has_watches(design):
            return
        task = asyncio.get_running_loop().create_task(self._notify_watches(design))
        self._notify_tasks.add(task)
        task.add_done_callback(self._notify_tasks.discard)

    async def _notify_watches(self, design: str) -> None:
        """Push one diagnostics + sim-delta event to every watcher of a design.

        Diagnostics and simulation reports are computed through the normal
        request path, so pool mode routes to the owning shard and the
        ``sim:`` cache tier absorbs repeat plans; one simulation runs per
        *distinct* plan even when many watchers share it.  The pushed
        event always carries the diagnostics; the simulation report rides
        along only when it changed since the last push to that watcher
        (``sim_changed`` says which).
        """
        with self._watch_lock:
            watches = [w for w in self._watches.values() if w.design == design]
        if not watches or self.draining.is_set():
            return
        ok, payload = await self._answer("get_diagnostics", {"design": design}, None)
        if ok:
            diagnostics = json.loads(payload)["diagnostics"]
        else:
            # A design that no longer compiles answers get_diagnostics with
            # an error; fold it into the diagnostics shape so the watcher
            # still sees what broke.
            diagnostics = [
                {
                    "severity": "error",
                    "stage": payload.get("stage"),
                    "message": payload.get("message"),
                    "span": payload.get("span"),
                }
            ]
        sims: dict[str, tuple[bool, Any]] = {}
        for watch in watches:
            plan_key = json.dumps(watch.plan, sort_keys=True)
            if plan_key not in sims:
                sim_params: dict[str, Any] = {"design": design}
                if watch.plan is not None:
                    sim_params["plan"] = watch.plan
                sims[plan_key] = await self._answer("simulate_design", sim_params, None)
            ok, payload = sims[plan_key]
            if ok:
                result = json.loads(payload)
                sim = {"report": result["report"], "error": None}
                fingerprint = result.get("fingerprint")
            else:
                sim = {"report": None, "error": payload}
                fingerprint = None
            marker = json.dumps(sim, sort_keys=True)
            changed = marker != watch.last_sim
            watch.last_sim = marker
            event: dict[str, Any] = {
                "event": "design_update",
                "watch": watch.token,
                "design": design,
                "fingerprint": fingerprint,
                "diagnostics": diagnostics,
                "sim_changed": changed,
            }
            if changed:
                event["sim"] = sim
            try:
                watch.deliver(event)
            except Exception:  # pragma: no cover - dead connection callback
                self.remove_watch(watch.token)

    # -- in-flight accounting --------------------------------------------------

    def _enter_request(self, kind: str) -> None:
        with self._counters_lock:
            self._in_flight += 1
            self._max_in_flight = max(self._max_in_flight, self._in_flight)
            if kind == SHUTDOWN:
                self._shutdowns_in_flight += 1

    def _exit_request(self, kind: str) -> None:
        with self._counters_lock:
            self._in_flight -= 1
            if kind == SHUTDOWN:
                self._shutdowns_in_flight -= 1


def _aggregate_worker_workspaces(pool_stats: Mapping[str, Any]) -> dict[str, Any]:
    """Sum per-worker workspace stats into one workspace-shaped summary.

    Lets pool-mode ``stats`` consumers keep reading
    ``stats["workspace"]["designs"]["fresh"]`` etc. exactly as in
    single-process mode; workers whose stats could not be collected are
    counted in ``workers_missing``.
    """
    designs = {"total": 0, "fresh": 0, "stale": 0, "error": 0}
    stage_totals: dict[str, int] = {}
    profiling = Recorder()
    missing = 0
    for entry in pool_stats.get("per_worker", ()):
        workspace = entry.get("workspace")
        if not isinstance(workspace, Mapping):
            missing += 1
            continue
        for key, value in (workspace.get("designs") or {}).items():
            if key in designs and isinstance(value, int):
                designs[key] += value
        for key, value in (workspace.get("stage_cache") or {}).items():
            if isinstance(value, int):
                stage_totals[key] = stage_totals.get(key, 0) + value
        profiling.merge(workspace.get("profiling"))
    summary: dict[str, Any] = {
        "designs": designs,
        "stage_cache": stage_totals or None,
        "workers_missing": missing,
    }
    if profiling.enabled:
        summary["profiling"] = profiling.stage_view()
    return summary
