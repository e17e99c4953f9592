"""The multi-process compile worker pool: warm forks, design sharding, ops.

``tydi-serve`` was one process, one GIL: parse/evaluate/sugar/DRC are pure
Python CPU work, so the PR-5 thread pool serialized concurrent clients.
:class:`WorkerPool` is the scale-out: it **forks** N worker processes
*after* the stdlib AST is parsed (:func:`warm_stdlib` -- every worker
inherits the warm parse instead of paying ~60ms on its first job) and
routes every design-addressed request to the worker that owns the design's
shard.

**Sharding** is a stable content hash of the design *name*
(:func:`shard_for`): the same design always lands on the same worker, so
that worker's in-memory :class:`~repro.pipeline.stages.StageCache` tiers
and :class:`~repro.workspace.Workspace` memos stay hot for its shard --
the in-memory analogue of the on-disk content addressing the cache stack
already uses.  Workers sharing a ``cache_dir`` still share cold artefacts
through the multi-process-safe disk tiers.

**Ops surface** (what a real deployment needs, per ROADMAP item 1):

* *lifespan*: a worker that dies (crash, OOM kill) is detected by EOF on
  its result pipe and respawned within a capped restart budget; the
  parent replays the shard's design state (it mirrors every successful
  mutation), then retries the in-flight job once -- a second crash on the
  same job returns a structured :class:`~repro.errors.TydiServerError`
  instead of looping a poison job forever.
* *graceful drain*: :meth:`WorkerPool.drain` stops intake (submits raise
  :class:`~repro.errors.TydiDrainingError`), lets queued and in-flight
  jobs finish, then EOFs each worker's job pipe and joins it.
* *backpressure*: each worker has a bounded FIFO queue; a full queue
  rejects with :class:`~repro.errors.TydiBackpressureError` rather than
  buffering without bound.
* *stats*: per-worker dispatch/retry/restart counters, queue depths,
  design counts and (on demand) each worker's workspace cache stats.

The pool requires the ``fork`` start method (Linux/macOS); platforms
without it keep the ``workers=0`` in-process thread path.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import queue
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Callable, Mapping, Optional

from repro.errors import TydiBackpressureError, TydiDrainingError, TydiServerError
from repro.server import protocol
from repro.server.worker import read_frame, worker_main, write_frame


def shard_for(design: str, shards: int) -> int:
    """The worker index owning one design name (stable across processes).

    A content hash, *not* Python's salted ``hash()``: the same design must
    map to the same shard across daemon restarts and on every platform,
    or the per-shard warm state would be shuffled away on each run.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    digest = hashlib.sha256(design.encode("utf-8", "surrogatepass")).digest()
    return int.from_bytes(digest[:8], "big") % shards


def warm_stdlib() -> None:
    """Parse the stdlib once in this process (memoised), pre-fork.

    Forked workers inherit the parsed AST via copy-on-write memory, which
    is the whole point of forking *after* this call.
    """
    from repro.lang.compile import parse_stage

    parse_stage((), include_stdlib=True)


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


class _PoolJob:
    """One request travelling through a worker queue: a design job, or (when
    ``collect``) one worker's share of a ``stats`` / ``get_report`` answer."""

    __slots__ = ("job_id", "method", "params", "collect", "future")

    def __init__(self, job_id: int, method: str, params: dict, collect: bool = False) -> None:
        self.job_id = job_id
        self.method = method
        self.params = params
        self.collect = collect
        #: Resolves to the worker's ``(ok, payload)`` (see ``methods.run``);
        #: a collection resolves to ``None`` when the worker could not answer.
        self.future: "Future[Optional[tuple[bool, Any]]]" = Future()


def _error_reply(message: str) -> tuple[bool, Any]:
    """A worker reply the pool answers itself: a structured server error."""
    return False, protocol.encode_error(TydiServerError(message))


#: Queue sentinel: drain this worker (EOF the job pipe, join the process).
_EXIT = object()


class _Worker:
    """Parent-side handle of one worker: process, pipes, queue, dispatcher.

    All pipe I/O and all mutable per-worker state (the shard's design
    mirror, the counters) are owned by the single dispatcher thread, so
    the frame protocol needs no locks: one write, one read, strictly FIFO.
    """

    def __init__(self, pool: "WorkerPool", index: int) -> None:
        self.pool = pool
        self.index = index
        self.queue: "queue.Queue[Any]" = queue.Queue(maxsize=pool.backlog)
        self.proc: Optional[multiprocessing.process.BaseProcess] = None
        self.job_w = -1
        self.result_r = -1
        self.restarts = 0
        self.retries = 0
        self.dispatched = 0
        self.errors = 0
        self.dead = False  # restart budget exhausted: shard answers errors
        #: Mirror of the shard's design state -- ``{name: (files, options,
        #: kind)}`` where ``kind`` is ``"lang"`` (``open_design``) or
        #: ``"ir"`` (``open_ir_design``) -- maintained from successful
        #: mutations, replayed on respawn through the matching open method.
        self.designs: dict[str, tuple[dict[str, str], Optional[dict], str]] = {}
        self.thread = threading.Thread(
            target=self._run, name=f"tydi-pool-{index}", daemon=True
        )

    # -- process lifecycle (dispatcher thread only, after start) ---------------

    def spawn(self) -> None:
        job_r, job_w = os.pipe()
        result_r, result_w = os.pipe()
        # Fork copies the whole fd table, so the child starts by closing
        # every pipe end it must not hold: its own parent-side ends and
        # every sibling's ends.  Without this, the parent closing a job
        # pipe is never the last write end (no EOF = no drain) and a
        # crashed sibling's result pipe never EOFs (no crash detection).
        close_in_child = (job_w, result_r) + self.pool.parent_side_fds(exclude=self.index)
        self.proc = self.pool.ctx.Process(
            target=worker_main,
            args=(self.index, job_r, result_w, self.pool.worker_config, close_in_child),
            name=f"tydi-worker-{self.index}",
            daemon=True,
        )
        self.proc.start()
        os.close(job_r)
        os.close(result_w)
        self.job_w = job_w
        self.result_r = result_r

    def start(self) -> None:
        self.spawn()
        self.thread.start()

    def _close_pipes(self) -> None:
        for fd in (self.job_w, self.result_r):
            if fd >= 0:
                try:
                    os.close(fd)
                except OSError:
                    pass
        self.job_w = self.result_r = -1

    def _reap(self) -> None:
        """Put a crashed/old worker process fully to rest."""
        self._close_pipes()
        proc = self.proc
        if proc is not None:
            proc.join(timeout=1.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.kill()
                proc.join(timeout=5.0)
        self.proc = None

    # -- the dispatcher loop ---------------------------------------------------

    def _run(self) -> None:
        while True:
            job = self.queue.get()
            if job is _EXIT:
                self._graceful_exit()
                return
            self._do_job(job)

    def _graceful_exit(self) -> None:
        proc = self.proc
        if self.job_w >= 0:
            try:
                os.close(self.job_w)  # EOF: the worker drains and exits
            except OSError:
                pass
            self.job_w = -1
        if proc is not None:
            proc.join(timeout=self.pool.drain_join_timeout)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.kill()
                proc.join(timeout=5.0)
        self._close_pipes()
        self.proc = None

    def _exchange(self, job_id: int, method: str, params: Mapping[str, Any]) -> Optional[tuple]:
        """One frame out, its ``(ok, payload)`` back; ``None`` means the
        worker died (or desynced, which gets the same treatment)."""
        try:
            write_frame(self.job_w, (job_id, method, params))
            reply = read_frame(self.result_r)
        except (OSError, ValueError):
            return None
        if reply is None or reply[0] != job_id:
            return None
        return reply[1:]

    def _do_job(self, job: _PoolJob) -> None:
        if job.collect:
            # Collection is best-effort observability: it is not dispatched
            # work and never burns a restart (the next job respawns).
            reply = None if self.dead else self._exchange(job.job_id, job.method, job.params)
            job.future.set_result(reply)
            return
        if self.dead:
            job.future.set_result(self._dead_reply())
            return
        self.dispatched += 1
        for attempt in (1, 2):
            reply = self._exchange(job.job_id, job.method, job.params)
            if reply is not None:
                if reply[0]:
                    self._mirror(job.method, job.params)
                else:
                    self.errors += 1
                job.future.set_result(reply)
                return
            # The worker died under this job: a fresh process with
            # replayed state, then one retry.
            if not self._respawn_and_replay():
                job.future.set_result(self._dead_reply())
                return
            if attempt == 1:
                self.retries += 1
        self.errors += 1
        job.future.set_result(
            _error_reply(
                f"worker {self.index} crashed twice while serving "
                f"{job.method!r}; giving up on this request (the worker "
                f"was restarted and its designs replayed)"
            )
        )

    def _dead_reply(self) -> tuple[bool, Any]:
        self.errors += 1
        return _error_reply(
            f"worker {self.index} exceeded its restart budget "
            f"({self.pool.restart_budget} restarts) and is out of service; "
            f"restart the daemon"
        )

    def _respawn_and_replay(self) -> bool:
        """Fork a replacement and replay the shard's designs into it.

        Returns ``False`` once the restart budget is exhausted (the shard
        then answers every job with a structured error instead of fork-
        bombing on a systemic failure).
        """
        while True:
            self._reap()
            if self.restarts >= self.pool.restart_budget:
                self.dead = True
                return False
            self.restarts += 1
            self.pool.note_restart()
            self.pool.on_respawn(self.index)
            self.spawn()
            if self._replay():
                return True

    def _replay(self) -> bool:
        """Re-open every mirrored design in a fresh worker (FIFO, awaited)."""
        for name, (files, options, kind) in self.designs.items():
            params: dict[str, Any] = {"design": name, "replace": True}
            if kind == "ir":
                if not files:  # document removed: nothing to replay
                    continue
                method = "open_ir_design"
                params["text"] = next(iter(files.values()))
            else:
                method = "open_design"
                params["files"] = files
            if options is not None:
                params["options"] = options
            if self._exchange(-1, method, params) is None:
                return False  # died during replay: caller loops on budget
        return True

    def _mirror(self, method: str, params: Mapping[str, Any]) -> None:
        """Fold one *successful* mutation into the shard's design mirror."""
        design = params.get("design")
        if not isinstance(design, str):
            return
        if method == "open_design":
            files = params.get("files", {})
            try:
                from repro.lang.compile import normalize_sources

                normalized = normalize_sources(files)
            except Exception:  # pragma: no cover - worker accepted it
                return
            options = params.get("options")
            self.designs[design] = (
                {filename: text for text, filename in normalized},
                dict(options) if isinstance(options, Mapping) else None,
                "lang",
            )
        elif method == "open_ir_design":
            options = params.get("options")
            self.designs[design] = (
                {f"{design}.tir": str(params.get("text", ""))},
                dict(options) if isinstance(options, Mapping) else None,
                "ir",
            )
        elif method == "update_file":
            entry = self.designs.get(design)
            if entry is not None:
                entry[0][str(params.get("filename"))] = str(params.get("text"))
        elif method == "remove_file":
            entry = self.designs.get(design)
            if entry is not None:
                entry[0].pop(params.get("filename"), None)
        elif method == "remove_design":
            self.designs.pop(design, None)

    # -- observability (any thread; racy int reads are fine) -------------------

    def snapshot(self) -> dict[str, Any]:
        proc = self.proc
        return {
            "worker": self.index,
            "pid": proc.pid if proc is not None else None,
            "alive": bool(proc is not None and proc.is_alive()) and not self.dead,
            "designs": len(self.designs),
            "queue_depth": self.queue.qsize(),
            "dispatched": self.dispatched,
            "errors": self.errors,
            "retries": self.retries,
            "restarts": self.restarts,
        }


class WorkerPool:
    """N forked compile workers with design sharding and a drain lifecycle.

    Parameters
    ----------
    workers:
        Process count (>= 1).
    cache_dir / max_cache_mb / remote_cache / options:
        Workspace wiring handed to every worker (one shared on-disk cache,
        private in-memory tiers; ``remote_cache`` is an endpoint *string*,
        so each worker dials its own connection to the parent's shared
        remote tier after the fork).
    backlog:
        Bounded per-worker queue depth; a full queue rejects submits with
        :class:`~repro.errors.TydiBackpressureError`.
    restart_budget:
        Crash respawns allowed *per worker* before its shard is declared
        out of service.
    """

    def __init__(
        self,
        workers: int,
        *,
        cache_dir: Optional[str] = None,
        max_cache_mb: Optional[float] = None,
        remote_cache: Optional[str] = None,
        options: Optional[Mapping[str, object]] = None,
        backlog: int = 64,
        restart_budget: int = 3,
        drain_join_timeout: float = 30.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if backlog < 1:
            raise ValueError(f"backlog must be >= 1, got {backlog}")
        if not fork_available():
            raise TydiServerError(
                "the worker pool requires the 'fork' start method (not "
                "available on this platform); run with --workers 0"
            )
        self.ctx = multiprocessing.get_context("fork")
        self.backlog = backlog
        self.restart_budget = restart_budget
        self.drain_join_timeout = drain_join_timeout
        self.worker_config: dict[str, Any] = {
            "cache_dir": cache_dir,
            "max_cache_mb": max_cache_mb,
            "remote_cache": remote_cache,
            "options": dict(options) if options is not None else None,
        }
        self._lock = threading.Lock()
        self._next_job_id = 0
        self._total_restarts = 0
        self._draining = False
        self._drained = False
        #: Called with a worker's index whenever a replacement is forked for
        #: it (the service drops that shard's memoised reads).
        self.on_respawn: Callable[[int], None] = lambda index: None
        # Parse the stdlib *before* the first fork: every worker inherits
        # the warm AST through copy-on-write pages.
        warm_stdlib()
        self.workers = [_Worker(self, index) for index in range(workers)]
        for worker in self.workers:
            worker.start()

    # -- intake ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.workers)

    def shard_of(self, design: str) -> int:
        return shard_for(design, len(self.workers))

    def worker_for(self, design: object) -> "_Worker":
        """The worker a request for ``design`` goes to (shard 0 without one)."""
        return self.workers[self.shard_of(design) if isinstance(design, str) and design else 0]

    def parent_side_fds(self, *, exclude: int) -> tuple[int, ...]:
        """Every other worker's parent-side pipe fds (for a fork to close).

        A racy snapshot is fine: a stale fd number is either closed in the
        child already (EBADF, ignored) or refers to a sibling's freshly
        respawned pipe -- which the child must close anyway.
        """
        fds: list[int] = []
        for worker in self.workers:
            if worker.index == exclude:
                continue
            for fd in (worker.job_w, worker.result_r):
                if fd >= 0:
                    fds.append(fd)
        return tuple(fds)

    def submit(self, method: str, params: Mapping[str, Any]) -> "Future[tuple[bool, Any]]":
        """Queue one design-addressed request; returns a future of the
        worker's ``(ok, payload)``: the result's JSON bytes, or the error
        object.

        Raises :class:`~repro.errors.TydiDrainingError` once draining and
        :class:`~repro.errors.TydiBackpressureError` when the target
        worker's queue is full -- both *before* any state changes.
        """
        if self._draining:
            raise TydiDrainingError(
                f"service is draining for shutdown; {method!r} rejected "
                f"(in-flight requests are completing)"
            )
        worker = self.worker_for(params.get("design"))
        job = self._job(method, params)
        try:
            worker.queue.put_nowait(job)
        except queue.Full:
            raise TydiBackpressureError(
                f"worker {worker.index} has {self.backlog} jobs queued (bounded "
                f"backlog); back off and retry {method!r}"
            ) from None
        return job.future

    def _job(self, method: str, params: Mapping[str, Any], collect: bool = False) -> _PoolJob:
        with self._lock:
            self._next_job_id += 1
            return _PoolJob(self._next_job_id, method, dict(params), collect)

    # -- observability ---------------------------------------------------------

    def note_restart(self) -> None:
        with self._lock:
            self._total_restarts += 1

    @property
    def total_restarts(self) -> int:
        with self._lock:
            return self._total_restarts

    @property
    def draining(self) -> bool:
        return self._draining

    def stats(self, *, include_workspaces: bool = True, timeout: float = 10.0) -> dict[str, Any]:
        """Pool counters plus (optionally) each worker's workspace stats."""
        payload: dict[str, Any] = {
            "workers": len(self.workers),
            "backlog": self.backlog,
            "restart_budget": self.restart_budget,
            "restarts": self.total_restarts,
            "draining": self._draining,
            "per_worker": [worker.snapshot() for worker in self.workers],
        }
        if include_workspaces and not self._draining:
            workspaces = self._collect("stats", timeout=timeout)
            for entry, workspace_stats in zip(payload["per_worker"], workspaces):
                entry["workspace"] = workspace_stats
        return payload

    def report(self, *, timeout: float = 10.0) -> dict[str, Any]:
        """Aggregated ``get_report``: merged designs plus per-worker reports."""
        reports = self._collect("get_report", timeout=timeout)
        merged_designs: dict[str, Any] = {}
        per_worker: dict[str, Any] = {}
        for worker, report in zip(self.workers, reports):
            if report is None:
                per_worker[str(worker.index)] = None
                continue
            per_worker[str(worker.index)] = report
            designs = report.get("designs")
            if isinstance(designs, Mapping):
                merged_designs.update(designs)
        return {"designs": merged_designs, "workers": per_worker}

    def _collect(self, method: str, *, timeout: float) -> list[Optional[dict]]:
        """Every worker's answer to one session method (``None`` for a
        worker that could not give one within ``timeout``, one deadline
        shared by all the waits)."""
        deadline = time.monotonic() + timeout
        jobs: list[Optional[_PoolJob]] = []
        for worker in self.workers:
            job = self._job(method, {}, collect=True)
            try:
                worker.queue.put(job, timeout=max(0.0, min(1.0, deadline - time.monotonic())))
                jobs.append(job)
            except queue.Full:
                jobs.append(None)
        results: list[Optional[dict]] = []
        for job in jobs:
            try:
                remaining = max(0.0, deadline - time.monotonic())
                reply = job.future.result(timeout=remaining) if job is not None else None
            except FutureTimeoutError:
                reply = None
            results.append(json.loads(reply[1]) if reply is not None and reply[0] else None)
        return results

    # -- lifecycle -------------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: finish queued jobs, EOF and join every worker.

        Idempotent.  Returns ``True`` when every dispatcher wound down in
        time.  New submits are rejected the moment draining starts.
        """
        with self._lock:
            if self._drained:
                return True
            first = not self._draining
            self._draining = True
        if first:
            for worker in self.workers:
                worker.queue.put(_EXIT)  # behind all queued jobs: FIFO drain
        deadline = None if timeout is None else (timeout / max(1, len(self.workers)))
        clean = True
        for worker in self.workers:
            worker.thread.join(timeout=deadline)
            if worker.thread.is_alive():
                clean = False
        if clean:
            with self._lock:
                self._drained = True
        return clean

    def close(self) -> None:
        self.drain(timeout=self.drain_join_timeout)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
