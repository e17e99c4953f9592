"""The compile-job engine.

A :class:`CompileJob` is a pure-data description of one design: a name,
its sources, a :class:`~repro.lang.compile.CompileOptions` and a frontend
kind (``"lang"`` for Tydi-lang sources, ``"ir"`` for one Tydi-IR
interchange document).  That makes it hashable into a content address and
shippable to worker processes, and :meth:`CompileJob.compile` is the one
place that picks a compile function by kind and by cache presence.
:func:`run_jobs` runs a sequence of jobs on a ``serial`` or ``process``
executor with per-job error isolation: one design failing its parse,
ingest or DRC records a :class:`JobResult` error entry instead of aborting
the batch.  (Threads cannot help: the frontend is pure Python and holds
the GIL.)

The engine is driven by :meth:`repro.workspace.Workspace.compile_all` --
the session API that owns design state.

Determinism: the frontend is pure, so batch output is byte-identical to
compiling the same jobs serially (asserted by
``benchmarks/test_pipeline_throughput.py``).

Cache interaction
-----------------
* ``serial``: jobs compile through the caller's
  :class:`~repro.pipeline.stages.StageCache`, so a warm design is one
  frontend-snapshot hit plus its backends.
* ``process``: the cache object cannot be shared, so each worker process
  opens one :class:`~repro.pipeline.stages.StageCache` over the parent
  cache's directory, disk budget and remote endpoint, and hits/populates
  the disk and remote tiers.  The parent's memory tiers and counters stay
  as they were.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.errors import TydiWorkspaceError
from repro.lang.compile import (
    CompilationResult,
    CompileOptions,
    normalize_sources,
    run_pipeline,
)
from repro.pipeline.stages import StageCache

EXECUTORS = ("serial", "process")

#: Frontend kinds: Tydi-lang sources, or one Tydi-IR interchange document.
KINDS = ("lang", "ir")


@dataclass(frozen=True)
class CompileJob:
    """One independent design to compile (pure data, picklable).

    ``options`` defaults to ``CompileOptions(project_name=name)``; explicit
    options are used as given, so they name the project themselves
    (``CompileOptions``' own default is ``"design"``).  For ``kind="ir"``
    the first source is the document (see :mod:`repro.interchange`); the
    evaluate-only options do not apply to it.
    """

    name: str
    sources: tuple[tuple[str, str], ...]
    options: Optional[CompileOptions] = None
    kind: str = "lang"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        object.__setattr__(self, "sources", normalize_sources(self.sources))
        options = (
            CompileOptions(project_name=self.name)
            if self.options is None
            else CompileOptions.coerce(self.options)
        )
        object.__setattr__(self, "options", options)

    def fingerprint(self) -> str:
        """Content address of this job (sources + options + stdlib + kind)."""
        return self.options.fingerprint(self.sources, kind=self.kind)

    def with_options(self, **changes: object) -> "CompileJob":
        """A copy of this job with some option fields replaced."""
        return replace(self, options=self.options.replace(**changes))

    def compile(self, cache: Optional[StageCache] = None) -> CompilationResult:
        """Compile this job directly (no executor, no error isolation).

        The one place that picks a compile function: by kind, the Tydi-lang
        pipeline or the ingest pipeline, each through ``cache`` when given.
        """
        if self.kind == "lang":
            if cache is not None:
                return cache.compile(self.sources, self.options)
            return run_pipeline(self.sources, self.options)
        if not self.sources:
            raise TydiWorkspaceError(
                f"IR design {self.name!r} has no document (was its file removed?)"
            )
        text, filename = self.sources[0]
        if cache is not None:
            return cache.compile_ir(text, self.options, filename=filename)
        from repro.interchange.pipeline import compile_ir_document

        return compile_ir_document(text, self.options, filename=filename)


@dataclass
class JobResult:
    """Outcome of one job: a result, or an isolated error."""

    job: CompileJob
    result: Optional[CompilationResult] = None
    error: Optional[str] = None
    error_stage: Optional[str] = None
    error_type: Optional[str] = None
    elapsed: float = 0.0

    @property
    def name(self) -> str:
        return self.job.name

    @property
    def ok(self) -> bool:
        return self.error is None

    def status(self) -> str:
        return "compiled" if self.ok else "error"

    def as_dict(self) -> dict[str, object]:
        """JSON-ready summary (used by ``tydi-compile --batch --json``)."""
        entry: dict[str, object] = {
            "name": self.name,
            "status": self.status(),
            "elapsed": round(self.elapsed, 6),
        }
        if self.ok:
            entry["statistics"] = self.result.project.statistics()
            if self.result.outputs:
                entry["outputs"] = {
                    target: len(files) for target, files in self.result.outputs.items()
                }
        else:
            entry["error"] = self.error
            entry["error_stage"] = self.error_stage
            entry["error_type"] = self.error_type
        return entry


@dataclass
class BatchResult:
    """All job results of one batch, in the input job order."""

    results: list[JobResult]
    wall_time: float
    executor: str
    workers: int

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> list[JobResult]:
        return [r for r in self.results if not r.ok]

    def result_map(self) -> dict[str, CompilationResult]:
        """Successful results by job name."""
        return {r.name: r.result for r in self.results if r.ok}

    def raise_if_failed(self) -> None:
        """Re-raise the first failure (for callers that want all-or-nothing)."""
        for entry in self.results:
            if not entry.ok:
                raise BatchCompilationError(self)

    def stats(self) -> dict[str, object]:
        failed = len(self.failures)
        return {
            "jobs": len(self.results),
            "succeeded": len(self.results) - failed,
            "failed": failed,
            "executor": self.executor,
            "workers": self.workers,
            "wall_time": round(self.wall_time, 6),
            "job_time_total": round(sum(r.elapsed for r in self.results), 6),
            "throughput": round(len(self.results) / self.wall_time, 3)
            if self.wall_time > 0
            else None,
        }


class BatchCompilationError(Exception):
    """Raised by :meth:`BatchResult.raise_if_failed` when any job failed."""

    def __init__(self, batch: BatchResult) -> None:
        self.batch = batch
        lines = [f"{len(batch.failures)} of {len(batch)} design(s) failed to compile:"]
        for entry in batch.failures:
            lines.append(f"  {entry.name} [{entry.error_stage or 'unknown'}]: {entry.error}")
        super().__init__("\n".join(lines))


def _execute_job(job: CompileJob, cache: Optional[StageCache]) -> JobResult:
    """Compile one job with error isolation; shared by every executor."""
    start = time.perf_counter()
    try:
        result = job.compile(cache)
    except Exception as exc:  # noqa: BLE001 - isolation is the whole point
        return JobResult(
            job=job,
            error=str(exc) or traceback.format_exc(limit=1).strip(),
            error_stage=getattr(exc, "stage", None),
            error_type=type(exc).__name__,
            elapsed=time.perf_counter() - start,
        )
    return JobResult(job=job, result=result, elapsed=time.perf_counter() - start)


#: The cache a ``process`` worker compiles through, opened once per worker
#: process by :func:`_open_worker_cache` (``None``: the batch is uncached).
_WORKER_CACHE: Optional[StageCache] = None


def _open_worker_cache(settings: Optional[tuple]) -> None:
    """Process-pool initializer: open this worker's cache once.

    ``settings`` is the parent cache's ``(cache_dir, max_disk_bytes,
    remote endpoint)``; the remote client is dialled here, after the fork.
    """
    global _WORKER_CACHE
    if settings is not None:
        cache_dir, max_disk_bytes, remote = settings
        _WORKER_CACHE = StageCache(
            cache_dir=cache_dir, max_disk_bytes=max_disk_bytes, remote=remote
        )


def _process_worker(job: CompileJob) -> JobResult:
    """Process-pool entry point: compile through the worker's cache."""
    outcome = _execute_job(job, _WORKER_CACHE)
    if _WORKER_CACHE is not None and _WORKER_CACHE.remote is not None:
        # Pool workers exit without running atexit hooks: drain the
        # write-behind uploads before the job counts as done.
        _WORKER_CACHE.remote.flush()
    return outcome


def _worker_count(executor: str, max_workers: Optional[int], num_jobs: int) -> int:
    """Resolve the effective worker count for one batch.

    An explicit ``max_workers`` is always respected (clamped to the job
    count); the default is the CPU count.
    """
    if executor == "serial" or num_jobs <= 1:
        return 1
    if max_workers is not None:
        return max(1, min(max_workers, num_jobs))
    return max(1, min(os.cpu_count() or 2, num_jobs))


def run_jobs(
    jobs: Sequence[CompileJob],
    *,
    cache: Optional[StageCache] = None,
    executor: str = "serial",
    max_workers: Optional[int] = None,
) -> BatchResult:
    """Compile every job through one executor; failures are recorded per job.

    The shared engine under :meth:`repro.workspace.Workspace.compile_all`.

    Parameters
    ----------
    cache:
        A shared :class:`~repro.pipeline.stages.StageCache`; a job whose
        frontend snapshot hits runs only its backends.
    executor:
        ``"serial"`` or ``"process"``.  Serial jobs share the cache
        object; processes share its disk and remote tiers.
    max_workers:
        Worker count for the process executor (default: the CPU count;
        an explicit value is always respected, see :func:`_worker_count`).
    """
    if executor not in EXECUTORS:
        raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
    jobs = list(jobs)
    names = [job.name for job in jobs]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate job name(s) in batch: {', '.join(dupes)}")

    start = time.perf_counter()
    workers = _worker_count(executor, max_workers, len(jobs))
    if workers == 1:
        results = [_execute_job(job, cache) for job in jobs]
        executor_name = "serial"
    else:
        settings = None
        if cache is not None:
            remote = cache.remote.endpoint if cache.remote is not None else None
            settings = (cache.cache_dir, cache.max_disk_bytes, remote)
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_open_worker_cache, initargs=(settings,)
        ) as pool:
            results = list(pool.map(_process_worker, jobs))
        executor_name = "process"
    return BatchResult(
        results=results,
        wall_time=time.perf_counter() - start,
        executor=executor_name,
        workers=workers,
    )
