"""Batch compilation pipeline: caching and fan-out.

The frontend of Figure 3 (:func:`repro.lang.compile.compile_sources`) is a
pure function of its source texts and options.  This package exploits that:

* :mod:`repro.pipeline.store` -- :class:`~repro.pipeline.store.
  TieredStore`, the one memory LRU -> disk -> remote L2 store behind
  every cache tier below.
* :mod:`repro.pipeline.cache` -- the content addresses: version salts and
  :func:`~repro.pipeline.cache.fingerprint_sources`.
* :mod:`repro.pipeline.stages` -- :class:`~repro.pipeline.stages.
  StageCache`, the compilation cache: per-file parse ASTs, post-DRC
  frontend snapshots (of Tydi-lang designs and of ingested Tydi-IR
  documents), backend units and simulation reports, so a warm design runs
  only its backends and a one-file edit re-parses only that file.
* :mod:`repro.pipeline.remote` -- :class:`~repro.pipeline.remote.
  RemoteCacheClient`, the shared remote L2 tier every store consults
  after its local misses (write-behind uploads, graceful degradation when
  the remote dies); the server side is :mod:`repro.server.cachesvc`.
* :mod:`repro.pipeline.batch` -- :class:`~repro.pipeline.batch.
  CompileJob` (one design of either frontend and its one compile method)
  and :func:`~repro.pipeline.batch.run_jobs`, the job engine (serial /
  process executors with per-design error isolation) that
  :meth:`repro.workspace.Workspace.compile_all` drives.

See ``docs/pipeline.md`` for the architecture, ``docs/cache.md`` for the
store and its layout, and ``docs/workspace.md`` for the session API on top.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BatchCompilationError",
    "BatchResult",
    "CacheStats",
    "CompileJob",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_CACHE_PORT",
    "JobResult",
    "RemoteCacheClient",
    "STAGE_SCHEMA_VERSION",
    "StageCache",
    "StageStats",
    "TieredStore",
    "file_fingerprint",
    "fingerprint_sources",
    "normalize_sources",
    "parse_endpoint",
    "run_jobs",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.pipeline.batch": (
            "BatchCompilationError",
            "BatchResult",
            "CompileJob",
            "JobResult",
            "run_jobs",
        ),
        "repro.pipeline.cache": (
            "DEFAULT_CACHE_DIR",
            "STAGE_SCHEMA_VERSION",
            "fingerprint_sources",
            "normalize_sources",
        ),
        "repro.pipeline.remote": ("DEFAULT_CACHE_PORT", "RemoteCacheClient", "parse_endpoint"),
        "repro.pipeline.stages": ("StageCache", "StageStats", "file_fingerprint"),
        "repro.pipeline.store": ("CacheStats", "TieredStore"),
    },
)
