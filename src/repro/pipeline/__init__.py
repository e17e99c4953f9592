"""Batch compilation pipeline: caching and concurrent fan-out.

The frontend of Figure 3 (:func:`repro.lang.compile.compile_sources`) is a
pure function of its source texts and options.  This package exploits that:

* :mod:`repro.pipeline.store` -- :class:`~repro.pipeline.store.
  TieredStore`, the one memory LRU -> disk -> remote L2 store behind
  every cache tier below.
* :mod:`repro.pipeline.cache` -- a content-addressed store of compilation
  results (in-memory LRU plus an optional on-disk tier under
  ``.tydi-cache/``), keyed by :func:`~repro.pipeline.cache.
  fingerprint_sources`, with size-aware disk eviction (``max_disk_bytes``).
* :mod:`repro.pipeline.stages` -- :class:`~repro.pipeline.stages.
  StageCache`, per-stage sub-caching (per-file parse ASTs, post-evaluate
  snapshots, backend units, simulation reports) so a one-file edit of an
  N-file design re-parses only that file.
* :mod:`repro.pipeline.remote` -- :class:`~repro.pipeline.remote.
  RemoteCacheClient`, the shared remote L2 tier every store consults
  after its local misses (write-behind uploads, graceful degradation when
  the remote dies); the server side is :mod:`repro.server.cachesvc`.
* :mod:`repro.pipeline.batch` -- :func:`~repro.pipeline.batch.run_jobs`,
  the concurrent job engine (serial / thread / process executors with
  per-design error isolation) that :meth:`repro.workspace.Workspace.
  compile_all` drives.

See ``docs/pipeline.md`` for the architecture, ``docs/cache.md`` for the
store and its layout, and ``docs/workspace.md`` for the session API on top.
"""

from repro.pipeline.batch import (
    BatchCompilationError,
    BatchResult,
    CompileJob,
    JobResult,
    run_jobs,
)
from repro.pipeline.cache import (
    CacheStats,
    CompilationCache,
    DEFAULT_CACHE_DIR,
    STAGE_SCHEMA_VERSION,
    fingerprint_sources,
    normalize_sources,
)
from repro.pipeline.remote import DEFAULT_CACHE_PORT, RemoteCacheClient, parse_endpoint
from repro.pipeline.stages import StageCache, StageStats, file_fingerprint
from repro.pipeline.store import TieredStore

__all__ = [
    "BatchCompilationError",
    "BatchResult",
    "CacheStats",
    "CompilationCache",
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
