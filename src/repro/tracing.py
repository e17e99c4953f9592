"""One recorder for stage timings and request latencies.

A :class:`Recorder` folds every timed run of a name into one series: the
run count, how many of the runs failed, wall and CPU totals, the fastest
and slowest run, and a histogram on a power-of-two millisecond scale
(:data:`BUCKET_BOUNDS_MS`), so sub-millisecond cache hits and multi-second
cold compiles share one axis.  Nothing is kept per run, so a long-lived
daemon's memory does not grow with its traffic.  Two instances are in use:

* :data:`STAGES`, the process-wide recorder the Figure-3 stage functions
  (:mod:`repro.lang.compile`, :mod:`repro.interchange.pipeline`) time
  themselves with.  It is off unless the ``TYDI_PROFILE_STAGES``
  environment variable is set (read once at import, so forked pool
  workers inherit it) or the ``--profile-stages`` flag of ``tydi-compile``
  / ``tydi-serve serve`` turns it on; while off, :meth:`Recorder.span`
  hands out one shared no-op context.  :meth:`Workspace.stats
  <repro.workspace.Workspace.stats>` carries its :meth:`~Recorder.stage_view`
  as ``"profiling"``, and a pool's parent sums its workers' views with
  :meth:`~Recorder.merge`.
* one per :class:`~repro.server.service.CompileService`, fed every
  request's latency; the ``stats`` endpoint's request counters and
  per-method histograms are its :meth:`~Recorder.request_view`.

Spans time wall (``perf_counter``) and CPU (``process_time``) time, so a
stage that blocks on I/O (disk cache, remote L2) reads differently from
one that burns cycles.  Percentiles are upper-bound estimates read off
the bucket bounds (bounded memory, ~2x resolution); the exact min and max
are reported beside them, so the estimate error is always visible.
"""

from __future__ import annotations

import math
import os
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager, nullcontext
from typing import Any, Mapping, Optional

#: Environment switch of :data:`STAGES`: any value but ``""``, ``"0"``,
#: ``"false"``, ``"no"`` or ``"off"`` (case-insensitive) turns it on.
ENV_VAR = "TYDI_PROFILE_STAGES"

#: Bucket upper bounds in milliseconds: powers of two from 1 ms to ~65 s.
#: A run slower than the last bound lands in one more, overflow bucket.
BUCKET_BOUNDS_MS: tuple[float, ...] = tuple(float(1 << i) for i in range(17))

_OFF = nullcontext()


def _env_enabled(value: Optional[str]) -> bool:
    if value is None:
        return False
    return value.strip().lower() not in ("", "0", "false", "no", "off")


class _Series:
    """Everything a recorder keeps for one name."""

    __slots__ = ("count", "errors", "wall_s", "cpu_s", "min_s", "max_s", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.errors = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.min_s = math.inf
        self.max_s = -math.inf
        self.buckets = [0] * (len(BUCKET_BOUNDS_MS) + 1)

    def _percentile_ms(self, fraction: float) -> float:
        """Upper-bound estimate of one quantile: the bound of its bucket."""
        target = fraction * self.count
        running = 0
        for index, count in enumerate(self.buckets):
            running += count
            if running >= target:
                break
        if index < len(BUCKET_BOUNDS_MS):
            return BUCKET_BOUNDS_MS[index]
        return round(self.max_s * 1000.0, 3)  # overflow: the exact max bounds it

    def histogram(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "mean_ms": round(self.wall_s / self.count * 1000.0, 3),
            "min_ms": round(self.min_s * 1000.0, 3),
            "max_ms": round(self.max_s * 1000.0, 3),
            "p50_ms": self._percentile_ms(0.50),
            "p90_ms": self._percentile_ms(0.90),
            "p99_ms": self._percentile_ms(0.99),
            "buckets_ms": {
                str(int(bound)): count
                for bound, count in zip(BUCKET_BOUNDS_MS, self.buckets)
                if count
            },
            "overflow": self.buckets[-1],
        }


class Recorder:
    """Thread-safe timings, folded into one :class:`_Series` per name.

    ``enabled`` gates :meth:`span` only: a duration the caller measured
    itself is always recorded.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._series: dict[str, _Series] = {}

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop every series (the enabled flag is untouched)."""
        with self._lock:
            self._series.clear()

    def span(self, name: str):
        """Time a ``with`` block as one run of ``name``; a no-op while off.

        A block that raises is recorded as well, as an error, and the
        exception propagates unchanged: a slow *failing* DRC is exactly the
        kind of regression the timers exist to surface.
        """
        return self._timed(name) if self.enabled else _OFF

    @contextmanager
    def _timed(self, name: str):
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        ok = False
        try:
            yield
            ok = True
        finally:
            self.record(
                name,
                time.perf_counter() - wall0,
                ok=ok,
                cpu_seconds=time.process_time() - cpu0,
            )

    def record(
        self, name: str, seconds: float, *, ok: bool = True, cpu_seconds: float = 0.0
    ) -> None:
        """Fold one run of ``name`` that took ``seconds`` of wall time."""
        index = bisect_left(BUCKET_BOUNDS_MS, seconds * 1000.0)
        with self._lock:
            series = self._series.get(name)
            if series is None:
                series = self._series[name] = _Series()
            series.count += 1
            if not ok:
                series.errors += 1
            series.wall_s += seconds
            series.cpu_s += cpu_seconds
            if seconds < series.min_s:
                series.min_s = seconds
            if seconds > series.max_s:
                series.max_s = seconds
            series.buckets[index] += 1

    def merge(self, view: Any) -> None:
        """Add another process's :meth:`stage_view` (a pool worker's) in.

        Only what the view carries is summed -- run counts, wall and CPU
        totals -- so a merged recorder is read through :meth:`stage_view`.
        """
        if not isinstance(view, Mapping):
            return
        self.enabled = self.enabled or bool(view.get("enabled"))
        with self._lock:
            for name, entry in (view.get("stages") or {}).items():
                series = self._series.get(name)
                if series is None:
                    series = self._series[name] = _Series()
                series.count += entry["count"]
                series.wall_s += entry["wall_ms"] / 1000.0
                series.cpu_s += entry["cpu_ms"] / 1000.0

    def stage_view(self) -> dict[str, Any]:
        """JSON-ready per-stage run counts and wall/CPU millisecond totals."""
        with self._lock:
            stages = {
                name: {
                    "count": series.count,
                    "wall_ms": round(series.wall_s * 1000, 3),
                    "cpu_ms": round(series.cpu_s * 1000, 3),
                }
                for name, series in sorted(self._series.items())
            }
        return {"enabled": self.enabled, "stages": stages}

    def request_view(self) -> dict[str, Any]:
        """JSON-ready request totals and per-name latency histograms.

        Read under one lock, so ``requests`` always equals both the sum of
        ``methods`` and the sum of every histogram's ok and error counts.
        """
        with self._lock:
            series = sorted(self._series.items())
            return {
                "requests": sum(entry.count for _, entry in series),
                "errors": sum(entry.errors for _, entry in series),
                "methods": {name: entry.count for name, entry in series},
                "latency": {
                    name: {
                        "ok": entry.count - entry.errors,
                        "errors": entry.errors,
                        "latency": entry.histogram(),
                    }
                    for name, entry in series
                },
            }


#: The process-wide recorder every stage function reports to.
STAGES = Recorder(enabled=_env_enabled(os.environ.get(ENV_VAR)))


def format_stages(view: Optional[Mapping[str, Any]] = None) -> str:
    """Render a :meth:`~Recorder.stage_view` (default: :data:`STAGES`'s)
    as the aligned text table of ``--profile-stages``."""
    if view is None:
        view = STAGES.stage_view()
    stages = view.get("stages") or {}
    if not stages:
        return "no stage timings recorded"
    width = max(len(name) for name in stages)
    lines = [f"{'stage':<{width}}  {'runs':>5}  {'wall ms':>10}  {'cpu ms':>10}"]
    for name, entry in stages.items():
        lines.append(
            f"{name:<{width}}  {entry['count']:>5}  "
            f"{entry['wall_ms']:>10.3f}  {entry['cpu_ms']:>10.3f}"
        )
    return "\n".join(lines)
