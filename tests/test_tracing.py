"""Differential test: :class:`repro.tracing.Recorder` against the code it replaced.

One recorder now keeps what three mechanisms kept: ``StageProfiler``
(``repro.profiling``) timed the frontend stages, and ``LatencyHistogram``
and ``MethodMetrics`` (``repro.server.metrics``) kept the compile
service's per-method latency histograms.  Their code is kept verbatim
below as the reference.  Fed the same runs -- durations on the exact
bucket bounds (1, 2, ..., 65,536 ms) and just past them, sub-millisecond
ones, ones past the last bound, with ok and error runs mixed -- the
recorder's views must equal the references' ``snapshot()`` and
``as_dict()`` key for key: counts, totals, min, max, the p50/p90/p99
estimates, the bucket counts and the overflow count.

The service tests pin the one change to any ``stats`` value: a request
too malformed to name a method counts under ``<unknown>`` in ``methods``
as it already did in ``latency``, so ``requests``, ``methods`` and
``latency`` are three views of one count -- also while other threads
keep sending requests.
"""

from __future__ import annotations

import math
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tracing
from repro.server import CompileService, methods
from repro.server.pool import fork_available
from repro.tracing import Recorder
from repro.workspace import Workspace

# -- the reference: StageProfiler, verbatim from repro/profiling.py ------------


class StageProfiler:
    """Accumulates per-stage wall/CPU timings; thread-safe, default-off."""

    def __init__(self, enabled: bool = False) -> None:
        self._enabled = enabled
        self._lock = threading.Lock()
        #: stage name -> [count, wall_seconds, cpu_seconds]
        self._stages: dict[str, list[float]] = {}

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def reset(self) -> None:
        """Drop every accumulated timing (the enabled flag is untouched)."""
        with self._lock:
            self._stages.clear()

    def record(self, name: str, wall_seconds: float, cpu_seconds: float) -> None:
        """Fold one timed run of ``name`` into the accumulators."""
        with self._lock:
            entry = self._stages.get(name)
            if entry is None:
                self._stages[name] = [1, wall_seconds, cpu_seconds]
            else:
                entry[0] += 1
                entry[1] += wall_seconds
                entry[2] += cpu_seconds

    @contextmanager
    def stage(self, name: str):
        """Time one stage run; a no-op context manager while disabled.

        Exceptions propagate unchanged; a failing stage still records the
        time it spent before raising (a slow *failing* DRC is exactly the
        kind of regression the timers exist to surface).
        """
        if not self._enabled:
            yield
            return
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            yield
        finally:
            self.record(name, time.perf_counter() - wall0, time.process_time() - cpu0)

    def snapshot(self) -> dict[str, object]:
        """JSON-ready copy: per-stage counts and millisecond totals."""
        with self._lock:
            stages = {
                name: {
                    "count": int(entry[0]),
                    "wall_ms": round(entry[1] * 1000, 3),
                    "cpu_ms": round(entry[2] * 1000, 3),
                }
                for name, entry in sorted(self._stages.items())
            }
        return {"enabled": self._enabled, "stages": stages}


# -- the reference: LatencyHistogram and MethodMetrics, verbatim from
# -- repro/server/metrics.py ---------------------------------------------------

#: Bucket upper bounds in milliseconds: powers of two from 1ms to ~65s,
#: plus a catch-all overflow bucket.  17 counters per histogram.
BUCKET_BOUNDS_MS: tuple[float, ...] = tuple(float(1 << i) for i in range(17))


class LatencyHistogram:
    """A fixed-bucket latency histogram (power-of-two millisecond scale)."""

    __slots__ = ("_lock", "_counts", "count", "total_s", "min_s", "max_s")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = [0] * (len(BUCKET_BOUNDS_MS) + 1)
        self.count = 0
        self.total_s = 0.0
        self.min_s: Optional[float] = None
        self.max_s: Optional[float] = None

    def record(self, seconds: float) -> None:
        ms = seconds * 1000.0
        index = 0
        for index, bound in enumerate(BUCKET_BOUNDS_MS):  # noqa: B007
            if ms <= bound:
                break
        else:
            index = len(BUCKET_BOUNDS_MS)
        with self._lock:
            self._counts[index] += 1
            self.count += 1
            self.total_s += seconds
            if self.min_s is None or seconds < self.min_s:
                self.min_s = seconds
            if self.max_s is None or seconds > self.max_s:
                self.max_s = seconds

    def _percentile_locked(self, fraction: float) -> Optional[float]:
        """Upper-bound estimate of one quantile, in milliseconds."""
        if self.count == 0:
            return None
        target = fraction * self.count
        running = 0
        for index, bucket_count in enumerate(self._counts):
            running += bucket_count
            if running >= target:
                if index < len(BUCKET_BOUNDS_MS):
                    return BUCKET_BOUNDS_MS[index]
                # Overflow bucket: the exact max is the best bound we have.
                return round((self.max_s or 0.0) * 1000.0, 3)
        return BUCKET_BOUNDS_MS[-1]

    def as_dict(self) -> dict[str, Any]:
        with self._lock:
            if self.count == 0:
                return {"count": 0}
            mean_ms = (self.total_s / self.count) * 1000.0
            return {
                "count": self.count,
                "mean_ms": round(mean_ms, 3),
                "min_ms": round((self.min_s or 0.0) * 1000.0, 3),
                "max_ms": round((self.max_s or 0.0) * 1000.0, 3),
                "p50_ms": self._percentile_locked(0.50),
                "p90_ms": self._percentile_locked(0.90),
                "p99_ms": self._percentile_locked(0.99),
                "buckets_ms": {
                    str(int(bound)): count
                    for bound, count in zip(BUCKET_BOUNDS_MS, self._counts)
                    if count
                },
                "overflow": self._counts[-1],
            }


class MethodMetrics:
    """Per-method latency histograms plus ok/error counts.

    Only known method names get their own series (the same unbounded-peer
    guard as the service's request counters); everything else lands in the
    ``<unknown>`` bucket.
    """

    def __init__(self, known_methods: tuple[str, ...] = ()) -> None:
        self._known = frozenset(known_methods)
        self._lock = threading.Lock()
        self._series: dict[str, LatencyHistogram] = {}
        self._ok: dict[str, int] = {}
        self._errors: dict[str, int] = {}

    def record(self, method: Optional[str], seconds: float, *, ok: bool) -> None:
        key = method if (method in self._known) else "<unknown>"
        with self._lock:
            histogram = self._series.get(key)
            if histogram is None:
                histogram = self._series[key] = LatencyHistogram()
            counter = self._ok if ok else self._errors
            counter[key] = counter.get(key, 0) + 1
        histogram.record(seconds)

    def as_dict(self) -> dict[str, Any]:
        with self._lock:
            series = dict(self._series)
            ok = dict(self._ok)
            errors = dict(self._errors)
        return {
            method: {
                "ok": ok.get(method, 0),
                "errors": errors.get(method, 0),
                "latency": histogram.as_dict(),
            }
            for method, histogram in sorted(series.items())
        }


# -- strategies -----------------------------------------------------------------

BOUNDS_S = [bound / 1000.0 for bound in tracing.BUCKET_BOUNDS_MS]

#: Wall times in seconds: exactly on a bucket bound (a run of ``bound`` ms
#: belongs to that bound's bucket), just past one, below a millisecond,
#: past the last bound (the overflow bucket), and anywhere in between.
DURATIONS = st.one_of(
    st.sampled_from(BOUNDS_S),
    st.sampled_from(BOUNDS_S).map(lambda seconds: math.nextafter(seconds, math.inf)),
    st.floats(min_value=0.0, max_value=0.001),
    st.floats(min_value=BOUNDS_S[-1], max_value=3600.0, exclude_min=True),
    st.floats(min_value=0.0, max_value=BOUNDS_S[-1]),
)
STAGE_NAMES = st.sampled_from(("parse", "evaluate", "sugaring", "drc", "ingest", "backend:vhdl"))
#: Method names as peers send them: every known one, unknown ones, and
#: ``None`` for a request too malformed to name one.
METHODS = st.sampled_from((*sorted(methods.METHODS), "bogus", "get_IR", "", None))


# -- the views against the references -------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(STAGE_NAMES, DURATIONS, DURATIONS, st.booleans()), max_size=40), st.booleans())
def test_stage_view_equals_stage_profiler_snapshot(runs, enabled):
    reference, recorder = StageProfiler(enabled=enabled), Recorder(enabled=enabled)
    for name, wall, cpu, ok in runs:
        reference.record(name, wall, cpu)
        recorder.record(name, wall, ok=ok, cpu_seconds=cpu)
    assert recorder.stage_view() == reference.snapshot()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(DURATIONS, st.booleans()), min_size=1, max_size=60))
def test_histogram_equals_latency_histogram(runs):
    reference, recorder = LatencyHistogram(), Recorder()
    for seconds, ok in runs:
        reference.record(seconds)
        recorder.record("get_ir", seconds, ok=ok)
    entry = recorder.request_view()["latency"]["get_ir"]
    assert entry["latency"] == reference.as_dict()
    assert entry["errors"] == sum(not ok for _, ok in runs)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(METHODS, DURATIONS, st.booleans()), max_size=60))
def test_request_view_equals_method_metrics(requests):
    # The service built its MethodMetrics this way.
    reference = MethodMetrics(tuple(methods.METHODS) + ("<unknown>",))
    with CompileService(workspace=Workspace(cache=None), jobs=1) as service:
        for method, seconds, ok in requests:
            reference.record(method, seconds, ok=ok)
            service.record_request(method, seconds, ok=ok)
        view = service.requests.request_view()
    assert view["latency"] == reference.as_dict()
    names = Counter(m if m in methods.METHODS else "<unknown>" for m, _, _ in requests)
    assert view["methods"] == dict(names)
    assert list(view["methods"]) == sorted(view["methods"])
    assert view["requests"] == len(requests)
    assert view["errors"] == sum(not ok for _, _, ok in requests)


# -- the recorder on its own ----------------------------------------------------


class TestRecorder:
    def test_a_disabled_span_is_one_shared_no_op(self):
        recorder = Recorder()
        assert recorder.span("parse") is recorder.span("drc")
        with recorder.span("parse"):
            pass
        assert recorder.request_view()["requests"] == 0

    def test_a_measured_duration_is_recorded_while_disabled(self):
        recorder = Recorder()
        recorder.record("get_ir", 0.002, ok=False)
        view = recorder.request_view()
        assert (view["requests"], view["errors"], view["methods"]) == (1, 1, {"get_ir": 1})
        assert recorder.stage_view() == {
            "enabled": False,
            "stages": {"get_ir": {"count": 1, "wall_ms": 2.0, "cpu_ms": 0.0}},
        }

    def test_span_counts_a_raise_as_an_error_and_lets_it_through(self):
        recorder = Recorder(enabled=True)
        with recorder.span("evaluate"):
            sum(range(1_000))
        with pytest.raises(KeyError):
            with recorder.span("drc"):
                raise KeyError("boom")
        latency = recorder.request_view()["latency"]
        assert (latency["evaluate"]["ok"], latency["evaluate"]["errors"]) == (1, 0)
        assert (latency["drc"]["ok"], latency["drc"]["errors"]) == (0, 1)
        for entry in recorder.stage_view()["stages"].values():
            assert entry["count"] == 1 and entry["wall_ms"] >= 0 and entry["cpu_ms"] >= 0

    def test_merge_sums_stage_views(self):
        workers = [Recorder(enabled=True) for _ in range(2)]
        for index, worker in enumerate(workers):
            worker.record("parse", 0.0015 * (index + 1), cpu_seconds=0.001)
        workers[1].record("drc", 0.0005)
        merged = Recorder()
        merged.merge(None)  # a worker whose stats could not be collected
        assert not merged.enabled
        for worker in workers:
            merged.merge(worker.stage_view())
        assert merged.stage_view() == {
            "enabled": True,
            "stages": {
                "drc": {"count": 1, "wall_ms": 0.5, "cpu_ms": 0.0},
                "parse": {"count": 2, "wall_ms": 4.5, "cpu_ms": 2.0},
            },
        }

    def test_no_run_is_lost_and_views_stay_consistent_while_threads_record(self):
        recorder = Recorder()
        runs = 5_000

        def send(name: str) -> None:
            for index in range(runs):
                recorder.record(name, 0.0004 * (index % 7), ok=index % 3 != 0)

        # Three writers on a two-core box, two of them on one series.
        threads = [threading.Thread(target=send, args=(name,)) for name in ("get_ir", "stats", "get_ir")]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            while any(thread.is_alive() for thread in threads):
                assert_one_count(recorder.request_view())
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        view = recorder.request_view()
        assert view["methods"] == {"get_ir": 2 * runs, "stats": runs}
        assert view["errors"] == 3 * len(range(0, runs, 3))
        histogram = view["latency"]["get_ir"]["latency"]
        assert sum(histogram["buckets_ms"].values()) == histogram["count"] == 2 * runs


# -- the compile service's request accounting ----------------------------------

DESIGN = {
    "d.td": "type t = Stream(Bit(8), d=1);\n"
    "streamlet s { i: t in, o: t out, }\n"
    "impl im of s { i => o, }\n"
    "top im;\n"
}

#: One round of one client: two good requests, two that fail, one with an
#: unknown method and two too malformed to name a method.
ROUND: tuple[Any, ...] = (
    {"method": "get_ir", "params": {"design": "d"}},
    {"method": "get_diagnostics", "params": {"design": "d"}},
    {"method": "get_ir", "params": {"design": "missing"}},
    {"method": "open_design", "params": {"design": "d", "typo": 1}},
    {"method": "no_such_method", "params": {}},
    {"params": {"design": "d"}},
    ["not", "an", "object"],
)


def assert_one_count(server: dict[str, Any]) -> None:
    latency = server["latency"]
    assert (
        server["requests"]
        == sum(server["methods"].values())
        == sum(entry["ok"] + entry["errors"] for entry in latency.values())
    )
    assert server["errors"] == sum(entry["errors"] for entry in latency.values())


@pytest.mark.parametrize(
    "workers",
    [0, pytest.param(2, marks=pytest.mark.skipif(not fork_available(), reason="needs fork"))],
)
def test_requests_methods_and_latency_are_one_count(workers):
    rounds = 15
    with CompileService(workers=workers, jobs=2) as service:
        opened = service.handle_sync(
            {"id": 0, "method": "open_design", "params": {"design": "d", "files": DESIGN}}
        )
        assert opened["ok"], opened

        def client() -> None:
            for _ in range(rounds):
                for request in ROUND:
                    service.handle_sync(request)

        threads = [threading.Thread(target=client) for _ in range(2)]
        for thread in threads:
            thread.start()
        polls = 0
        while True:
            running = any(thread.is_alive() for thread in threads)
            envelope = service.handle_sync({"id": 1, "method": "stats"})
            assert envelope["ok"], envelope
            assert_one_count(envelope["result"]["server"])
            polls += 1
            if not running:
                break
            time.sleep(0.001)
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        server = service.handle_sync({"id": 2, "method": "stats"})["result"]["server"]
    assert_one_count(server)
    sent = 2 * rounds
    assert server["methods"] == {
        "<unknown>": 3 * sent,
        "get_diagnostics": sent,
        "get_ir": 2 * sent,
        "open_design": 1 + sent,
        "stats": polls,
    }
    assert server["errors"] == 5 * sent
    assert server["latency"]["<unknown>"]["errors"] == 3 * sent
    assert server["latency"]["get_ir"]["ok"] == sent
