"""Span and metrics recording: what the engine *actually* does at runtime.

The cost model predicts; this module measures.  A
:class:`TelemetryRecorder` collects two kinds of evidence while a
parallel (or numeric) execution runs:

* **Spans** -- one :class:`Span` per unit of timed work: an engine task
  (with its simulated rank, executing worker thread, and the seconds it
  spent blocked in rendezvous waits before running), a ``run_many``
  job, or any other labeled interval.  Spans are what the Chrome-trace
  exporter (:mod:`repro.telemetry.export`) turns into Perfetto tracks
  and what the drift report (:mod:`repro.telemetry.drift`) joins
  against the symbolic backend's cost accounting.
* **Metrics** -- a lock-cheap :class:`MetricsRegistry` of counters,
  gauges, and fixed-bucket histograms: plan-cache hits and misses,
  rendezvous wait distributions, kernel dispatch times, planner
  measurement-cache behavior.

Telemetry is **off by default**: the module-level current recorder is
:data:`NULL_RECORDER`, whose ``enabled`` flag is ``False``, and every
instrumentation site in the engine/machine/driver guards its timing
code behind that one attribute check -- the disabled cost is a single
branch per task (a disabled recorder whose methods raise completes a
run: ``tests/test_telemetry.py``).  Enable it by installing a
recorder::

    from repro.telemetry import TelemetryRecorder, recording

    rec = TelemetryRecorder()
    with recording(rec):
        run_qr("tsqr", A, P=16, backend="parallel")
    print(rec.metrics.snapshot()["counters"]["engine.tasks"])

or pass ``telemetry=rec`` to :class:`~repro.machine.Machine` directly.

Paper anchor: Section 8 (measured evaluation -- the runtime counterpart
of the Section 3 cost model's predictions).
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "DEFAULT_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "Span",
    "TelemetryRecorder",
    "current_recorder",
    "install_recorder",
    "recording",
]

#: Histogram bucket upper bounds in seconds: 1 microsecond to 10 s,
#: one decade per bucket (a final unbounded bucket catches the rest).
#: Fixed boundaries keep observation O(log #buckets) with no rebinning.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


@dataclass(frozen=True)
class Span:
    """One timed interval of runtime work.

    ``t0``/``dur`` are seconds relative to the recorder's epoch (its
    construction time).  ``rank`` is the simulated processor the work
    belongs to (``None`` for harness-side work such as a ``run_many``
    job), ``worker`` the OS thread that executed it, and ``wait_s`` the
    portion of ``dur`` spent blocked on rendezvous handoffs before the
    kernel ran.  ``meta`` carries small extras (task id, cache state).
    """

    name: str
    cat: str
    t0: float
    dur: float
    rank: int | None = None
    worker: str = ""
    wait_s: float = 0.0
    meta: dict = field(default_factory=dict)


class Histogram:
    """Fixed-boundary histogram of nonnegative observations (seconds)."""

    __slots__ = ("bounds", "counts", "count", "total", "max")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, Any]:
        """Flat dict for exports: buckets plus summary statistics."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "max": self.max,
            "buckets": {
                **{f"le_{b:g}": c for b, c in zip(self.bounds, self.counts)},
                "inf": self.counts[-1],
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram(count={self.count}, mean={self.mean:.3g}s, max={self.max:.3g}s)"


class MetricsRegistry:
    """Named counters, gauges, and histograms behind one short-held lock.

    Every mutation takes the registry lock for a few dict operations --
    cheap enough for per-task instrumentation (the engine's tasks are
    LAPACK/BLAS kernels, orders of magnitude heavier), and correct under
    the thread pool's concurrent updates.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    def inc(self, name: str, delta: float = 1.0) -> None:
        """Add ``delta`` to counter ``name`` (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + delta

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name`` (created on first use)."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value)

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0.0)

    def histogram(self, name: str) -> Histogram | None:
        """The histogram registered under ``name``, or ``None``."""
        with self._lock:
            return self._histograms.get(name)

    def snapshot(self) -> dict[str, Any]:
        """Point-in-time copy of everything (export/printing)."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {k: h.snapshot() for k, h in self._histograms.items()},
            }


class TelemetryRecorder:
    """An enabled recorder: collects spans and metrics during a run."""

    enabled = True

    def __init__(self, max_spans: int = 1_000_000) -> None:
        self.metrics = MetricsRegistry()
        self.max_spans = int(max_spans)
        self.dropped_spans = 0
        self._spans: list[Span] = []
        self._lock = threading.Lock()
        self.epoch = time.perf_counter()

    # ------------------------------------------------------------------
    # Time and spans
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since this recorder's epoch (span timestamps)."""
        return time.perf_counter() - self.epoch

    @property
    def spans(self) -> list[Span]:
        """Snapshot of the recorded spans (safe to iterate)."""
        with self._lock:
            return list(self._spans)

    def span(
        self,
        name: str,
        cat: str,
        t0: float,
        dur: float,
        rank: int | None = None,
        worker: str = "",
        wait_s: float = 0.0,
        **meta: Any,
    ) -> None:
        """Record one completed interval (bounded; drops past the cap)."""
        s = Span(name, cat, t0, dur, rank=rank, worker=worker, wait_s=wait_s, meta=meta)
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped_spans += 1
                return
            self._spans.append(s)

    # ------------------------------------------------------------------
    # Instrumentation-site helpers (one call per event, all metered)
    # ------------------------------------------------------------------
    def task_span(
        self, label: str, tid: int, rank: int | None, t0: float, dur: float,
        wait_s: float, worker: str | None = None, **meta: Any,
    ) -> None:
        """An engine task ran: span plus task/wait metrics.

        ``worker`` defaults to the current thread's name (the thread
        engine records from inside its pool); the multiprocessing engine
        replays its workers' spans from the parent and passes
        ``"pid<N>"`` so the trace keeps one track per worker process.
        ``wait_s`` is the span's share blocked in rendezvous fetches;
        the wait *metrics* are recorded per fetch by
        :meth:`rendezvous_wait`.  Extra keyword arguments land in the
        span's meta.
        """
        self.span(
            label or f"t{tid}", "task", t0, dur, rank=rank,
            worker=worker if worker is not None else threading.current_thread().name,
            wait_s=wait_s, tid=tid, **meta,
        )
        self.metrics.inc("engine.tasks")
        self.metrics.observe("engine.task_s", dur)

    def rendezvous_wait(self, producer_label: str, consumer: int | None, seconds: float) -> None:
        """A consumer blocked ``seconds`` on ``producer_label``'s slot.

        One count and one histogram sample per blocking fetch, so
        ``engine.rendezvous.waits`` and the ``engine.rendezvous_wait_s``
        count always agree (a task that blocks on two producers is two).
        """
        self.metrics.inc("engine.rendezvous.waits")
        self.metrics.inc(f"engine.rendezvous.wait_s.rank{consumer}", seconds)
        self.metrics.observe("engine.rendezvous_wait_s", seconds)

    def kernel_dispatch(self, label: str, rank: int | None, seconds: float, backend: str) -> None:
        """The machine dispatched one kernel (eager run or plan append)."""
        self.metrics.inc("machine.kernels")
        self.metrics.observe(f"machine.kernel_dispatch_s.{backend}", seconds)

    def job_span(self, name: str, t0: float, dur: float, **meta: Any) -> None:
        """One ``run_many`` job completed end to end."""
        self.span(name, "job", t0, dur, worker=threading.current_thread().name, **meta)
        self.metrics.observe("run_many.job_s", dur)

    def fault_injected(self, rank: int, step: int) -> None:
        """A FaultPlan killed ``rank`` at ``step`` (injection fired)."""
        self.metrics.inc("faults.injected")

    def fault_detected(self, rank: int, step: int) -> None:
        """The engine caught a RankFailure escaping an attempt."""
        self.metrics.inc("faults.detected")

    def fault_recovered(
        self, rank: int, policy: str, t0: float, dur: float
    ) -> None:
        """A recovery policy repaired the plan after ``rank`` died."""
        self.span(
            f"recovery:rank{rank}", "fault", t0, dur,
            worker=threading.current_thread().name, policy=policy,
        )
        self.metrics.inc("faults.recoveries")
        self.metrics.observe("faults.recovery_s", dur)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TelemetryRecorder(spans={len(self._spans)}, "
            f"dropped={self.dropped_spans})"
        )


class NullRecorder:
    """The disabled recorder: every operation is a no-op.

    Instrumentation sites check ``recorder.enabled`` (one attribute
    read, one branch) and skip all timing when it is ``False``, so the
    methods below exist only for call sites that do not guard -- they
    accept anything and do nothing.
    """

    enabled = False
    spans: tuple = ()
    dropped_spans = 0

    def now(self) -> float:
        return 0.0

    def span(self, *a: Any, **k: Any) -> None:
        pass

    def task_span(self, *a: Any, **k: Any) -> None:
        pass

    def rendezvous_wait(self, *a: Any, **k: Any) -> None:
        pass

    def kernel_dispatch(self, *a: Any, **k: Any) -> None:
        pass

    def job_span(self, *a: Any, **k: Any) -> None:
        pass

    def fault_injected(self, *a: Any, **k: Any) -> None:
        pass

    def fault_detected(self, *a: Any, **k: Any) -> None:
        pass

    def fault_recovered(self, *a: Any, **k: Any) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullRecorder()"


#: The process-wide disabled recorder (shared; stateless).
NULL_RECORDER = NullRecorder()

_current: TelemetryRecorder | NullRecorder = NULL_RECORDER


def current_recorder() -> TelemetryRecorder | NullRecorder:
    """The recorder new machines/drivers pick up (default: disabled)."""
    return _current


def install_recorder(rec: TelemetryRecorder | NullRecorder) -> TelemetryRecorder | NullRecorder:
    """Install ``rec`` as the current recorder; returns the previous one."""
    global _current
    prev = _current
    _current = rec
    return prev


@contextmanager
def recording(rec: TelemetryRecorder | None = None) -> Iterator[TelemetryRecorder]:
    """Context manager: install ``rec`` (or a fresh recorder), then restore.

    >>> with recording() as rec:
    ...     current_recorder() is rec
    True
    >>> current_recorder() is NULL_RECORDER
    True
    """
    rec = rec if rec is not None else TelemetryRecorder()
    prev = install_recorder(rec)
    try:
        yield rec
    finally:
        install_recorder(prev)
