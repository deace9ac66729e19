"""Measured ranking: run each surviving candidate on the symbolic backend.

The decisive numbers are *measured*, not modeled: every survivor of the
closed-form pruning is executed cost-only (``backend="symbolic"``,
PR 2's engine), which meters the identical task stream the numeric run
would produce and yields a bit-identical
:class:`~repro.machine.CostReport` -- per-metric critical-path flops,
words, and messages that a machine profile then turns into time.

Measurements are profile-independent (the cost triple depends only on
the algorithm, knobs, and ``(m, n, P)``), so they are cached at module
level: ranking the same candidate space under sixteen different
``(alpha, beta)`` machines -- the F6 crossover map -- measures each
candidate exactly once.  :data:`stats` counts runs and cache hits;
tests assert re-planning does not re-measure.

Paper anchor: Section 3 (cost model; the measured counterpart of
Lemmas 5-7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine import ReproError
from repro.planner.candidates import Candidate, Rejection
from repro.telemetry.recorder import current_recorder
from repro.workloads import run_qr

#: Cache key -> measured cost triple.  Key = (algorithm, P, params, m, n).
_MEASURE_CACHE: dict[tuple, dict[str, float]] = {}


@dataclass
class MeasureStats:
    """Counters for the measurement stage (observable cache behavior)."""

    runs: int = 0
    cache_hits: int = 0
    errors: int = 0
    seconds: float = field(default=0.0)

    def snapshot(self) -> dict[str, float]:
        return {"runs": self.runs, "cache_hits": self.cache_hits,
                "errors": self.errors, "seconds": round(self.seconds, 3)}


stats = MeasureStats()


def cache_key(c: Candidate, m: int, n: int) -> tuple:
    return (c.algorithm, c.P, c.params, m, n)


def measure(c: Candidate, m: int, n: int) -> dict[str, float]:
    """Measured critical-path ``{flops, words, messages}`` for a candidate.

    Raises a :class:`~repro.machine.ReproError` subclass if the
    candidate cannot be constructed -- callers convert that into an
    explained rejection.
    """
    import time as _time

    rec = current_recorder()
    key = cache_key(c, m, n)
    if key in _MEASURE_CACHE:
        stats.cache_hits += 1
        if rec.enabled:
            rec.metrics.inc("planner.measure_cache.hits")
        return dict(_MEASURE_CACHE[key])
    t0 = _time.perf_counter()
    r = run_qr(c.algorithm, (m, n), P=c.P, backend="symbolic", **c.kwargs())
    stats.runs += 1
    elapsed = _time.perf_counter() - t0
    stats.seconds += elapsed
    if rec.enabled:
        rec.metrics.inc("planner.measure_cache.misses")
        rec.metrics.observe("planner.measure_s", elapsed)
    triple = {
        "flops": r.report.critical_flops,
        "words": r.report.critical_words,
        "messages": r.report.critical_messages,
    }
    _MEASURE_CACHE[key] = dict(triple)
    return triple


def try_measure(
    c: Candidate, m: int, n: int
) -> tuple[dict[str, float] | None, Rejection | None]:
    """Like :func:`measure`, but turns construction failures into rejections."""
    try:
        return measure(c, m, n), None
    except ReproError as exc:
        stats.errors += 1
        rec = current_recorder()
        if rec.enabled:
            rec.metrics.inc("planner.measure_cache.errors")
        return None, Rejection(c.algorithm, c.P, f"failed to run: {exc}", c.params)
