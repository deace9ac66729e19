"""Per-metric critical-path clocks (max-plus accounting).

The paper models an execution as a DAG whose vertices are tasks
(operations, sends, receives) and whose edges are (a) each processor's
program order and (b) one edge per send/receive pair.  The cost of an
execution w.r.t. a metric (flops, words, messages, or combined time) is
the maximum total weight along any path.

For a *fixed* metric, the longest path ending at each processor's current
task can be maintained online with max-plus updates:

* a local task of weight ``x`` on processor ``p``:  ``c[p] += x``
* a send of weight ``x`` from ``p``:               ``c[p] += x``
* the matching receive of weight ``y`` on ``q``:   ``c[q] = max(c[q], c[p]) + y``

where ``c[p]`` on the right-hand side is the sender's clock *after* its
send.  Because max-plus propagation per metric is exactly a longest-path
computation, each metric's clock is exact -- not an approximation -- and
different metrics may be realized by different paths, matching the way
the paper states independent per-metric bounds.

Storage is one plain Python float per (metric, processor): the machine
charges millions of point-to-point messages in a large symbolic sweep,
and scalar float updates are several times cheaper than small-numpy
column arithmetic, which used to dominate cost-only wall-clock.
:meth:`~repro.machine.Machine.charge` applies the updates of
:meth:`ClockSet.send`, :meth:`ClockSet.recv` and
:meth:`ClockSet.local_compute` inline over these lists for a whole
collective schedule, so a change to one must be made to the other
(``tests/test_collective_oracle.py`` compares the two).

Paper anchor: Section 3 (per-metric critical paths).
"""

from __future__ import annotations

import numpy as np

#: Index order of the tracked metrics inside a clock snapshot.
METRICS = ("flops", "words", "messages", "time")


class ClockSet:
    """Max-plus clocks: one float per metric per processor.

    The ``time`` metric carries combined weights
    ``gamma*F + beta*W + alpha*S`` so its longest path is the modeled
    runtime for the machine's
    :class:`~repro.machine.cost_model.CostParams`.  Snapshots (the value
    :meth:`send` returns and :meth:`recv`/:meth:`join` consume) are
    plain tuples -- immutable, so no defensive copy is ever needed.
    """

    __slots__ = ("P", "_f", "_w", "_s", "_t", "_alpha", "_beta", "_gamma")

    def __init__(self, P: int, alpha: float, beta: float, gamma: float) -> None:
        if P < 1:
            raise ValueError(f"ClockSet requires P >= 1, got {P}")
        self.P = P
        self._f = [0.0] * P
        self._w = [0.0] * P
        self._s = [0.0] * P
        self._t = [0.0] * P
        self._alpha = alpha
        self._beta = beta
        self._gamma = gamma

    # ------------------------------------------------------------------
    # Task primitives
    # ------------------------------------------------------------------
    def local_compute(self, p: int, flops: float) -> None:
        """Charge ``flops`` arithmetic operations to processor ``p``."""
        self._f[p] += flops
        self._t[p] += self._gamma * flops

    def send(self, p: int, words: float) -> tuple[float, float, float, float]:
        """Charge a send of ``words`` words on ``p``; return the post-send clock.

        The returned tuple is the sender-side clock value that the
        matching :meth:`recv` must join against.
        """
        f = self._f[p]
        w = self._w[p] = self._w[p] + words
        s = self._s[p] = self._s[p] + 1.0
        t = self._t[p] = self._t[p] + self._alpha + self._beta * words
        return (f, w, s, t)

    def recv(self, q: int, words: float, sender_clock) -> None:
        """Charge a receive of ``words`` on ``q``, joined with the sender's clock."""
        sf, sw, ss, st = sender_clock
        f, w, s, t = self._f[q], self._w[q], self._s[q], self._t[q]
        self._f[q] = sf if sf > f else f
        self._w[q] = (sw if sw > w else w) + words
        self._s[q] = (ss if ss > s else s) + 1.0
        self._t[q] = (st if st > t else t) + self._alpha + self._beta * words

    def join(self, q: int, other_clock) -> None:
        """Synchronize ``q`` with an externally captured clock (no cost).

        Used for zero-cost ordering dependencies (e.g. a processor reusing
        a buffer only after its previous transfer logically completed).
        """
        of, ow, os_, ot = other_clock
        if of > self._f[q]:
            self._f[q] = of
        if ow > self._w[q]:
            self._w[q] = ow
        if os_ > self._s[q]:
            self._s[q] = os_
        if ot > self._t[q]:
            self._t[q] = ot

    def snapshot(self, p: int) -> tuple[float, float, float, float]:
        """Processor ``p``'s clock vector, in :data:`METRICS` order."""
        return (self._f[p], self._w[p], self._s[p], self._t[p])

    # ------------------------------------------------------------------
    # Reading results
    # ------------------------------------------------------------------
    def _row(self, metric: str) -> list[float]:
        try:
            return (self._f, self._w, self._s, self._t)[METRICS.index(metric)]
        except ValueError:
            raise KeyError(f"unknown metric {metric!r}; expected one of {METRICS}") from None

    def critical(self, metric: str) -> float:
        """Longest-path cost for ``metric`` over all processors."""
        return max(max(self._row(metric)), 0.0)

    def per_processor(self, metric: str) -> np.ndarray:
        """Per-processor longest-path costs for ``metric`` (copy)."""
        return np.array(self._row(metric), dtype=np.float64)

    def barrier(self) -> None:
        """Join all processors' clocks (used to sequence independent phases).

        Models a synchronization point with zero intrinsic cost: after the
        barrier every processor's path includes the heaviest path so far.
        Real barriers cost O(log P) messages; algorithms in this library
        never rely on this method for correctness of their cost claims --
        it exists for benchmarks that time phases separately.
        """
        for row in (self._f, self._w, self._s, self._t):
            peak = max(row)
            row[:] = [peak] * self.P
