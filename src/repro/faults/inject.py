"""Deterministic fault injection: kill a chosen rank at a chosen point.

A :class:`FaultPlan` is a set of :class:`RankFault` triggers installed
on a :class:`~repro.machine.Machine` (``fault_plan=...``).  Each
trigger names a victim rank and a 0-based *step*:

* ``where="step"`` -- the step counts the rank's **task-steps** on the
  parallel engine: the executor consults the plan once per task in the
  victim's stream (:meth:`FaultPlan.on_task`) and the trigger raises a
  typed :class:`~repro.machine.exceptions.RankFailure` from *inside*
  the victim's task, so the failure propagates through every wired
  rendezvous as a poison value rather than a timeout.
* ``where="dispatch"`` -- the step counts the rank's **kernel
  dispatches** on an eager backend (:meth:`FaultPlan.on_dispatch`,
  called by :meth:`repro.machine.Machine.kernel` when no engine is
  attached).  Every local kernel is such a dispatch -- leaf and merge
  ``geqrt``, ``apply_wy``, ``mm*``, TSQR's free ``pack_triu`` /
  ``unpack_triu`` -- so dispatch 0 is the rank's first local work.

Triggers are *fire-once*: after a trigger kills its rank, replayed or
retried executions of that rank pass the same point unharmed -- which
is what makes retry and coded-recovery policies able to complete the
run deterministically.  Counters are cumulative across attempts.

>>> fp = FaultPlan.kill(0, 1)
>>> fp.on_task(0, "tsqr_up")            # step 0: survives
>>> fp.on_task(0, "tsqr_up")            # step 1: the rank dies
Traceback (most recent call last):
    ...
repro.machine.exceptions.RankFailure: rank 0 died at task-step 1 (task 'tsqr_up')
>>> fp.fired
(RankFault(rank=0, step=1, where='step'),)
>>> fp.on_task(0, "tsqr_up")            # fire-once: the retry survives
>>> parse_fault("3@2")
RankFault(rank=3, step=2, where='step')

Paper anchor: Section 3 (the task DAG whose steps are the injection
points); arXiv 2311.11943 (rank-failure model for coded parallel QR).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterable

from repro.machine.exceptions import ParameterError, RankFailure

__all__ = ["FaultPlan", "RankFault", "parse_fault"]


@dataclass(frozen=True)
class RankFault:
    """One trigger: kill ``rank`` at its ``step``-th execution point."""

    rank: int
    step: int
    where: str = "step"

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ParameterError(f"RankFault requires rank >= 0, got {self.rank}")
        if self.step < 0:
            raise ParameterError(f"RankFault requires step >= 0, got {self.step}")
        if self.where not in ("step", "dispatch"):
            raise ParameterError(
                f"RankFault where must be 'step' or 'dispatch', got {self.where!r}"
            )


def parse_fault(spec: str) -> RankFault:
    """Parse a CLI fault spec ``"rank@step"`` (or ``"rank@step:dispatch"``).

    >>> parse_fault("2@5")
    RankFault(rank=2, step=5, where='step')
    >>> parse_fault("1@0:dispatch")
    RankFault(rank=1, step=0, where='dispatch')
    """
    text = str(spec).strip()
    where = "step"
    if ":" in text:
        text, where = text.rsplit(":", 1)
    try:
        rank_s, step_s = text.split("@")
        return RankFault(int(rank_s), int(step_s), where=where.strip())
    except ValueError as exc:
        raise ParameterError(
            f"invalid fault spec {spec!r}; expected 'rank@step' "
            "(optionally ':dispatch'), e.g. '2@5'"
        ) from exc


class FaultPlan:
    """A deterministic set of rank-kill triggers with fire-once semantics.

    Thread-safe: the parallel engine calls :meth:`on_task` concurrently
    from its worker threads; each rank's step counter and each
    trigger's fired flag are updated under one lock.
    """

    def __init__(self, faults: Iterable[RankFault] = ()) -> None:
        self.faults = tuple(faults)
        for flt in self.faults:
            if not isinstance(flt, RankFault):
                raise ParameterError(
                    f"FaultPlan takes RankFault entries, got {type(flt).__name__}"
                )
        self._lock = threading.Lock()
        self._counts: dict[tuple[int, str], int] = {}
        self._fired: set[int] = set()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def kill(cls, rank: int, step: int, where: str = "step") -> "FaultPlan":
        """A plan with the single trigger (``rank``, ``step``)."""
        return cls([RankFault(int(rank), int(step), where=where)])

    @classmethod
    def parse(cls, spec: "str | FaultPlan | None") -> "FaultPlan | None":
        """Coerce a CLI spec (comma-separated ``rank@step`` list) to a plan.

        >>> FaultPlan.parse("1@2,0@0")
        FaultPlan(RankFault(rank=1, step=2, where='step'), RankFault(rank=0, step=0, where='step'))
        """
        if spec is None or isinstance(spec, FaultPlan):
            return spec
        parts = [s for s in str(spec).split(",") if s.strip()]
        if not parts:
            return None
        return cls([parse_fault(s) for s in parts])

    # ------------------------------------------------------------------
    # Injection points (called by the engine / machine)
    # ------------------------------------------------------------------
    def _check(self, rank: int, where: str, label: str, telemetry: Any) -> None:
        with self._lock:
            key = (rank, where)
            step = self._counts.get(key, 0)
            self._counts[key] = step + 1
            hit = None
            for i, flt in enumerate(self.faults):
                if (
                    i not in self._fired
                    and flt.where == where
                    and flt.rank == rank
                    and flt.step == step
                ):
                    hit = i
                    break
            if hit is None:
                return
            self._fired.add(hit)
        if telemetry is not None and telemetry.enabled:
            telemetry.fault_injected(rank, step)
        raise RankFailure(rank, step, label=label, where=where)

    def on_task(self, rank: int, label: str = "", telemetry: Any = None) -> None:
        """Engine hook: rank ``rank`` is about to run its next task-step."""
        self._check(rank, "step", label, telemetry)

    def on_dispatch(self, rank: int, label: str = "", telemetry: Any = None) -> None:
        """Eager-machine hook: rank ``rank`` dispatches its next kernel."""
        self._check(rank, "dispatch", label, telemetry)

    # ------------------------------------------------------------------
    # Introspection / reuse
    # ------------------------------------------------------------------
    @property
    def fired(self) -> tuple[RankFault, ...]:
        """The triggers that have killed their rank (injection evidence)."""
        with self._lock:
            return tuple(self.faults[i] for i in sorted(self._fired))

    def snapshot(self) -> tuple[dict, frozenset]:
        """Picklable copy of the counters + fired set (state transport).

        The multiprocessing engine's workers consult fork-inherited
        *copies* of this plan; each ships its state back so the parent
        can :meth:`absorb` it and keep ``fired`` truthful.
        """
        with self._lock:
            return dict(self._counts), frozenset(self._fired)

    def absorb(self, snap: tuple[dict, "frozenset[int]"]) -> None:
        """Merge a child copy's :meth:`snapshot` into this plan.

        Counters take the maximum per (rank, where) key -- each rank's
        steps are counted by exactly one worker, so the max is that
        worker's truth -- and fired triggers union in.
        """
        counts, fired = snap
        with self._lock:
            for key, step in counts.items():
                if step > self._counts.get(key, 0):
                    self._counts[key] = step
            self._fired.update(fired)

    def reset(self) -> None:
        """Re-arm every trigger and zero the step counters (fresh run)."""
        with self._lock:
            self._counts.clear()
            self._fired.clear()

    def __repr__(self) -> str:
        inner = ", ".join(repr(f) for f in self.faults)
        return f"FaultPlan({inner})"
