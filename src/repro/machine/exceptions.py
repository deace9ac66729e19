"""Exception hierarchy for the machine simulator and the algorithms on it.

Paper anchor: Section 3 (machine-model invariants enforced as errors).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class MachineError(ReproError):
    """Invalid use of the simulated machine (bad rank, negative cost, ...)."""


class OwnershipError(MachineError):
    """An algorithm touched data on a processor that does not own it."""


class DistributionError(ReproError):
    """A distributed object does not satisfy an algorithm's layout requirements."""


class ParameterError(ReproError):
    """Algorithm parameters out of their valid range (e.g. P > m/n for TSQR)."""


class RankFailure(ReproError):
    """A simulated processor died mid-execution (fault injection).

    Raised from inside the victim's task (or kernel dispatch) by an
    installed :class:`repro.faults.FaultPlan`.  On the parallel engine it
    propagates through every wired rendezvous as a *poison* value --
    consumers fail in milliseconds with this failure chained as the
    cause, instead of waiting out the deadlock-guard timeout -- and the
    engine's recovery policy (see :mod:`repro.faults.policy`) decides
    whether to re-raise, retry, or reconstruct from checksums.

    Attributes: ``rank`` (the dead processor), ``step`` (0-based index
    into that rank's task stream or kernel-dispatch stream), ``label``
    (the task/kernel label at the point of death), and ``where``
    (``"step"`` for engine task-steps, ``"dispatch"`` for eager kernel
    dispatches).
    """

    def __init__(
        self, rank: int, step: int, label: str = "", where: str = "step"
    ) -> None:
        self.rank = int(rank)
        self.step = int(step)
        self.label = label
        self.where = where
        what = "task-step" if where == "step" else "kernel dispatch"
        msg = f"rank {self.rank} died at {what} {self.step}"
        if label:
            msg += f" (task {label!r})"
        super().__init__(msg)


class FaultRecoveryError(ReproError):
    """A recovery policy could not restore a failed run.

    Raised (with the triggering :class:`RankFailure` chained) when coded
    recovery is impossible: no checksum context installed, a spare rank
    died, a second failure hit an already-spent checksum group, or the
    checksum had not been computed at the time of death.
    """
