"""Recovery policies: what the engine does when an injected rank dies.

A policy is installed on a :class:`~repro.machine.Machine`
(``recovery=...``) and consulted by the parallel engine's retry loop
whenever a :class:`~repro.machine.exceptions.RankFailure` escapes an
execution attempt.  ``handle`` returns ``True`` after repairing the
plan (the engine then re-executes whatever is no longer ``done``) or
``False`` to re-raise the failure unwrapped:

* :class:`FailFast` -- never repairs; the run fails with the typed
  ``RankFailure`` naming the dead rank and step.
* :class:`RetryTask` -- re-runs the failed remainder up to ``n`` times
  with optional linear backoff; models transient faults (the
  fire-once :class:`~repro.faults.inject.FaultPlan` trigger does not
  re-fire, and the simulated input blocks are still in place).
* :class:`CodedRecovery` -- reconstructs the dead rank's input block
  from the XOR checksum installed by
  :func:`repro.faults.coded.run_coded_qr`, resets exactly the victim's
  tasks, and lets the engine replay them; the completed factors are
  bit-identical to the no-fault run.

>>> parse_policy("failfast")
FailFast()
>>> parse_policy("retry:2")
RetryTask(n=2, backoff=0.0)
>>> parse_policy("coded:1")
CodedRecovery(f=1)
>>> FailFast().handle(None, None, None, 0)
False

Paper anchor: Section 3 (re-executing subgraphs of the task DAG);
arXiv 2311.11943 (checksum-coded recovery policy for parallel QR).
"""

from __future__ import annotations

import time
from typing import Any

from repro.machine.exceptions import FaultRecoveryError, ParameterError

__all__ = [
    "CodedRecovery",
    "FailFast",
    "RecoveryPolicy",
    "RetryTask",
    "parse_policy",
]


class RecoveryPolicy:
    """Protocol: decide whether (and how) to repair a failed attempt."""

    #: True when the policy only works on an engine-backed backend
    #: (``faults == "recover"``): it needs the executor's retry loop.
    needs_engine = False

    def handle(self, failure, plan, engine, attempt: int) -> bool:
        """Repair ``plan`` after ``failure``; True to re-execute it.

        ``attempt`` is the number of recoveries already performed for
        this ``execute`` call (0 on the first failure).
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class FailFast(RecoveryPolicy):
    """Do not recover: the typed ``RankFailure`` reaches the caller."""

    def handle(self, failure, plan, engine, attempt: int) -> bool:
        return False


class RetryTask(RecoveryPolicy):
    """Re-execute the failed remainder up to ``n`` times.

    ``backoff`` seconds are slept before attempt ``k`` as
    ``backoff * (k + 1)`` (linear).  Retrying repairs nothing -- it
    relies on the fault being transient (fire-once triggers) and on the
    plan's not-done tasks being safely re-runnable, which the engine
    guarantees by wiring fresh rendezvous slots for every attempt.
    """

    needs_engine = True

    def __init__(self, n: int = 1, backoff: float = 0.0) -> None:
        if n < 1:
            raise ParameterError(f"RetryTask requires n >= 1, got {n}")
        if backoff < 0:
            raise ParameterError(f"RetryTask requires backoff >= 0, got {backoff}")
        self.n = int(n)
        self.backoff = float(backoff)

    def handle(self, failure, plan, engine, attempt: int) -> bool:
        if attempt >= self.n:
            return False
        if self.backoff:
            time.sleep(self.backoff * (attempt + 1))
        return True

    def __repr__(self) -> str:
        return f"RetryTask(n={self.n}, backoff={self.backoff})"


class CodedRecovery(RecoveryPolicy):
    """Reconstruct the dead rank's block from its group's XOR checksum.

    Requires the checksum context installed by
    :func:`repro.faults.coded.run_coded_qr` (or a manual
    :func:`repro.faults.coded.encode_checksums` +
    ``engine.coded_ctx = ctx``).  Tolerates one failure per checksum
    group -- up to ``f`` failures total when they hit distinct groups;
    anything beyond raises
    :class:`~repro.machine.exceptions.FaultRecoveryError` with the
    triggering failure chained.
    """

    needs_engine = True

    def __init__(self, f: int = 1) -> None:
        if f < 1:
            raise ParameterError(f"CodedRecovery requires f >= 1, got {f}")
        self.f = int(f)

    def handle(self, failure, plan, engine, attempt: int) -> bool:
        from repro.faults.coded import recover_from_failure

        ctx = getattr(engine, "coded_ctx", None)
        if ctx is None:
            raise FaultRecoveryError(
                "CodedRecovery needs a checksum context, but none is "
                "installed on the engine; run through "
                "repro.faults.coded.run_coded_qr (or call "
                "encode_checksums and set engine.coded_ctx)"
            ) from failure
        recover_from_failure(ctx, failure, plan)
        return True

    def __repr__(self) -> str:
        return f"CodedRecovery(f={self.f})"


def parse_policy(spec: "str | RecoveryPolicy | None") -> "RecoveryPolicy | None":
    """Coerce a CLI policy spec to a policy instance.

    Accepted forms: ``"failfast"``, ``"retry:<n>"`` (optionally
    ``"retry:<n>:<backoff>"``), ``"coded:<f>"``.
    """
    if spec is None or isinstance(spec, RecoveryPolicy):
        return spec
    parts = str(spec).strip().lower().split(":")
    kind, args = parts[0], parts[1:]
    try:
        if kind == "failfast" and not args:
            return FailFast()
        if kind == "retry" and len(args) <= 2:
            n = int(args[0]) if args else 1
            backoff = float(args[1]) if len(args) == 2 else 0.0
            return RetryTask(n, backoff)
        if kind == "coded" and len(args) <= 1:
            return CodedRecovery(int(args[0]) if args else 1)
    except (ValueError, ParameterError) as exc:
        raise ParameterError(f"invalid recovery policy spec {spec!r}") from exc
    raise ParameterError(
        f"unknown recovery policy {spec!r}; expected 'failfast', "
        "'retry:<n>[:<backoff>]', or 'coded:<f>'"
    )
