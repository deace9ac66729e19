"""Fault injection and checksum-coded recovery for the parallel engine.

This package makes rank death a *first-class, typed, recoverable*
event instead of a rendezvous timeout:

* :mod:`repro.faults.inject` -- a deterministic :class:`FaultPlan`
  kills rank *p* at task-step *k* (or the *n*-th kernel dispatch) by
  raising :class:`~repro.machine.exceptions.RankFailure` from inside
  the victim's task; the engine poisons every wired rendezvous so the
  failure surfaces in milliseconds with the cause chained.
* :mod:`repro.faults.policy` -- per-run policies :class:`FailFast`,
  :class:`RetryTask`, and :class:`CodedRecovery` decide what the
  engine's retry loop does with the failure.
* :mod:`repro.faults.coded` -- XOR-parity checksum blocks on spare
  ranks (:func:`encode_checksums`, a step of the one job path;
  :func:`run_coded_qr` runs such a job): exactly invertible over raw
  bytes, so a dead rank's panel is reconstructed bit-identically and
  the finished factors match the no-fault run to the last bit, with the
  redundancy metered exactly in the :class:`~repro.machine.CostReport`.

A fault-free coded run, a killed-and-recovered run, and the recovery
evidence, end to end:

>>> import numpy as np
>>> from repro.faults import run_coded_qr
>>> rng = np.random.default_rng(0)
>>> A = rng.standard_normal((8, 2))
>>> plain = run_coded_qr("tsqr", A, P=2, f=1, workers=1)
>>> dead = run_coded_qr("tsqr", A, P=2, f=1, fault="1@0",
...                     recovery="coded:1", workers=1)
>>> bool(np.array_equal(plain.factors[2], dead.factors[2]))   # R bit-identical
True
>>> dead.recoveries, dead.fired
(1, (RankFault(rank=1, step=0, where='step'),))

Paper anchor: Section 5 (the protected 1D algorithms), Section 3 (the
cost model the redundancy is accounted in); arXiv 2311.11943 (coded
computing for fault-tolerant parallel QR).
"""

from repro.faults.coded import (
    CODED_ALGORITHMS,
    CodedContext,
    CodedOverhead,
    CodedRunResult,
    encode_checksums,
    predict_overhead,
    recover_from_failure,
    run_coded_qr,
)
from repro.faults.inject import FaultPlan, RankFault, parse_fault
from repro.faults.policy import (
    CodedRecovery,
    FailFast,
    RecoveryPolicy,
    RetryTask,
    parse_policy,
)
from repro.machine.exceptions import FaultRecoveryError, RankFailure

__all__ = [
    "CODED_ALGORITHMS",
    "CodedContext",
    "CodedOverhead",
    "CodedRecovery",
    "CodedRunResult",
    "FailFast",
    "FaultPlan",
    "FaultRecoveryError",
    "RankFailure",
    "RankFault",
    "RecoveryPolicy",
    "RetryTask",
    "encode_checksums",
    "parse_fault",
    "parse_policy",
    "predict_overhead",
    "recover_from_failure",
    "run_coded_qr",
]
