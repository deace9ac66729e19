"""Algorithm-selection planner: ask the system what to run.

The paper's headline result is a *tradeoff*, not a single winner:
3d-caqr-eg interpolates between Householder-QR and TSQR via ``delta``
(Theorem 1), 1d-caqr-eg via ``b`` (Theorem 2 / Eq. 11), and which
algorithm/knob wins depends on ``(m, n, P, alpha, beta, gamma)``.
This package automates that choice:

* :func:`~repro.planner.candidates.enumerate_candidates` -- the
  algorithm x knob x grid search space, with explained rejections;
* :func:`~repro.planner.pruning.prune` -- closed-form theorem costs
  eliminate order-of-magnitude losers before anything runs;
* :func:`~repro.planner.measure.measure` -- survivors execute on the
  cost-only symbolic backend (cached across machine profiles);
* :func:`~repro.planner.plan.plan` -- the ranked result, and
  :func:`~repro.planner.plan.plan_and_run` to execute the winner
  numerically.

CLI: ``python -m repro plan --m 65536 --n 1024 --P 1024 --profile
cluster``.  Benchmark P1 (``benchmarks/bench_planner.py``) checks the
planner's top pick against the measured-best algorithm over the F6
crossover-map grid.

Paper anchor: abstract and Section 8.4 (tuning across machines),
Theorems 1-2 (the tradeoff navigated).
"""

from repro.planner.candidates import (
    DEFAULT_CONFIG,
    Candidate,
    PlannerConfig,
    Rejection,
    enumerate_candidates,
)
from repro.planner.measure import measure
from repro.planner.plan import (
    Plan,
    PlanResult,
    clear_caches,
    plan,
    plan_and_run,
    resolve_profile,
)
from repro.planner.pruning import Prediction, predict, prune

__all__ = [
    "Candidate",
    "DEFAULT_CONFIG",
    "Plan",
    "PlanResult",
    "PlannerConfig",
    "Prediction",
    "Rejection",
    "clear_caches",
    "enumerate_candidates",
    "measure",
    "plan",
    "plan_and_run",
    "predict",
    "prune",
    "resolve_profile",
]
