"""The planner: rank every way of factoring ``(m, n)`` on ``P`` processors.

:func:`plan` implements the paper's closing pitch -- "we can tune this
algorithm for machines with different communication costs" (abstract,
Section 8.4) -- as a procedure:

1. **Enumerate** the candidate space (algorithms x knobs x grids,
   ``repro.planner.candidates``).
2. **Prune** with the closed-form theorem costs under the target
   machine's ``(alpha, beta, gamma)`` (``repro.planner.pruning``).
3. **Measure** the survivors on the symbolic backend, cheapest
   predicted first, optionally under a wall-clock budget
   (``repro.planner.measure``).
4. **Rank** by measured modeled time; candidates the budget did not
   reach are ranked after all measured ones, by predicted time, and
   marked as such.

A *P-budget* mode (``P_budget=...``) searches powers of two up to the
budget instead of a fixed ``P`` -- more processors is *not* always
better once the ``alpha (log P)^2`` terms bite, which is exactly what
the measured ranking exposes.  Ranked results are cached on
``(m, n, P-grid, profile, config, budget)``; the measurement cache
underneath additionally de-duplicates across profiles.

Paper anchor: Section 8.4 (tuning), Theorems 1-2 (the tradeoff being
navigated).

>>> res = plan(512, 8, 4, profile="cluster")
>>> res.best() is res.plans[0]
True
>>> times = [p.measured_time for p in res.plans]
>>> times == sorted(times)
True
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

import numpy as np

from repro.machine import MACHINE_PROFILES, CostParams, ParameterError
from repro.planner.measure import _MEASURE_CACHE, try_measure
from repro.planner.measure import stats as _measure_stats
from repro.planner.candidates import (
    DEFAULT_CONFIG,
    Candidate,
    PlannerConfig,
    Rejection,
    enumerate_candidates,
)
from repro.planner.pruning import Prediction, predict, prune
from repro.workloads import RunResult, format_run_table, run_qr


@dataclass
class Plan:
    """One ranked candidate with its predicted-vs-measured cost triples."""

    candidate: Candidate
    predicted: dict[str, float]
    predicted_time: float
    measured: dict[str, float] | None = None
    measured_time: float | None = None

    @property
    def sort_time(self) -> float:
        """Measured time when available, else predicted (used for ranking)."""
        return self.measured_time if self.measured_time is not None else self.predicted_time

    def row(self) -> dict:
        """Flat dict for table printing."""
        d: dict = {"algorithm": self.candidate.label, "P": self.candidate.P}
        d["t_pred"] = self.predicted_time
        d["t_meas"] = self.measured_time if self.measured_time is not None else float("nan")
        for k in ("flops", "words", "messages"):
            d[k] = self.measured[k] if self.measured else float("nan")
        d["note"] = "" if self.measured else "predicted only"
        return d


@dataclass
class PlanResult:
    """Ranked plans plus everything the planner excluded and why."""

    m: int
    n: int
    P_grid: tuple[int, ...]
    profile: CostParams
    plans: list[Plan]
    rejected: list[Rejection]
    stats: dict = field(default_factory=dict)

    def best(self) -> Plan | None:
        """The top-ranked plan, or ``None`` if nothing was feasible."""
        return self.plans[0] if self.plans else None

    def explain(self) -> str:
        """Human-readable account of exclusions (and of emptiness)."""
        lines = []
        if not self.plans:
            lines.append(
                f"no feasible candidate for m={self.m}, n={self.n}, "
                f"P in {list(self.P_grid)}:"
            )
        for r in self.rejected:
            lines.append(f"  - {r.label} @ P={r.P}: {r.reason}")
        if not self.rejected and not self.plans:
            lines.append("  (no algorithms enabled in the config)")
        return "\n".join(lines)

    def table(self, top: int | None = None) -> str:
        """Formatted ranked plan table (the CLI's output)."""
        rows = []
        shown = self.plans if top is None else self.plans[:top]
        for rank, p in enumerate(shown, start=1):
            row = {"rank": rank}
            row.update(p.row())
            rows.append(row)
        cols = ["rank", "algorithm", "P", "t_pred", "t_meas",
                "flops", "words", "messages", "note"]
        title = (f"ranked plans for m={self.m}, n={self.n}, "
                 f"P in {list(self.P_grid)} on '{self.profile.name}' "
                 f"(alpha={self.profile.alpha:g}, beta={self.profile.beta:g}, "
                 f"gamma={self.profile.gamma:g})")
        return format_run_table(rows, columns=cols, title=title)


#: Ranked-plan cache: (m, n, P_grid, profile triple, config, budget) -> PlanResult.
_PLAN_CACHE: dict[tuple, PlanResult] = {}


def clear_caches() -> None:
    """Drop both the ranked-plan cache and the measurement cache."""
    _PLAN_CACHE.clear()
    _MEASURE_CACHE.clear()


def resolve_profile(profile: str | CostParams) -> CostParams:
    """Accept a profile name, an ``"alpha,beta,gamma"`` string, or CostParams.

    >>> resolve_profile("cluster").name
    'cluster'
    >>> resolve_profile("1e-5,4e-9,1e-10").alpha
    1e-05
    """
    if isinstance(profile, CostParams):
        return profile
    if profile in MACHINE_PROFILES:
        return MACHINE_PROFILES[profile]
    parts = str(profile).split(",")
    if len(parts) == 3:
        try:
            a, b, g = (float(x) for x in parts)
        except ValueError:
            pass
        else:
            return CostParams(alpha=a, beta=b, gamma=g, name="custom")
    raise ParameterError(
        f"unknown profile {profile!r}; use one of {sorted(MACHINE_PROFILES)} "
        "or an 'alpha,beta,gamma' triple"
    )


def _p_grid(P: int | None, P_budget: int | None) -> tuple[int, ...]:
    """Either the fixed ``P`` or powers of two up to (and including) the budget."""
    if (P is None) == (P_budget is None):
        raise ParameterError("specify exactly one of P or P_budget")
    if P is not None:
        # P < 1 is not an error here: enumeration explains it per
        # algorithm, yielding the empty-but-explained PlanResult.
        return (P,)
    if P_budget < 1:
        raise ParameterError(f"P_budget must be >= 1, got {P_budget}")
    grid = []
    p = 1
    while p <= P_budget:
        grid.append(p)
        p *= 2
    if grid[-1] != P_budget:
        grid.append(P_budget)
    return tuple(grid)


def plan(
    m: int,
    n: int,
    P: int | None = None,
    *,
    P_budget: int | None = None,
    profile: str | CostParams = "cluster",
    config: PlannerConfig = DEFAULT_CONFIG,
    measure_budget: float | None = None,
) -> PlanResult:
    """Rank every feasible (algorithm, knobs, P) for a problem on a machine.

    Parameters
    ----------
    m, n:
        Global matrix shape (``m >= n``; wide inputs yield an
        empty-but-explained result, see :meth:`PlanResult.explain`).
    P:
        Fixed processor count; mutually exclusive with ``P_budget``.
    P_budget:
        Search powers of two up to this processor budget (inclusive).
    profile:
        Machine profile name, ``"alpha,beta,gamma"`` string, or
        :class:`~repro.machine.CostParams`.
    config:
        Knob grids and pruning policy (:class:`PlannerConfig`).
    measure_budget:
        Approximate wall-clock seconds for the measurement stage.  The
        predicted-best candidate is always measured; further
        measurements start only while the elapsed time plus a safety
        multiple of the longest measurement so far fits the budget.
        ``None`` measures every survivor.

    Rankings and measurements are cached per process (a symbolic
    measurement is exact, so re-measuring returns the same triple);
    :func:`clear_caches` drops both.
    """
    prof = resolve_profile(profile)
    grid = _p_grid(P, P_budget)
    key = (m, n, grid, (prof.alpha, prof.beta, prof.gamma, prof.name),
           config, measure_budget)
    if key in _PLAN_CACHE:
        return _PLAN_CACHE[key]

    t0 = _time.perf_counter()
    measure_before = _measure_stats.snapshot()
    rejected: list[Rejection] = []
    predictions: list[Prediction] = []
    n_candidates = 0
    for p in grid:
        cands, rej = enumerate_candidates(m, n, p, config)
        n_candidates += len(cands)
        rejected.extend(rej)
        predictions.extend(predict(c, m, n, prof) for c in cands)

    survivors, pruned = prune(predictions, config.prune_factor, config.max_measured)
    rejected.extend(pruned)

    plans: list[Plan] = []
    longest = 0.0
    measured_count = 0
    budget_cut = 0
    for i, pred in enumerate(survivors):
        elapsed = _time.perf_counter() - t0
        within_budget = (
            measure_budget is None
            or i == 0
            or elapsed + 1.5 * longest <= measure_budget
        )
        if not within_budget:
            budget_cut += 1
            plans.append(Plan(pred.candidate, pred.triple, pred.time))
            continue
        t_run = _time.perf_counter()
        triple, rej = try_measure(pred.candidate, m, n)
        longest = max(longest, _time.perf_counter() - t_run)
        if triple is None:
            rejected.append(rej)
            continue
        measured_count += 1
        plans.append(
            Plan(pred.candidate, pred.triple, pred.time, triple, prof.time(**triple))
        )

    # Measured plans first (by measured time), then predicted-only ones.
    plans.sort(key=lambda pl: (pl.measured is None, pl.sort_time))
    result = PlanResult(
        m=m, n=n, P_grid=grid, profile=prof, plans=plans, rejected=rejected,
        stats={
            "candidates": n_candidates,
            "pruned": len(pruned),
            "measured": measured_count,
            "budget_skipped": budget_cut,
            "elapsed_s": round(_time.perf_counter() - t0, 3),
            # This call's own measurement counters (the module counters
            # are cumulative across the whole process).
            "measure": {
                k: round(v - measure_before[k], 3)
                for k, v in _measure_stats.snapshot().items()
            },
        },
    )
    _PLAN_CACHE[key] = result
    return result


def plan_and_run(
    A: np.ndarray | None = None,
    m: int | None = None,
    n: int | None = None,
    P: int | None = None,
    *,
    P_budget: int | None = None,
    profile: str | CostParams = "cluster",
    config: PlannerConfig = DEFAULT_CONFIG,
    measure_budget: float | None = None,
    seed: int = 0,
    validate: bool = True,
    backend: str = "numeric",
    workers: int | None = None,
) -> tuple[PlanResult, RunResult]:
    """Plan, then execute the winner on real data.

    Pass either a concrete matrix ``A`` or a shape ``(m, n)`` (a
    Gaussian test matrix is generated).  Returns the full
    :class:`PlanResult` and the winner's
    :class:`~repro.workloads.RunResult`, residual included -- the
    one-call "ask the system what to run, then run it" entry point.

    ``backend`` names any registered execution backend for the
    run-after-plan step (planning itself always measures on the
    symbolic backend): ``"numeric"`` (default) runs serially,
    ``"parallel"`` executes the winner on ``workers`` engine threads,
    ``"symbolic"`` re-runs cost-only (no validation, shape-only input).
    """
    from repro.backend import resolve_backend

    impl = resolve_backend(backend)
    if A is not None:
        A = np.asarray(A)
        if A.ndim != 2:
            raise ParameterError(
                f"A must be a 2-D matrix, got ndim={A.ndim}; to plan by shape, "
                "pass m and n as keywords: plan_and_run(m=..., n=..., P=...)"
            )
        m, n = A.shape
    elif m is None or n is None:
        raise ParameterError("pass either A or both m and n")
    result = plan(m, n, P, P_budget=P_budget, profile=profile,
                  config=config, measure_budget=measure_budget)
    best = result.best()
    if best is None:
        raise ParameterError(
            "no feasible plan:\n" + result.explain()
        )
    if A is None:
        A = impl.make_input(m, n, seed=seed)
    run = run_qr(best.candidate.algorithm, A, P=best.candidate.P,
                 validate=validate, backend=backend, workers=workers,
                 **best.candidate.kwargs())
    return result, run
