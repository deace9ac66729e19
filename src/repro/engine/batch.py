"""``run_many``: a batched QR driver over streams of jobs.

A production QR service does not factor one matrix: it factors a
*stream* of matrices, most of them shaped like the last one.  This
driver amortizes the two expensive non-numeric stages across such a
stream:

* **plan replay** -- the first job of each ``(algorithm, m, n, P,
  knobs)`` shape builds the parallel backend's execution plan (which
  meters costs and records every kernel); subsequent jobs *rebind* the
  plan's input leaves to the new matrix's blocks and re-execute only
  the array kernels.  All of the Python-side simulation -- clock
  updates, collective routing, layout arithmetic, ``words_of`` -- is
  skipped, and the cost report is reused (it is provably identical:
  same shapes, same plan).  What that buys is measured by the repo
  benchmark, not asserted here: ``BENCHMARK.json`` gates a warm
  thread-engine job (``threads_job_ms_p10``), a warm ``parallel-mp``
  job (``mp_job_ms_p10``) and the first job of a shape
  (``threads_cold_ms_p10`` / ``mp_cold_ms_p10``) against a serial
  numeric job (``serial_job_ms_p10``) on ``tallskinny`` /
  ``squarish3d`` / ``grid2d-percolumn``; the README's backend table
  holds the current readings, losing cells included.  Every algorithm
  in :data:`repro.workloads.ALGORITHMS` replays this way; jobs of a
  *different* shape (even a different leading dimension) build their
  own plan -- :meth:`repro.engine.plan.Plan.rebind` rejects a rebind
  across shapes.
* **planner caching** -- with ``plan_with`` set, jobs that do not pin
  an algorithm ask :func:`repro.planner.plan` to choose one for the
  target machine profile.  The planner's ranked-plan and measurement
  caches mean each distinct shape is planned once per stream no matter
  how many jobs share it.

The executing backend is registry-dispatched: ``backend="parallel"``
(default) replays plans as above, while any other registered backend
name runs each job through the one-shot harness.

>>> import numpy as np
>>> from repro.engine.batch import QRJob, run_many
>>> rng = np.random.default_rng(0)
>>> jobs = [QRJob("tsqr", rng.standard_normal((96, 4))) for _ in range(3)]
>>> results = run_many(jobs, P=4, validate=True)
>>> [round(r.diagnostics.residual, 10) for r in results]
[0.0, 0.0, 0.0]
>>> results[0].report == results[2].report
True

Paper anchor: Section 8.4 (tuning and re-running across problem
shapes); Section 3 (replaying the execution DAG).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.backend import Backend, resolve_backend
from repro.machine import CostParams, Machine, ParameterError
from repro.qr.validate import QRDiagnostics
from repro.telemetry.recorder import current_recorder
from repro.workloads.sweeps import RunResult, drive, run_qr

__all__ = ["QRJob", "clear_plan_cache", "run_many"]


@dataclass
class QRJob:
    """One QR factorization request in a :func:`run_many` stream.

    ``algorithm=None`` asks the planner to choose (requires
    ``plan_with`` on the driver call).
    """

    algorithm: str | None
    A: np.ndarray
    P: int | None = None
    params: dict = field(default_factory=dict)


@dataclass
class _CachedPlan:
    """A built parallel plan keyed by job shape, ready for replay."""

    machine: Machine
    slicer: Callable[[np.ndarray], list[np.ndarray]]
    lazy_factors: tuple
    diag_fn: Callable
    params: dict
    report: Any
    words_by_label: dict


#: shape key -> _CachedPlan.  Plans hold their machine (and its engine),
#: so replays across run_many calls in one process also hit.
_PLAN_CACHE: dict[tuple, _CachedPlan] = {}
#: shape key -> the lock serializing that entry's build and replays: a
#: replay rebinds, resets and executes the one shared plan, so two
#: callers of one shape take turns; different shapes run concurrently.
#: Never cleared: a caller arriving after :func:`clear_plan_cache` must
#: still wait for a build that holds the key's lock.
_ENTRY_LOCKS: dict[tuple, threading.Lock] = {}
_LOCKS_LOCK = threading.Lock()


def _entry_lock(key: tuple) -> threading.Lock:
    with _LOCKS_LOCK:
        return _ENTRY_LOCKS.setdefault(key, threading.Lock())


def clear_plan_cache() -> None:
    """Drop every cached execution plan (tests and memory control)."""
    _PLAN_CACHE.clear()


def _job_key(
    alg: str, m: int, n: int, P: int, dtype, params: dict,
    workers: int | None, cost_params: CostParams | None, validate: bool,
    backend_name: str,
) -> tuple:
    # Every field that changes the cached artifact must be here.
    # workers and cost_params are part of plan identity: a cached plan
    # carries its machine's engine configuration and its report.
    # validate is too: a validating plan records extra result kernels
    # (the 2D baselines' T reconstruction) that a cost-only stream must
    # not re-execute on every replay.  The backend name is as well --
    # "parallel" and "parallel-mp" plans carry different engines (thread
    # pool vs forked process pool) and must never alias in the cache.
    return (
        alg, m, n, P, np.dtype(dtype).str, tuple(sorted(params.items())),
        workers, cost_params, validate, backend_name,
    )


def _build(
    alg: str, A: np.ndarray, P: int, params: dict,
    workers: int | None, cost_params: CostParams | None,
    backend: Backend, validate: bool,
) -> _CachedPlan:
    """First job of a shape: run the full driver once, keep the plan."""
    machine = Machine(P, params=cost_params, backend=backend, workers=workers)
    resolved = dict(params)
    factors, diag_fn, slicer = drive(alg, machine, A, resolved, validate=validate)
    n_blocks = len(slicer(A))
    if len(machine.plan.inputs) != n_blocks:
        raise ParameterError(
            f"plan registered {len(machine.plan.inputs)} input leaves for "
            f"{n_blocks} blocks; replay would be unsafe"
        )
    return _CachedPlan(
        machine=machine,
        slicer=slicer,
        lazy_factors=factors,
        diag_fn=diag_fn,
        params=resolved,
        report=machine.report(),
        words_by_label=dict(machine.words_by_label),
    )


def _replay(cached: _CachedPlan, A: np.ndarray) -> tuple:
    """Re-execute a cached plan against a new same-shape input."""
    machine = cached.machine
    # The input leaves were registered block by block, in participant
    # order, when the distributed container coerced the first job's
    # blocks -- slice the new matrix the same deterministic way.
    machine.plan.rebind(cached.slicer(A))
    machine.plan.reset()
    from repro.engine.lazy import output_tids, resolve

    machine.engine.execute(
        machine.plan, outputs=output_tids(cached.lazy_factors)
    )
    return resolve(cached.lazy_factors)


def run_many(
    jobs: Sequence[QRJob],
    P: int | None = None,
    workers: int | None = None,
    validate: bool = False,
    plan_with: str | CostParams | None = None,
    cost_params: CostParams | None = None,
    backend: str | Backend = "parallel",
) -> list[RunResult]:
    """Factor a stream of matrices, amortizing plans across the stream.

    Parameters
    ----------
    jobs:
        The request stream.  Every algorithm in
        :data:`repro.workloads.ALGORITHMS` runs on the parallel engine
        with plan replay.
    P:
        Default processor count for jobs that do not set one.
    workers:
        Engine thread count (parallel jobs).
    validate:
        Compute residual/orthogonality diagnostics per job.
    plan_with:
        Machine profile name or :class:`CostParams`; jobs with
        ``algorithm=None`` ask :func:`repro.planner.plan` to choose the
        algorithm and knobs for this profile (the planner's caches make
        repeats free).
    cost_params:
        Cost parameters for the executing machines (replayed jobs reuse
        the first job's report, which is shape-determined).
    backend:
        Registered backend name (or instance) to execute on.  The
        default ``"parallel"`` amortizes plans by replay; any
        non-parallel backend runs each job through the one-shot
        harness :func:`repro.workloads.run_qr` instead.
    """
    impl = resolve_backend(backend)
    rec = current_recorder()
    results: list[RunResult] = []
    for job in jobs:
        job_t0 = rec.now() if rec.enabled else 0.0
        A = np.asarray(job.A)
        m, n = A.shape
        P_job = job.P if job.P is not None else P
        if P_job is None:
            raise ParameterError("job has no P and run_many was given no default")
        alg, params = job.algorithm, dict(job.params)
        if alg is None:
            if plan_with is None:
                raise ParameterError(
                    "job has algorithm=None; pass plan_with= to let the "
                    "planner choose"
                )
            from repro.planner import plan as planner_plan
            from repro.planner import resolve_profile

            ranked = planner_plan(m, n, P_job, profile=resolve_profile(plan_with))
            best = ranked.best()
            if best is None:
                raise ParameterError(
                    f"planner found no feasible algorithm for "
                    f"(m={m}, n={n}, P={P_job}):\n{ranked.explain()}"
                )
            alg = best.candidate.algorithm
            P_job = best.candidate.P
            params = {**best.candidate.kwargs(), **params}
        impl.require(alg)
        if not impl.parallel:
            # Eager backends have no plan to amortize: one-shot harness.
            results.append(
                run_qr(alg, A, P=P_job, cost_params=cost_params,
                       validate=validate, backend=impl, workers=workers, **params)
            )
            if rec.enabled:
                rec.job_span(
                    f"job:{alg} {m}x{n} P={P_job}", job_t0, rec.now() - job_t0,
                    plan_cache="bypass",
                )
            continue

        key = _job_key(alg, m, n, P_job, A.dtype, params, workers, cost_params,
                       validate, impl.name)
        with _entry_lock(key):
            cached = _PLAN_CACHE.get(key)
            hit = cached is not None
            if rec.enabled:
                rec.metrics.inc(
                    "run_many.plan_cache.hits" if hit else "run_many.plan_cache.misses"
                )
            if not hit:
                cached = _build(alg, A, P_job, params, workers, cost_params, impl, validate)
                _PLAN_CACHE[key] = cached
                factors = cached.machine.materialize(cached.lazy_factors)
            else:
                # A cached plan's engine carries the recorder installed at
                # build time; re-point it so replays report to the recorder
                # active *now* (and stop reporting to a stale one).
                cached.machine.engine.telemetry = rec
                cached.machine.telemetry = rec
                factors = _replay(cached, A)
        diag = (
            cached.diag_fn(A, factors)
            if validate
            else QRDiagnostics(0.0, 0.0, 0.0, 0.0, 0.0)
        )
        results.append(
            RunResult(
                alg, m, n, P_job, cached.params, cached.report, diag,
                words_by_label=dict(cached.words_by_label),
            )
        )
        if rec.enabled:
            rec.job_span(
                f"job:{alg} {m}x{n} P={P_job}", job_t0, rec.now() - job_t0,
                plan_cache="hit" if hit else "miss",
            )
    return results
