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

Every job is one :func:`run_job`, and :func:`repro.workloads.run_qr`
on an engine backend (``"parallel"``, the default here, or
``"parallel-mp"``) is one such job: its first run of a shape builds
and caches the plan, a repeat replays it.  A build -- machine, record,
first execute -- happens in one place,
:func:`repro.workloads.sweeps.build`, for cached jobs, for jobs that
bypass the cache (eager backends, fault runs) and for ``repro trace``.
The cache is a :class:`~repro.util.memo.Memo` (an LRU) under one byte
budget, :data:`PLAN_CACHE_BYTES`.

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
from typing import Sequence

import numpy as np

from repro.backend import Backend, resolve_backend
from repro.engine.lazy import output_tids, resolve
from repro.machine import CostParams, ParameterError
from repro.telemetry.recorder import current_recorder
from repro.util.memo import Memo
from repro.workloads.sweeps import Build, RunResult, build

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


#: Byte budget of the plan cache (``_PLAN_CACHE.budget``): the task
#: values its entries keep alive.  It holds the four engine entries of
#: any one benchmark workload (``parallel`` and ``parallel-mp``,
#: validating or not): ``tallskinny``'s count 206 MiB (71 MiB per
#: thread-engine entry), ``squarish3d``'s 138 MiB, ``grid2d-percolumn``'s
#: 6 MiB.  A stream of many shapes evicts the least recently used plans
#: instead of growing.
PLAN_CACHE_BYTES = 256 << 20


def _value_bytes(plan) -> int:
    """Bytes of array memory ``plan``'s task values keep alive.

    Counted once per base buffer: an ``updates=`` task returns the
    array it wrote, so one buffer is the value of many tasks (and a
    view's bytes are its base's).
    """
    bases: dict[int, int] = {}
    for task in plan.tasks:
        value = task.value
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                while isinstance(a.base, np.ndarray):
                    a = a.base
                bases[id(a)] = a.nbytes
    return sum(bases.values())


#: The process's plan cache, keyed by :func:`_job_key`.  An entry is a
#: :class:`~repro.workloads.sweeps.Build`: its machine (and engine), its
#: compiled plan and the task values of its last execute.  Replays only
#: rebind the input leaves, and a recovery's ``rearm`` reads executed
#: values, so nothing is released between jobs, and replays across
#: run_many calls in one process also hit.  An entry's bytes are counted
#: once, by :func:`_admit` after its first execute, never on a hit; the
#: caller closes what an admission evicts (:func:`_close`).
_PLAN_CACHE = Memo(PLAN_CACHE_BYTES)
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


def _close(entries: list[tuple[tuple, Build]]) -> None:
    """Close the engines of entries no longer in the cache.

    Each is closed under its key's lock, so a job replaying it finishes
    first: a ``parallel-mp`` pool then reaps its workers and unlinks its
    shared memory at once, without waiting for the GC.  The caller must
    hold no entry lock.
    """
    for key, built in entries:
        with _entry_lock(key):
            built.machine.engine.close()


def clear_plan_cache() -> None:
    """Drop every cached execution plan and close its engine."""
    _close(_PLAN_CACHE.clear())


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


def _admit(key: tuple, A: np.ndarray, built: Build) -> list[tuple[tuple, Build]]:
    """Cache an engine build after its first execute; return what it evicted."""
    inputs, blocks = len(built.machine.plan.inputs), len(built.slicer(A))
    if inputs != blocks:
        raise ParameterError(
            f"plan registered {inputs} input leaves for {blocks} blocks; "
            "replay would be unsafe"
        )
    return _PLAN_CACHE.put(key, built, _value_bytes(built.machine.plan))


def _replay(cached: Build, A: np.ndarray) -> tuple:
    """Re-execute a cached plan against a new same-shape input."""
    machine = cached.machine
    # The input leaves were registered block by block, in participant
    # order, when the distributed container coerced the first job's
    # blocks -- slice the new matrix the same deterministic way.
    machine.plan.rebind(cached.slicer(A))
    machine.plan.reset()
    machine.engine.execute(
        machine.plan, outputs=output_tids(cached.lazy_factors)
    )
    return resolve(cached.lazy_factors)


def _cached_job(
    key: tuple, alg: str, A, P: int, params: dict, validate: bool,
    backend: Backend, workers: int | None, cost_params: CostParams | None, rec,
) -> tuple[Build, tuple, str]:
    """Replay ``key``'s cached plan on ``A``, or build and cache it."""
    evicted: list[tuple[tuple, Build]] = []
    try:
        with _entry_lock(key):
            cached = _PLAN_CACHE.get(key)
            if rec.enabled:
                rec.metrics.inc(
                    "run_many.plan_cache.misses" if cached is None
                    else "run_many.plan_cache.hits"
                )
            if cached is None:
                cached, factors = build(
                    alg, A, P, params, validate, backend, workers, cost_params,
                    keep=lambda built: evicted.extend(_admit(key, A, built)),
                )
                return cached, factors, "miss"
            # A cached plan's engine carries the recorder installed at
            # build time; re-point it so replays report to the recorder
            # active *now* (and stop reporting to a stale one).
            cached.machine.engine.telemetry = rec
            cached.machine.telemetry = rec
            return cached, _replay(cached, A), "hit"
    finally:
        _close(evicted)  # with the key's lock released: see _close


def run_job(
    alg: str, A, P: int, params: dict, validate: bool, backend: Backend,
    workers: int | None = None, cost_params: CostParams | None = None,
    fault_plan=None, recovery=None,
) -> RunResult:
    """One job: a cached plan's replay, or a :func:`~repro.workloads.sweeps.build`.

    The step :func:`run_many` takes per job and
    :func:`~repro.workloads.run_qr` takes on an engine backend.  ``A``
    is already coerced by ``backend``.  An engine job with no
    ``fault_plan`` / ``recovery`` goes through the plan cache (span
    ``plan_cache="miss"`` or ``"hit"``); every other job builds and
    leaves the cache alone (``"bypass"``): an eager backend has no plan
    to replay, a trigger fires once, and a recovery may grow the plan.
    """
    rec = current_recorder()
    t0 = rec.now() if rec.enabled else 0.0
    m, n = A.shape
    if backend.parallel and fault_plan is None and recovery is None:
        key = _job_key(alg, m, n, P, A.dtype, params, workers, cost_params,
                       validate, backend.name)
        cached, factors, state = _cached_job(key, alg, A, P, params, validate,
                                             backend, workers, cost_params, rec)
    else:
        state = "bypass"
        cached, factors = build(alg, A, P, params, validate, backend, workers,
                                cost_params, fault_plan=fault_plan, recovery=recovery)
    result = cached.result(A, factors, validate)
    if rec.enabled:
        rec.job_span(f"job:{alg} {m}x{n} P={P}", t0, rec.now() - t0, plan_cache=state)
    return result


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
        default ``"parallel"`` amortizes plans by replay, as does
        ``"parallel-mp"``; an eager backend (numeric, symbolic) has no
        plan to replay and builds every job.
    """
    impl = resolve_backend(backend)
    if not impl.validates:
        validate = False
    results: list[RunResult] = []
    for job in jobs:
        A = impl.coerce_global(job.A)
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
        results.append(run_job(alg, A, P_job, params, validate, impl, workers, cost_params))
    return results
