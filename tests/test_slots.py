"""Slots: a replayed plan writes into the buffers it already owns.

After a plan's first execute the thread engine gives each task whose
kernel can write into its own last value (and the write rule's copies)
a slot, unless that value shares a buffer with what the caller resolves
(:func:`repro.engine.compile.assign_slots`).  Pinned here:

* the leaf ``V`` buffers of a two-lane tsqr plan, which ``tsqr_V``
  overwrites in place, keep their addresses from replay to replay;
* factors resolved from one validating replay are not touched by the
  next, and equal serial numeric's, for every algorithm;
* a warm replay's traced allocation peak is a small fraction of the
  plan's value bytes (``tracemalloc`` is deterministic where page-fault
  counts are not);
* a fault or recovery run gets no slot, and an evicted plan's slots are
  freed with it.

``tracemalloc`` is process-wide, so CI runs this file on its own.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.backend import resolve_backend
from repro.engine import QRJob, run_many
from repro.engine.batch import _PLAN_CACHE, _replay, _value_bytes, clear_plan_cache
from repro.engine import output_tids
from repro.faults import FaultPlan, RetryTask, run_coded_qr
from repro.machine import Machine
from repro.qr.householder import apply_wy
from repro.workloads import ALGORITHMS, gaussian
from repro.workloads.sweeps import build

PARALLEL = resolve_backend("parallel")

#: One small shape per algorithm, as in ``tests/test_plan_freed.py``.
SHAPES = {
    "tsqr": (64, 4, 4, {}),
    "house1d": (96, 6, 8, {}),
    "caqr1d": (210, 5, 7, {}),
    "house2d": (48, 24, 6, {}),
    "caqr2d": (60, 30, 9, {}),
    "caqr3d": (256, 64, 8, {"b": 16, "bstar": 4}),
    "wide": (24, 48, 6, {}),
    "applyq": (96, 6, 8, {}),
    "mm1d": (96, 6, 8, {}),
    "mm3d": (48, 24, 6, {}),
}


def _cached():
    (built,) = _PLAN_CACHE.entries()
    return built


def _leaf_buffers(plan, rows: int, n: int) -> dict[int, int]:
    """tid -> address of each leaf ``geqrt`` V and of each ``tsqr_V`` write."""
    out = {}
    for t in plan.tasks:
        if t.label in ("geqrt", "tsqr_V") and t.value[0].shape == (rows, n):
            out[t.tid] = t.value[0].ctypes.data
    return out


def test_two_lane_tsqr_leaf_buffers_keep_their_addresses():
    # Each leaf's V_p is written in place over its geqrt basis, so the
    # tsqr_V writes land at the geqrt slots' addresses, job after job.
    m, n, P = 8192, 64, 8
    jobs = [QRJob("tsqr", gaussian(m, n, seed=s)) for s in range(5)]
    run_many(jobs[:1], P, workers=2)
    built = _cached()
    engine, plan = built.machine.engine, built.machine.plan
    assert engine.lanes == 2
    slotted = [t for t in plan.tasks if t.slot]
    assert {t.label for t in slotted} >= {"geqrt", "apply_wy"}
    assert engine._cplan.stats["slots"] == len(slotted)
    seen = []
    for job in jobs[1:]:
        run_many([job], P, workers=2)
        seen.append(_leaf_buffers(plan, m // P, n))
    assert len(seen[0]) == 2 * P
    assert all(addrs == seen[0] for addrs in seen[1:])
    labels = {t.tid: t.label for t in plan.tasks}
    by_label = {lab: {a for tid, a in seen[0].items() if labels[tid] == lab}
                for lab in ("geqrt", "tsqr_V")}
    assert len(by_label["geqrt"]) == P and by_label["tsqr_V"] == by_label["geqrt"]


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_resolved_factors_survive_the_next_replay(alg, first_execute_on_workers):
    m, n, P, params = SHAPES[alg]
    A = [gaussian(m, n, seed=s) for s in range(3)]
    built, _ = build(alg, A[0], P, params, True, PARALLEL, workers=2)
    serial = build(alg, A[1], P, params, True, resolve_backend("numeric"))[1]
    got = _replay(built, A[1])
    kept = [np.array(f, copy=True) for f in got]
    _replay(built, A[2])
    for g, k, s in zip(got, kept, serial):
        assert np.array_equal(g, k) and np.array_equal(g, s)
    assert first_execute_on_workers and set(first_execute_on_workers) == {2}


def test_an_escaped_kernel_result_gets_no_slot():
    """A resolved kernel result, or one a resolved view reads, is not slotted."""
    rng = np.random.default_rng(0)
    machine = Machine(2, backend="parallel", workers=1)
    ops = machine.ops
    V, T = ops.asarray(np.tril(rng.standard_normal((6, 3)))), ops.asarray(np.eye(3))
    C = ops.asarray(rng.standard_normal((6, 2)))
    kept, viewed, free = (apply_wy(machine, p, V, T, C) for p in (0, 1, 1))
    outputs = (kept, viewed[:2])
    first = [np.array(a, copy=True) for a in machine.materialize(outputs)]
    resolved = machine.materialize(outputs)
    slots = {la.ref.task.slot for la in (kept, viewed)}
    assert slots == {False} and free.ref.task.slot
    plan = machine.plan
    plan.rebind([np.tril(rng.standard_normal((6, 3))), np.eye(3), rng.standard_normal((6, 2))])
    plan.reset()
    machine.engine.execute(plan, outputs=output_tids(outputs))
    for got, want in zip(resolved, first):
        assert np.array_equal(got, want)


#: A warm replay of the tsqr plan below still allocates what no slot
#: covers: the ``n x n`` tree and reconstruction arrays and each
#: ``tsqr_V``'s strip scratch.  Measured: 8.5 % of the value bytes
#: (16.5 % while the root's ``V`` and the merges' stacked triangles
#: were ``vstack``s and ``T`` / ``R`` fresh ``np.where`` copies);
#: without slots every value is allocated again (100 %).
PEAK_FRACTION = 0.25


def test_a_warm_replay_allocates_a_small_fraction_of_the_values():
    m, n, P = 8192, 64, 8
    run_many([QRJob("tsqr", gaussian(m, n, seed=0))], P, workers=2)
    built = _cached()
    B = gaussian(m, n, seed=1)
    _replay(built, B)
    tracemalloc.start()
    try:
        _replay(built, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_FRACTION * _value_bytes(built.machine.plan)


def test_fault_and_recovery_runs_get_no_slot():
    A = gaussian(256, 16)
    built, _ = build("tsqr", A, 4, {}, False, PARALLEL, workers=2,
                     fault_plan=FaultPlan.parse("1@2"), recovery=RetryTask(1))
    assert not any(t.slot for t in built.machine.plan.tasks)
    built, _ = build("tsqr", A, 4, {}, False, PARALLEL, workers=2, recovery=RetryTask(1))
    assert not any(t.slot for t in built.machine.plan.tasks)
    coded = run_coded_qr("tsqr", A, 4, f=1, fault="1@2", workers=2)
    assert coded.recoveries == 1
    assert not any(t.slot for t in coded.machine.plan.tasks)


def test_an_evicted_plan_frees_its_slots():
    run_many([QRJob("tsqr", gaussian(2048, 16))] * 2, 4, workers=2)
    (buf,) = [t.value[0] for t in _cached().machine.plan.tasks if t.slot][:1]
    gone = weakref.ref(buf)
    del buf
    clear_plan_cache()
    gc.collect()
    assert gone() is None
