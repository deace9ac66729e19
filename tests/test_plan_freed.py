"""A plan is plain data: an evicted or cleared plan is freed at once.

Nothing a plan or an engine keeps closes over the plan or the engine,
and a task's ``Ref`` handles are top-level arguments, so the only references
between tasks are ``Ref -> Task`` and a cache entry nobody holds is
freed by reference counting the moment it is dropped -- not by a later
generation-2 collection.  Each case runs with the cyclic collector off
and asserts:

* a weakref to an evicted entry's ``Machine`` and ``Plan`` is dead right
  after the eviction;
* ``gc.collect()`` finds nothing after a cold build plus
  ``clear_plan_cache()``, nor after a warm job, for every algorithm on
  every backend (a job's LAPACK operands, collective schedules and
  combine kernels included);
* a checksum-coded run that recovered from a fault is freed once its
  result is dropped: the recovery policy bound to the run's checksums
  adds no cycle;
* ``defer`` and ``Plan.add`` reject a lazy array or ``Ref`` nested in a
  container argument, which a binding could not see.

The counts are process-wide, so CI also runs this file on its own.
"""

from __future__ import annotations

import contextlib
import gc
import weakref

import numpy as np
import pytest

from repro.engine import EngineError, Plan, Ref, batch, defer
from repro.engine.batch import _PLAN_CACHE, clear_plan_cache
from repro.faults import run_coded_qr
from repro.machine import Machine
from repro.workloads import ALGORITHMS, gaussian, run_qr

#: One small shape per algorithm (caqr3d in its inductive case, which
#: runs mm3d's all-to-alls and the bidirectional collectives).
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

BACKENDS = ["numeric", "symbolic", "parallel",
            pytest.param("parallel-mp", marks=pytest.mark.mp)]


@contextlib.contextmanager
def collector_off():
    """Run the body with the cyclic collector off, starting from none."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture(scope="module", autouse=True)
def warmed_up():
    # The first job in a process leaves a few hundred objects that are
    # not the library's (stdlib ``inspect`` signature parsing): take it
    # outside the counted window.
    for backend in ("numeric", "parallel"):
        run_qr("tsqr", gaussian(64, 4, seed=1), 4, backend=backend, workers=2)
    clear_plan_cache()


def _job(alg: str, backend: str, validate: bool = True) -> None:
    m, n, P, knobs = SHAPES[alg]
    A = (m, n) if backend == "symbolic" else gaussian(m, n, seed=0)
    run_qr(alg, A, P, backend=backend, workers=2,
           validate=validate and backend != "symbolic", **knobs)


def test_every_algorithm_has_a_shape():
    assert sorted(SHAPES) == sorted(ALGORITHMS)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("alg", sorted(SHAPES))
def test_a_cold_build_and_a_clear_leave_no_cyclic_garbage(alg, backend):
    with collector_off():
        _job(alg, backend)
        clear_plan_cache()
        assert gc.collect() == 0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("alg", sorted(SHAPES))
def test_a_warm_job_leaves_no_cyclic_garbage(alg, backend):
    with collector_off():
        _job(alg, backend)
        gc.collect()
        _job(alg, backend)
        assert gc.collect() == 0


@pytest.mark.parametrize("alg", ["tsqr", "house2d", "caqr3d"])
def test_two_lanes_leave_no_cyclic_garbage(alg, first_execute_on_workers):
    # Rendezvous slots, the lane pool and the engine's fetch.
    with collector_off():
        _job(alg, "parallel")
        _job(alg, "parallel")
        clear_plan_cache()
        assert gc.collect() == 0
    assert first_execute_on_workers == [2, 2]


@pytest.mark.parametrize("backend", ["parallel",
                                     pytest.param("parallel-mp", marks=pytest.mark.mp)])
def test_an_evicted_entry_is_freed_when_it_is_evicted(backend, monkeypatch):
    # Every insert evicts whatever else the cache holds.
    monkeypatch.setattr(_PLAN_CACHE, "budget", 1)
    with collector_off():
        run_qr("tsqr", gaussian(64, 4, seed=0), 4, backend=backend, workers=2)
        (built,) = _PLAN_CACHE.entries()
        machine, plan = weakref.ref(built.machine), weakref.ref(built.machine.plan)
        del built
        assert machine() is not None and plan() is not None
        run_qr("tsqr", gaussian(72, 4, seed=0), 4, backend=backend, workers=2)
        assert len(_PLAN_CACHE) == 1
        assert machine() is None and plan() is None


@pytest.mark.parametrize("alg", ["tsqr", "caqr1d"])
def test_a_recovered_coded_run_is_freed_when_its_result_is_dropped(alg):
    m, n, P, knobs = SHAPES[alg]
    with collector_off():
        res = run_coded_qr(alg, gaussian(m, n, seed=0), P, f=1, fault="1@2",
                           workers=2, **knobs)
        assert res.recoveries == 1
        machine, plan = weakref.ref(res.machine), weakref.ref(res.machine.plan)
        del res
        assert machine() is None and plan() is None
        assert gc.collect() == 0


class TestArgumentsAreFlat:
    def test_defer_rejects_a_nested_lazy(self):
        machine = Machine(2, backend="parallel")
        a = machine.ops.asarray(np.ones(2))
        for args in (([a],), ((a, 1),), ({"k": a},), ([[a]],)):
            with pytest.raises(EngineError, match="top-level argument"):
                defer(machine.plan, np.vstack, args, a.meta, rank=0)

    def test_plan_add_rejects_a_nested_ref(self):
        plan = Plan()
        t = plan.add(lambda: 1.0, rank=0)
        for args in (([Ref(t)],), ((Ref(t, 0),),), ({"k": Ref(t)},), (1, [(Ref(t),)])):
            with pytest.raises(EngineError, match="top-level argument"):
                plan.add(lambda *a: None, args, rank=0)
        assert len(plan.tasks) == 1

    def test_constant_containers_and_top_level_refs_are_recorded(self):
        plan = Plan()
        t = plan.add(lambda: 1.0, rank=0)
        u = plan.add(lambda v, s, d: v, (Ref(t), (slice(0, 1), 2), {"k": [1]}), rank=0)
        assert u.args[0].task is t

    def test_a_sequence_of_lazies_is_spread_into_top_level_refs(self):
        machine = Machine(2, backend="parallel")
        a = machine.ops.asarray(np.ones((1, 2)))
        b = machine.ops.asarray(np.zeros((1, 2)))
        out = np.concatenate((a, b, np.full((1, 2), 2.0)), axis=0)
        task = out.ref.task
        assert [type(x) for x in task.args[:2]] == [Ref, Ref]
        assert all(not isinstance(x, (list, tuple, dict)) for x in task.args)
        np.testing.assert_array_equal(
            machine.materialize(out), [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])
