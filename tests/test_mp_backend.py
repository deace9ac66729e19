"""The multiprocessing backend: cross-backend conformance, pool lifecycle.

Contracts pinned here:

* **conformance** -- ``backend="parallel-mp"`` produces factors that
  are bit-identical to serial numeric (same dataflow, same kernels,
  same BLAS) and the *identical* ``CostReport`` / ``words_by_label``
  as both numeric and the thread-pool parallel backend, over an
  (algorithm, m, n, P, workers) grid;
* **pool lifecycle** -- the forked worker pool persists across plan
  replays (that is the warm-replay win), ``close()`` leaves no live
  child process and no shared-memory segment behind (re-attaching by
  name raises ``FileNotFoundError``), teardown stays clean after a
  failed execution, and a dropped engine is reaped by its finalizer;
* **process rendezvous** -- cross-worker handoffs keep the thread
  engine's abort/poison semantics (typed ``RankFailure`` re-raised
  unwrapped, worker tracebacks preserved), and starvation diagnostics
  name the executor flavor and worker pid;
* **determinism stress** -- 20 replays of one cached plan on the pool
  give bit-identical factors and stable plan-cache hit counters.

Everything here skips cleanly (``@pytest.mark.mp``, see conftest) on
platforms without fork + POSIX shared memory.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.engine import Plan, Ref
from repro.engine.mp import MpEngine, mp_supported
from repro.machine import Machine, ParameterError
from repro.machine.exceptions import RankFailure
from repro.workloads import gaussian, run_qr
from repro.workloads.sweeps import drive

GUARD_TIMEOUT = 60.0

mp_only = pytest.mark.mp


def _factors(alg, A, P, backend, workers=None, **params):
    """(machine, resolved factor arrays) for one backend run."""
    machine = Machine(P, backend=backend, workers=workers)
    factors, _diag, _slicer = drive(alg, machine, A, dict(params), validate=True)
    factors = machine.materialize(factors)
    return machine, tuple(np.asarray(f) for f in factors)


def _close(machine):
    if machine.engine is not None and hasattr(machine.engine, "close"):
        machine.engine.close()


@mp_only
class TestConformanceGrid:
    """Factors and CostReports bit-identical across all three backends."""

    @pytest.mark.parametrize(
        "alg,m,n,P",
        [
            ("tsqr", 64, 4, 4),
            ("tsqr", 210, 5, 7),
            ("caqr1d", 96, 6, 8),
            ("caqr3d", 64, 32, 8),
            ("house1d", 96, 6, 8),
            ("house2d", 48, 24, 6),
            ("caqr2d", 48, 24, 6),
            ("wide", 24, 48, 6),
            ("applyq", 96, 6, 8),
            ("mm1d", 96, 6, 8),
            ("mm3d", 48, 24, 6),
        ],
    )
    def test_factors_and_report_match_both_backends(self, alg, m, n, P):
        A = gaussian(m, n, seed=11)
        m_num, f_num = _factors(alg, A, P, "numeric")
        m_thr, f_thr = _factors(alg, A, P, "parallel", workers=2)
        m_mp, f_mp = _factors(alg, A, P, "parallel-mp", workers=2)
        try:
            assert m_mp.report() == m_num.report()
            assert m_mp.report() == m_thr.report()
            assert dict(m_mp.words_by_label) == dict(m_num.words_by_label)
            assert len(f_mp) == len(f_num)
            for got, thr, want in zip(f_mp, f_thr, f_num):
                # Same dataflow, same kernels, same BLAS: equality is
                # exact, not approximate -- on every backend pair.
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(got, thr)
        finally:
            _close(m_mp)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("alg,m,n,P", [
        ("tsqr", 128, 8, 4),
        ("caqr2d", 60, 30, 9),
        ("caqr3d", 48, 24, 6),
    ])
    def test_worker_count_never_changes_results(self, alg, m, n, P, workers):
        # Ownership is rank % workers: any worker count must yield the
        # same factors and the same (shape-determined) report.
        A = gaussian(m, n, seed=7)
        m_num, f_num = _factors(alg, A, P, "numeric")
        m_mp, f_mp = _factors(alg, A, P, "parallel-mp", workers=workers)
        try:
            assert m_mp.report() == m_num.report()
            for got, want in zip(f_mp, f_num):
                np.testing.assert_array_equal(got, want)
        finally:
            _close(m_mp)

    def test_run_qr_diagnostics_bit_identical(self):
        A = gaussian(96, 8, seed=3)
        num = run_qr("tsqr", A, P=4, validate=True)
        mp_ = run_qr("tsqr", A, P=4, validate=True,
                     backend="parallel-mp", workers=2)
        assert mp_.report == num.report
        assert mp_.words_by_label == num.words_by_label
        assert mp_.diagnostics.residual == num.diagnostics.residual
        assert mp_.diagnostics.ok()


@mp_only
class TestRunManyOnThePool:
    """run_many replays one shipped plan across a stream of mp jobs."""

    def test_stream_matches_numeric_and_counts_cache(self):
        from repro.engine import QRJob, clear_plan_cache, run_many
        from repro.telemetry import recording

        clear_plan_cache()
        rng = np.random.default_rng(5)
        jobs = [QRJob("tsqr", rng.standard_normal((128, 8))) for _ in range(4)]
        with recording() as rec:
            got = run_many(jobs, P=4, workers=2, validate=True,
                           backend="parallel-mp")
        want = run_many(jobs, P=4, validate=True, backend="numeric")
        assert [r.report for r in got] == [r.report for r in want]
        assert [r.diagnostics.residual for r in got] == \
               [r.diagnostics.residual for r in want]
        assert rec.metrics.counter("run_many.plan_cache.misses") == 1
        assert rec.metrics.counter("run_many.plan_cache.hits") == 3
        clear_plan_cache()
        gc.collect()

    def test_backend_name_is_part_of_the_plan_cache_key(self):
        # A thread-pool plan and a process-pool plan of the same shape
        # carry different engines; they must never alias in the cache.
        from repro.engine import QRJob, clear_plan_cache, run_many
        from repro.telemetry import recording

        clear_plan_cache()
        rng = np.random.default_rng(6)
        A = rng.standard_normal((96, 4))
        with recording() as rec:
            run_many([QRJob("tsqr", A)], P=4, workers=2, backend="parallel")
            run_many([QRJob("tsqr", A)], P=4, workers=2, backend="parallel-mp")
        assert rec.metrics.counter("run_many.plan_cache.misses") == 2
        assert not rec.metrics.counter("run_many.plan_cache.hits")
        clear_plan_cache()
        gc.collect()


@mp_only
class TestDeterminismStress:
    """20 replays on one pool: bit-identical factors, stable counters."""

    def test_twenty_replays_bit_identical(self):
        A = gaussian(128, 8, seed=9)
        machine = Machine(4, backend="parallel-mp", workers=2)
        factors, _diag, slicer = drive("tsqr", machine, A, {}, validate=False)
        first = tuple(np.copy(np.asarray(f))
                      for f in machine.materialize(factors))
        pids = {p.pid for p in machine.engine._pool}
        try:
            from repro.engine import output_tids, resolve

            for _ in range(20):
                machine.plan.rebind(slicer(A))
                machine.plan.reset()
                machine.engine.execute(
                    machine.plan, outputs=output_tids(factors)
                )
                again = resolve(factors)
                for got, want in zip(again, first):
                    # Guards against map-ordering and shared-memory
                    # aliasing bugs: same input, same bits, every time.
                    np.testing.assert_array_equal(np.asarray(got), want)
            # One pool the whole way: replay must not re-fork.
            assert {p.pid for p in machine.engine._pool} == pids
        finally:
            _close(machine)

    def test_twenty_jobs_one_plan_cache_miss(self):
        from repro.engine import QRJob, clear_plan_cache, run_many
        from repro.telemetry import recording

        clear_plan_cache()
        A = gaussian(128, 8, seed=10)
        jobs = [QRJob("tsqr", A) for _ in range(20)]
        with recording() as rec:
            results = run_many(jobs, P=4, workers=2, backend="parallel-mp")
        assert rec.metrics.counter("run_many.plan_cache.misses") == 1
        assert rec.metrics.counter("run_many.plan_cache.hits") == 19
        assert all(r.report == results[0].report for r in results)
        clear_plan_cache()
        gc.collect()


@mp_only
class TestPoolLifecycle:
    """No leaked processes or shm segments; clean teardown on failure."""

    def test_close_reaps_workers_and_unlinks_shm(self):
        from multiprocessing import shared_memory

        A = gaussian(96, 8, seed=1)
        machine = Machine(4, backend="parallel-mp", workers=2)
        factors, _d, _s = drive("tsqr", machine, A, {}, validate=False)
        machine.materialize(factors)
        engine = machine.engine
        procs = list(engine._pool)
        names = [seg.name for seg, _, _ in engine._shm.values()]
        assert engine.alive and procs and names
        engine.close()
        assert not engine.alive
        assert all(not p.is_alive() for p in procs)
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        engine.close()  # idempotent

    def test_failure_leaves_pool_closable_and_children_reaped(self):
        plan = Plan()
        t0 = plan.add(lambda: 1 / 0, rank=0, label="boom")
        plan.add(lambda v: v, (Ref(t0),), rank=1, label="starved")
        engine = MpEngine(workers=2, timeout=GUARD_TIMEOUT)
        from repro.engine import EngineExecutionError

        with pytest.raises(EngineExecutionError, match="boom"):
            engine.execute(plan, outputs=())
        procs = list(engine._pool)
        engine.close()
        assert all(not p.is_alive() for p in procs)

    def test_dropped_engine_is_reaped_by_finalizer(self):
        plan = Plan()
        plan.add(lambda: 42, rank=0, label="answer")
        engine = MpEngine(workers=2, timeout=GUARD_TIMEOUT)
        engine.execute(plan, outputs=(0,))
        assert plan.tasks[0].value == 42
        procs = list(engine._pool)
        del engine
        gc.collect()
        deadline = time.perf_counter() + 10.0
        while any(p.is_alive() for p in procs) and time.perf_counter() < deadline:
            time.sleep(0.05)
        assert all(not p.is_alive() for p in procs)

    def test_pool_reships_when_the_plan_grows(self):
        # Incremental materialize: recording after a ship re-ships the
        # pool transparently and the new tasks see fresh values.
        plan = Plan()
        a = plan.add(lambda: 3, rank=0, label="a")
        engine = MpEngine(workers=2, timeout=GUARD_TIMEOUT)
        engine.execute(plan, outputs=(a.tid,))
        assert plan.tasks[a.tid].value == 3
        b = plan.add(lambda v: v * 7, (Ref(a),), rank=1, label="b")
        engine.execute(plan, outputs=(b.tid,))
        assert plan.tasks[b.tid].value == 21
        engine.close()

    def test_run_qr_pool_does_not_outlive_the_machine(self):
        # run_qr caches its plan, machine and pool (one run_many job);
        # the pool lives as long as that cache entry, no longer.
        from repro.engine.batch import _PLAN_CACHE, clear_plan_cache

        before = {p.pid for p in multiprocessing.active_children()}
        result = run_qr("tsqr", gaussian(96, 8, seed=2), P=4,
                        backend="parallel-mp", workers=2)
        assert result.diagnostics is not None
        (cached,) = _PLAN_CACHE.entries()
        assert cached.machine.engine.alive
        clear_plan_cache()
        gc.collect()
        deadline = time.perf_counter() + 10.0
        while time.perf_counter() < deadline:
            leaked = {p.pid for p in multiprocessing.active_children()} - before
            if not leaked:
                break
            time.sleep(0.05)
        assert not leaked


#: A parent that drops one pool without closing it and forks a second:
#: the second pool's workers inherit the first engine -- finalizer
#: included -- as uncollected garbage, and collect it (the extra task).
_SECOND_POOL_SCRIPT = """
import gc, os, sys
import numpy as np
from repro.machine import Machine
from repro.workloads import drive

def segments():
    return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}

before = segments()
A = np.random.default_rng(0).standard_normal((64, 4))
gc.disable()                 # the dropped machine stays uncollected
first = Machine(4, backend="parallel-mp", workers=2)
factors, _, _ = drive("tsqr", first, A, {}, validate=False)
first.materialize(factors)
assert segments() - before, "the first pool should own shm segments"
del first, factors           # dropped, never closed

second = Machine(4, backend="parallel-mp", workers=2)
factors, _, _ = drive("tsqr", second, A, {}, validate=False)
second.plan.add(lambda: gc.collect() and None, rank=0, label="collect")
R = second.materialize(factors)[2]
second.engine.close()
gc.enable()
gc.collect()                 # the owner reaps the first pool
want = drive("tsqr", Machine(4), A, {}, validate=False)[0][2]
assert np.array_equal(R, want), "second pool computed a wrong R"
left = segments() - before
assert not left, f"leaked shm segments: {sorted(left)}"
print("ok")
"""


@mp_only
class TestFinalizerAcrossPools:
    """A forked worker never runs its parent's pool teardown."""

    def test_second_pool_workers_leave_the_dropped_pool_alone(self):
        import subprocess
        import sys

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-c", _SECOND_POOL_SCRIPT], env=env,
            capture_output=True, text=True, timeout=120,
        )
        # Before the pid guard the workers printed "Exception ignored in:
        # <finalize ...> AssertionError: can only join a child process"
        # (and had already told the first pool's workers to stop).
        assert proc.stderr == ""
        assert proc.returncode == 0
        assert proc.stdout.strip() == "ok"


@mp_only
class TestProcessFailureSemantics:
    """Abort/poison semantics across the process boundary (PR 7 parity)."""

    def test_worker_exception_carries_task_and_traceback(self):
        from repro.engine import EngineExecutionError

        plan = Plan()
        plan.add(lambda: [][3], rank=0, label="oob")
        engine = MpEngine(workers=1, timeout=GUARD_TIMEOUT)
        with pytest.raises(EngineExecutionError) as err:
            engine.execute(plan, outputs=())
        text = str(err.value)
        assert "t0" in text and "'oob'" in text and "IndexError" in text
        assert "worker traceback" in text
        engine.close()

    def test_rank_failure_reraises_unwrapped_and_fired_is_truthful(self):
        from repro.faults import FaultPlan

        fp = FaultPlan.kill(1, 2)
        machine = Machine(4, backend="parallel-mp", workers=2, fault_plan=fp)
        A = gaussian(128, 8, seed=0)
        factors, _d, _s = drive("tsqr", machine, A, {}, validate=False)
        with pytest.raises(RankFailure) as err:
            machine.materialize(factors)
        assert err.value.rank == 1 and err.value.step == 2
        # The parent absorbed the worker copy's fire-once state.
        assert fp.fired == (fp.faults[0],)
        _close(machine)

    def test_coded_recovery_is_rejected_typed(self):
        from repro.faults.policy import CodedRecovery

        with pytest.raises(ParameterError, match="faults='inject'"):
            Machine(4, backend="parallel-mp", recovery=CodedRecovery())

    def test_starvation_names_process_flavor_and_pid(self):
        # Producer sleeps past the consumer's timeout: the starved
        # worker's diagnostic must name the producer task, the executor
        # flavor, and its own pid.
        from repro.engine import EngineExecutionError

        plan = Plan()
        slow = plan.add(lambda: time.sleep(1.5) or 5, rank=0, label="slow")
        plan.add(lambda v: v, (Ref(slow),), rank=1, label="waiter")
        engine = MpEngine(workers=2, timeout=0.2)
        with pytest.raises(EngineExecutionError) as err:
            engine.execute(plan, outputs=())
        text = str(err.value)
        assert "starved" in text
        assert "t0:slow (rank 0)" in text
        assert "executor=process" in text
        assert "pid=" in text
        engine.close()


class TestRendezvousFlavorFormat:
    """Timeout/abort messages name the executor flavor and worker pid."""

    def test_thread_group_timeout_names_flavor_and_pid(self):
        from repro.collectives.rendezvous import (
            RendezvousGroup,
            RendezvousTimeout,
        )

        fan = RendezvousGroup([4], label="bcast", producer="t17:panel (rank 0)")
        with pytest.raises(RendezvousTimeout) as err:
            fan.take(4, timeout=0.05)
        text = str(err.value)
        assert "consumer rank 4 starved" in text
        assert "producer task 't17:panel (rank 0)'" in text
        assert "[executor=thread pid=%d]" % os.getpid() in text

    def test_abort_release_names_flavor_and_pid(self):
        from repro.collectives.rendezvous import (
            RendezvousAborted,
            RendezvousGroup,
        )

        fan = RendezvousGroup([2], label="edge", producer="t3:up (rank 1)")
        cause = RuntimeError("rank 1 died")
        fan.abort(cause)
        with pytest.raises(RendezvousAborted) as err:
            fan.take(2, timeout=GUARD_TIMEOUT)
        text = str(err.value)
        assert "producer task 't3:up (rank 1)' aborted" in text
        assert f"[executor=thread pid={os.getpid()}]" in text
        assert err.value.__cause__ is cause

    def test_process_flavor_is_declarable(self):
        from repro.collectives.rendezvous import starvation_message

        msg = starvation_message(
            "g", 3, 1.25, "t9:panel (rank 2)", flavor="process", pid=4242
        )
        assert "consumer rank 3 starved for 1.25s" in msg
        assert "[executor=process pid=4242]" in msg


@mp_only
class TestSupportProbe:
    def test_mp_supported_matches_platform(self):
        assert mp_supported() == (
            "fork" in multiprocessing.get_all_start_methods()
        )

    def test_machine_accepts_backend_by_name(self):
        machine = Machine(4, backend="parallel-mp", workers=1)
        assert machine.plan is not None and not machine.concrete
        assert type(machine.engine).__name__ == "MpEngine"
        _close(machine)
