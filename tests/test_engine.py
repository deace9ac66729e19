"""The parallel execution engine: determinism, rendezvous, replay.

Contracts pinned here:

* **determinism** -- ``backend="parallel"`` produces the same factors
  (to the last bit on this BLAS: the dataflow is identical, only the
  schedule differs) and the *identical* ``CostReport`` as the serial
  numeric backend, over an (algorithm, m, n, P, workers) grid;
* **no deadlock** -- every collective's cross-rank rendezvous completes
  under a timeout guard, and a genuinely stuck wait raises instead of
  hanging;
* **replay** -- ``run_many`` rebinds a cached plan's input leaves and
  re-executes only the kernels, giving fresh correct factors and the
  first job's (shape-determined) cost report.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import (
    CommContext,
    all_gather,
    all_reduce,
    all_to_all_blocks,
    broadcast,
    gather,
    reduce,
    reduce_scatter,
    scatter,
)
from repro.collectives.binomial import broadcast_binomial, reduce_binomial
from repro.collectives.rendezvous import Rendezvous, RendezvousError, RendezvousTimeout
from repro.engine import (
    Engine,
    EngineDeadlockError,
    EngineExecutionError,
    LazyArray,
    Plan,
    QRJob,
    clear_plan_cache,
    run_many,
)
from repro.machine import CostReport, Machine, ParameterError
from repro.workloads import gaussian, run_qr

#: Generous wall-clock bound for the guard tests: far above any real
#: completion time, far below "hung forever".
GUARD_TIMEOUT = 60.0


def _pair(alg, m, n, P, workers=2, **params):
    A = gaussian(m, n, seed=11)
    num = run_qr(alg, A, P=P, validate=True, **params)
    par = run_qr(alg, A, P=P, validate=True, backend="parallel",
                 workers=workers, **params)
    return num, par


@pytest.mark.usefixtures("first_execute_on_workers")
class TestDeterminism:
    """Parallel factors and cost reports match serial numeric exactly,
    with every execute on ``workers`` lanes (real threads and rendezvous
    whenever ``workers > 1``)."""

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize(
        "alg,m,n,P",
        [
            ("tsqr", 64, 4, 4),
            ("tsqr", 210, 5, 7),
            ("caqr1d", 96, 6, 8),
            ("caqr3d", 64, 32, 8),
            ("caqr3d", 48, 24, 6),
            # Un-gated by the backend registry: every algorithm in
            # ALGORITHMS runs on the parallel engine.
            ("house1d", 96, 6, 8),
            ("house2d", 48, 24, 6),
            ("house2d", 32, 16, 4),
            ("caqr2d", 48, 24, 6),
            ("caqr2d", 60, 30, 9),
            ("wide", 24, 48, 6),
            ("applyq", 96, 6, 8),
            ("mm1d", 96, 6, 8),
            ("mm3d", 48, 24, 6),
        ],
    )
    def test_report_and_factors_match_numeric(
            self, alg, m, n, P, workers, first_execute_on_workers):
        num, par = _pair(alg, m, n, P, workers=workers)
        assert first_execute_on_workers and set(first_execute_on_workers) == {workers}
        assert par.report == num.report
        assert par.words_by_label == num.words_by_label
        assert par.diagnostics.ok()
        # Same dataflow, same kernels: the diagnostics agree to the bit.
        assert par.diagnostics.residual == num.diagnostics.residual

    def test_caqr1d_with_explicit_b(self):
        num, par = _pair("caqr1d", 96, 6, 8, b=2)
        assert par.report == num.report
        assert par.diagnostics.ok()

    def test_caqr3d_index_alltoall(self):
        num, par = _pair("caqr3d", 48, 24, 6, method="index")
        assert par.report == num.report
        assert par.diagnostics.ok()

    def test_factors_equal_elementwise(self):
        A = gaussian(128, 8, seed=2)
        from repro.dist import BlockRowLayout, DistMatrix
        from repro.qr import tsqr
        from repro.util import balanced_sizes

        layout = BlockRowLayout(balanced_sizes(128, 4))
        mn = Machine(4)
        rn = tsqr(DistMatrix.from_global(mn, A, layout))
        mp = Machine(4, backend="parallel", workers=2)
        rp = tsqr(DistMatrix.from_global(mp, A, layout))
        Vp, Tp, Rp = mp.materialize((rp.V.to_global(), rp.T, rp.R))
        np.testing.assert_allclose(Vp, rn.V.to_global(), atol=1e-13)
        np.testing.assert_allclose(Tp, rn.T, atol=1e-13)
        np.testing.assert_allclose(Rp, rn.R, atol=1e-13)

    def test_degenerate_data_uses_generic_convention(self):
        # On structured inputs with tau == 0 columns, numeric charges
        # data-dependent flop masks; parallel (like symbolic) charges
        # the generic-data closed forms.  The documented contract is
        # parallel == symbolic always, == numeric on generic data.
        from repro.workloads import identity_tall

        A = identity_tall(64, 4)
        par = run_qr("tsqr", A, P=4, backend="parallel", validate=True)
        sym = run_qr("tsqr", (64, 4), P=4, backend="symbolic")
        assert par.report == sym.report
        assert par.diagnostics.ok()

    def test_materialize_is_noop_on_serial_machines(self):
        machine = Machine(2)
        obj = {"x": np.ones(3)}
        assert machine.materialize(obj) is obj

    def test_incremental_materialize_across_ranks(self):
        # A cross-rank consumer recorded *after* its producer already
        # executed must read the computed value directly -- wiring a
        # rendezvous onto a done producer would deadlock (the producer
        # never publishes again).
        from repro.engine import defer

        machine = Machine(2, backend="parallel", workers=2)
        a = machine.ops.asarray(np.ones((2, 2)))
        first = defer(machine.plan, lambda v: v + 1.0, (a,), a.meta,
                      rank=0, label="early-producer")
        assert machine.materialize(first, timeout=GUARD_TIMEOUT).sum() == 8.0
        second = defer(machine.plan, lambda v: v * 3.0, (first,),
                       first.meta, rank=1, label="late-consumer")
        out = machine.materialize(second, timeout=GUARD_TIMEOUT)
        np.testing.assert_array_equal(out, np.full((2, 2), 6.0))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_defer_records_what_a_scan_and_a_map_record(self, data):
        # defer swaps each lazy for its Ref in one loop; the scan-then-map
        # pair (the oracle) records the same args, and the same first
        # lazy lends the task its rank.  Arguments are flat: a nested
        # lazy is rejected (tests/test_plan_freed.py).
        from repro.engine import Ref, defer
        from repro.engine.lazy import _map_structure, _scan_lazies

        def shape(obj):
            if isinstance(obj, Ref):
                return ("ref", id(obj.task), obj.index)
            if isinstance(obj, tuple):
                return tuple(shape(o) for o in obj)
            return obj

        machine = Machine(3, backend="parallel")
        meta = machine.ops.asarray(np.zeros(2)).meta
        leaves = [defer(machine.plan, np.zeros, (2,), meta, rank=r) for r in range(3)]
        leaf = st.sampled_from(leaves) | st.integers(0, 9) | st.none()
        args = tuple(data.draw(st.lists(leaf, max_size=4)))
        lazies = []
        _scan_lazies(args, lazies)
        defer(machine.plan, lambda *a: None, args, meta, label="probe")
        task = machine.plan.tasks[-1]
        assert shape(task.args) == shape(_map_structure(args, lambda la: la.ref))
        assert task.rank == (lazies[0].ref.task.rank if lazies else None)


def _parallel_blocks(P, shape=(3, 2), seed=0):
    """A parallel machine plus per-rank lazy leaves and their values."""
    rng = np.random.default_rng(seed)
    values = [rng.standard_normal(shape) for _ in range(P)]
    machine = Machine(P, backend="parallel", workers=2)
    lazies = [machine.ops.asarray(v) for v in values]
    return machine, lazies, values


class TestCollectiveRendezvous:
    """Every collective completes through real rendezvous, under guard.

    Each test drives the collective on a parallel machine (so each
    cross-rank edge is a blocking Rendezvous handoff at execution
    time), materializes with a hard timeout, and checks the delivered
    values against the eager inputs.  A timeout would raise
    EngineDeadlockError / RendezvousTimeout instead of hanging.
    """

    @pytest.mark.parametrize("P", [2, 5])
    def test_binomial_scatter(self, P):
        machine, lazies, values = _parallel_blocks(P)
        ctx = CommContext.world(machine)
        out = scatter(ctx, 0, lazies)
        out = machine.materialize(out, timeout=GUARD_TIMEOUT)
        for got, want in zip(out, values):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("P", [2, 5])
    def test_binomial_gather(self, P):
        machine, lazies, values = _parallel_blocks(P)
        ctx = CommContext.world(machine)
        out = gather(ctx, 0, lazies)
        out = machine.materialize(out, timeout=GUARD_TIMEOUT)
        for got, want in zip(out, values):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("P", [2, 7])
    def test_binomial_broadcast(self, P):
        machine, lazies, values = _parallel_blocks(P)
        ctx = CommContext.world(machine)
        out = broadcast_binomial(ctx, 0, lazies[0])
        out = machine.materialize(out, timeout=GUARD_TIMEOUT)
        np.testing.assert_array_equal(out, values[0])

    @pytest.mark.parametrize("P", [2, 5])
    def test_binomial_reduce(self, P):
        machine, lazies, values = _parallel_blocks(P)
        ctx = CommContext.world(machine)
        out = reduce_binomial(ctx, 0, lazies)
        out = machine.materialize(out, timeout=GUARD_TIMEOUT)
        np.testing.assert_allclose(out, sum(values), atol=1e-12)

    @pytest.mark.parametrize("P", [3, 6])
    def test_bidirectional_all_gather(self, P):
        machine, lazies, values = _parallel_blocks(P)
        ctx = CommContext.world(machine)
        out = all_gather(ctx, lazies)
        out = machine.materialize(out, timeout=GUARD_TIMEOUT)
        for p in range(P):
            for q in range(P):
                np.testing.assert_array_equal(out[p][q], values[q])

    @pytest.mark.parametrize("P", [3, 5])
    def test_bidirectional_reduce_scatter(self, P):
        machine, lazies, values = _parallel_blocks(P)
        ctx = CommContext.world(machine)
        contributions = [[lazies[p] for _ in range(P)] for p in range(P)]
        out = reduce_scatter(ctx, contributions)
        out = machine.materialize(out, timeout=GUARD_TIMEOUT)
        total = sum(values)
        for q in range(P):
            np.testing.assert_allclose(out[q], total, atol=1e-12)

    @pytest.mark.parametrize("P", [4, 9])
    def test_dispatched_broadcast_large_block(self, P):
        # Large blocks route to the bidirectional (scatter + all-gather)
        # variant; the reassembly must still deliver the exact array.
        rng = np.random.default_rng(3)
        value = rng.standard_normal((40, 25))
        machine = Machine(P, backend="parallel", workers=2)
        ctx = CommContext.world(machine)
        out = broadcast(ctx, 0, machine.ops.asarray(value))
        out = machine.materialize(out, timeout=GUARD_TIMEOUT)
        np.testing.assert_array_equal(out, value)

    @pytest.mark.parametrize("P", [4, 9])
    def test_dispatched_reduce_and_all_reduce(self, P):
        machine, lazies, values = _parallel_blocks(P, shape=(12, 9))
        ctx = CommContext.world(machine)
        out1 = reduce(ctx, 0, lazies)
        out2 = all_reduce(ctx, lazies)
        out1, out2 = machine.materialize((out1, out2), timeout=GUARD_TIMEOUT)
        np.testing.assert_allclose(out1, sum(values), atol=1e-12)
        np.testing.assert_allclose(out2, sum(values), atol=1e-12)

    @pytest.mark.parametrize("method", ["two_phase", "index"])
    @pytest.mark.parametrize("P", [3, 5])
    def test_all_to_all(self, P, method):
        rng = np.random.default_rng(7)
        values = [[rng.standard_normal((p + q + 1,)) for q in range(P)] for p in range(P)]
        machine = Machine(P, backend="parallel", workers=2)
        blocks = [[machine.ops.asarray(values[p][q]) for q in range(P)] for p in range(P)]
        ctx = CommContext.world(machine)
        out = all_to_all_blocks(ctx, blocks, method=method)
        out = machine.materialize(out, timeout=GUARD_TIMEOUT)
        for q in range(P):
            for p in range(P):
                np.testing.assert_array_equal(out[q][p], values[p][q])


class TestRendezvousGroup:
    """The grid-row fan-out slot the 2D algorithms' edges go through."""

    def test_multi_consumer_fan_out(self):
        from repro.collectives.rendezvous import RendezvousGroup

        fan = RendezvousGroup([1, 2, 5], label="panel_T")
        fan.put("T")
        assert fan.take(1, timeout=GUARD_TIMEOUT) == "T"
        assert fan.take(5, timeout=GUARD_TIMEOUT) == "T"
        assert fan.get(timeout=GUARD_TIMEOUT, consumer=2) == "T"

    def test_undeclared_consumer_is_rejected(self):
        from repro.collectives.rendezvous import RendezvousGroup

        fan = RendezvousGroup([1], label="row_bcast")
        fan.put(0)
        with pytest.raises(RendezvousError, match="not a declared consumer"):
            fan.take(3)

    def test_timeout_names_the_starved_consumer(self):
        from repro.collectives.rendezvous import RendezvousGroup

        fan = RendezvousGroup([4], label="orphan")
        with pytest.raises(RendezvousTimeout, match="rank 4"):
            fan.take(4, timeout=0.05)

    def test_timeout_names_the_producer_and_elapsed_wait(self):
        # The error must say *what* never published (the producing task)
        # and *how long* the consumer waited -- the two facts needed to
        # diagnose a starved rank from the message alone.
        from repro.collectives.rendezvous import RendezvousGroup

        fan = RendezvousGroup([4], label="bcast", producer="t17:panel (rank 0)")
        with pytest.raises(
            RendezvousTimeout,
            match=(r"consumer rank 4 starved for \d+\.\d\ds waiting on "
                   r"producer task 't17:panel \(rank 0\)'"),
        ):
            fan.take(4, timeout=0.05)

    def test_timeout_producer_defaults_to_the_label(self):
        from repro.collectives.rendezvous import RendezvousGroup

        fan = RendezvousGroup([1], label="orphan")
        with pytest.raises(RendezvousTimeout, match="producer task 'orphan'"):
            fan.take(1, timeout=0.05)

    def test_empty_consumer_set_is_rejected(self):
        from repro.collectives.rendezvous import RendezvousGroup

        with pytest.raises(RendezvousError):
            RendezvousGroup([], label="nobody")

    def test_executor_wires_groups_for_row_fans(self):
        # One rank-0 producer consumed by ranks 1 and 2 (the grid-row
        # broadcast shape): the engine must attach a group naming both.
        from repro.collectives.rendezvous import RendezvousGroup

        plan = Plan()
        src = plan.add(lambda: 7, rank=0, label="panel")
        from repro.engine import Ref

        plan.add(lambda v: v + 1, (Ref(src),), rank=1, label="east")
        plan.add(lambda v: v + 2, (Ref(src),), rank=2, label="west")
        Engine(workers=3).execute(plan, timeout=GUARD_TIMEOUT)
        assert isinstance(src.rendezvous, RendezvousGroup)
        assert src.rendezvous.consumers == frozenset({1, 2})
        assert plan.tasks[1].value == 8 and plan.tasks[2].value == 9

    @pytest.mark.parametrize("alg,m,n,P", [("house2d", 32, 16, 4), ("caqr2d", 32, 16, 4)])
    def test_2d_algorithms_complete_under_guard(
            self, alg, m, n, P, first_execute_on_workers):
        # Algorithm-level deadlock guard: every row-broadcast /
        # column-reduce fan of the 2D baselines resolves through real
        # rendezvous within the timeout.
        A = gaussian(m, n, seed=3)
        machine = Machine(P, backend="parallel", workers=3)
        from repro.workloads import drive

        factors, diag_fn, _ = drive(alg, machine, A, {}, validate=True)
        factors = machine.materialize(factors, timeout=GUARD_TIMEOUT)
        assert first_execute_on_workers == [3] and machine.engine.lanes == 3
        assert diag_fn(A, factors).ok()


class TestTimeoutGuards:
    """Stuck waits raise promptly instead of deadlocking."""

    def test_rendezvous_get_times_out(self):
        t0 = time.perf_counter()
        with pytest.raises(RendezvousTimeout):
            Rendezvous("orphan").get(timeout=0.05)
        assert time.perf_counter() - t0 < 5.0

    def test_rendezvous_double_put_rejected(self):
        rv = Rendezvous()
        rv.put(1)
        with pytest.raises(RendezvousError):
            rv.put(2)

    def test_engine_deadlock_guard(self):
        plan = Plan()
        plan.add(lambda: time.sleep(2.0), rank=0, label="stuck")
        plan.add(lambda: None, rank=1, label="idle")
        with pytest.raises(EngineDeadlockError):
            Engine(workers=2).execute(plan, timeout=0.1)

    def test_engine_propagates_task_errors(self):
        for workers in (1, 2):
            plan = Plan()

            def boom():
                raise ValueError("kernel exploded")

            plan.add(boom, rank=0, label="boom")
            with pytest.raises(EngineExecutionError, match="kernel exploded"):
                Engine(workers=workers).execute(plan, timeout=GUARD_TIMEOUT)

    def test_failed_attempt_leaves_no_poison_for_the_next_execute(self):
        # No recovery policy, no reset(): the caller just executes the
        # same plan again.  The slot the failed attempt poisoned must
        # not be what the producer publishes into the second time.
        from repro.engine import Ref

        plan = Plan()
        slots = []

        def flaky():
            slots.append(src.rendezvous)
            if len(slots) == 1:
                raise ValueError("transient")
            return 20

        src = plan.add(flaky, rank=0, label="a")
        out = plan.add(lambda v: v + 1, (Ref(src),), rank=1, label="b")
        eng = Engine(workers=2)
        with pytest.raises(EngineExecutionError, match="transient"):
            eng.execute(plan, timeout=GUARD_TIMEOUT)
        stale = src.rendezvous
        assert stale is slots[0] and stale.aborted
        eng.execute(plan, timeout=GUARD_TIMEOUT)
        assert slots[1] is not stale and not slots[1].aborted
        assert out.value == 21


class TestLazyArray:
    def _machine(self):
        return Machine(2, backend="parallel", workers=1)

    def test_protocol_ops_defer_and_match_numpy(self):
        machine = self._machine()
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        la, lb = machine.ops.asarray(a), machine.ops.asarray(b)
        stacked = np.vstack([la, lb])
        prod = la.T @ lb
        sliced = la[1:, :2]
        assert isinstance(stacked, LazyArray) and stacked.shape == (8, 3)
        assert prod.shape == (3, 3)
        s, p, sl = machine.materialize((stacked, prod, sliced))
        np.testing.assert_array_equal(s, np.vstack([a, b]))
        np.testing.assert_allclose(p, a.T @ b, atol=1e-14)
        np.testing.assert_array_equal(sl, a[1:, :2])

    def test_setitem_is_functional_for_earlier_readers(self):
        # The engine's write contract: a consumer recorded *before* a
        # write sees the pre-write value (writes rebind, they do not
        # mutate shared history).  Algorithms never rely on
        # mutation-through-views across tasks.
        machine = self._machine()
        buf = machine.ops.zeros((2, 2))
        before = np.add(buf, 0.0)  # reader recorded pre-write
        buf[0, 0] = 7.0
        b, after = machine.materialize((before, buf))
        assert b[0, 0] == 0.0
        assert after[0, 0] == 7.0

    def test_masked_setitem(self):
        machine = self._machine()
        buf = machine.ops.zeros((4, 3))
        mask = np.array([True, False, True, False])
        vals = machine.ops.asarray(np.ones((2, 3)))
        buf[mask, :] = vals
        out = machine.materialize(buf)
        np.testing.assert_array_equal(out[mask], np.ones((2, 3)))
        np.testing.assert_array_equal(out[~mask], np.zeros((2, 3)))

    def test_branching_on_lazy_data_fails_loudly(self):
        machine = self._machine()
        la = machine.ops.asarray(np.ones(3))
        with pytest.raises(TypeError):
            bool(la > 0)
        with pytest.raises(TypeError):
            float(la[0])
        with pytest.raises(TypeError):
            np.asarray(la)

    def test_rank_tags_flow_from_kernels(self):
        machine = Machine(4, backend="parallel", workers=1)
        from repro.qr.householder import local_geqrt

        pan = local_geqrt(machine, 3, machine.ops.asarray(gaussian(8, 2, seed=0)))
        assert pan.V.ref.task.rank == 3
        stats = machine.plan.stats()
        assert stats["streams"] == 1 and stats["inputs"] == 1


class TestRunMany:
    def setup_method(self):
        clear_plan_cache()

    def test_replay_produces_fresh_correct_factors(self):
        rng = np.random.default_rng(9)
        jobs = [QRJob("tsqr", rng.standard_normal((96, 4))) for _ in range(3)]
        results = run_many(jobs, P=4, validate=True, workers=1)
        assert all(r.diagnostics.ok() for r in results)
        # Shape-determined costs are shared; the data is not.
        assert results[0].report == results[2].report
        r0 = run_qr("tsqr", jobs[0].A, P=4, validate=False)
        assert results[0].report == r0.report

    def test_replay_caqr3d(self):
        rng = np.random.default_rng(10)
        jobs = [QRJob("caqr3d", rng.standard_normal((64, 32))) for _ in range(2)]
        results = run_many(jobs, P=8, validate=True, workers=1)
        assert all(r.diagnostics.ok() for r in results)

    def test_mixed_shapes_build_separate_plans(self):
        from repro.engine.batch import _PLAN_CACHE

        rng = np.random.default_rng(11)
        jobs = [
            QRJob("tsqr", rng.standard_normal((64, 4))),
            QRJob("tsqr", rng.standard_normal((96, 4))),
            QRJob("tsqr", rng.standard_normal((64, 4))),
        ]
        run_many(jobs, P=4, workers=1)
        assert len(_PLAN_CACHE) == 2

    def test_cost_params_and_workers_are_plan_identity(self):
        from repro.engine.batch import _PLAN_CACHE
        from repro.machine import MACHINE_PROFILES

        rng = np.random.default_rng(14)
        A = rng.standard_normal((64, 4))
        prof = MACHINE_PROFILES["supercomputer"]
        r_default = run_many([QRJob("tsqr", A)], P=4, workers=1)[0]
        r_prof = run_many([QRJob("tsqr", A)], P=4, workers=1, cost_params=prof)[0]
        # The cached report reflects the requested cost parameters...
        ref = run_qr("tsqr", A, P=4, validate=False, cost_params=prof)
        assert r_prof.report == ref.report
        assert r_prof.report.modeled_time != r_default.report.modeled_time
        # ...and neither cost_params nor workers hit the other's cache.
        assert len(_PLAN_CACHE) == 2
        run_many([QRJob("tsqr", A)], P=4, workers=2)
        assert len(_PLAN_CACHE) == 3

    def test_house1d_replays_on_the_engine(self):
        from repro.engine.batch import _PLAN_CACHE

        rng = np.random.default_rng(12)
        jobs = [QRJob("house1d", rng.standard_normal((64, 4))) for _ in range(2)]
        results = run_many(jobs, P=4, validate=True, workers=1)
        assert all(r.diagnostics.ok() for r in results)
        # Since the backend registry un-gated the baselines, house1d
        # builds one cached parallel plan and replays it.
        assert len(_PLAN_CACHE) == 1
        assert results[0].report == run_qr(
            "house1d", jobs[0].A, P=4, validate=False
        ).report

    @pytest.mark.parametrize("alg,m,n", [
        ("house2d", 32, 16), ("caqr2d", 32, 16), ("wide", 16, 32),
        ("applyq", 64, 4), ("mm1d", 64, 4), ("mm3d", 32, 16),
    ])
    def test_replay_covers_every_algorithm(self, alg, m, n):
        rng = np.random.default_rng(21)
        jobs = [QRJob(alg, rng.standard_normal((m, n))) for _ in range(2)]
        results = run_many(jobs, P=4, validate=True, workers=1)
        assert all(r.diagnostics.ok() for r in results)
        assert results[0].report == results[1].report

    def test_different_leading_dimension_builds_separate_plans(self):
        # Pinned behavior: plans are keyed by shape, so jobs whose
        # leading dimension differs never share (or rebind) a plan --
        # each shape gets its own, and both validate.
        from repro.engine.batch import _PLAN_CACHE

        rng = np.random.default_rng(15)
        jobs = [
            QRJob("tsqr", rng.standard_normal((64, 4))),
            QRJob("tsqr", rng.standard_normal((96, 4))),
            QRJob("tsqr", rng.standard_normal((64, 4))),
        ]
        results = run_many(jobs, P=4, validate=True, workers=1)
        assert all(r.diagnostics.ok() for r in results)
        assert len(_PLAN_CACHE) == 2
        assert results[0].report == results[2].report
        assert results[0].report != results[1].report

    def test_rebind_rejects_mismatched_leading_dimension(self):
        # The raw replay boundary refuses foreign shapes with a clear
        # error instead of silently computing garbage.
        from repro.engine import EngineError
        from repro.engine.batch import _PLAN_CACHE

        rng = np.random.default_rng(16)
        run_many([QRJob("tsqr", rng.standard_normal((64, 4)))], P=4, workers=1)
        (cached,) = _PLAN_CACHE.values()
        wrong = cached.slicer(rng.standard_normal((64, 4)))
        wrong[0] = rng.standard_normal((40, 4))  # a 96-row job's block
        with pytest.raises(EngineError, match="rebind shape mismatch"):
            cached.machine.plan.rebind(wrong)

    def test_run_many_targets_backends_by_name(self):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((64, 4))
        num = run_many([QRJob("tsqr", A)], P=4, validate=True, backend="numeric")[0]
        sym = run_many([QRJob("tsqr", A)], P=4, backend="symbolic")[0]
        ref = run_qr("tsqr", A, P=4, validate=False)
        assert num.report == ref.report and num.diagnostics.ok()
        assert sym.report == ref.report

    def test_planner_chooses_when_algorithm_is_none(self):
        rng = np.random.default_rng(13)
        results = run_many(
            [QRJob(None, rng.standard_normal((256, 8)))],
            P=4, validate=True, plan_with="cluster",
        )
        assert results[0].algorithm in (
            "tsqr", "caqr1d", "caqr3d", "house1d", "house2d", "caqr2d"
        )
        assert results[0].diagnostics.ok()

    def test_missing_planner_profile_is_rejected(self):
        with pytest.raises(ParameterError, match="plan_with"):
            run_many([QRJob(None, gaussian(64, 4, seed=0))], P=4)

    def test_concurrent_callers_of_one_shape_match_serial(self):
        # Four threads stream same-shape jobs at one cache entry: each
        # replay rebinds, resets and executes the one cached plan, so
        # the build and the replays must take turns.  Unserialized,
        # every thread failed (a plan reset mid-execute, aborted
        # rendezvous).
        import sys
        import threading

        jobs = [[QRJob("tsqr", gaussian(2048, 16, seed=10 * t + j)) for j in range(6)]
                for t in range(4)]
        start = threading.Barrier(len(jobs))
        got: dict[int, list] = {}
        errors: list[Exception] = []

        def caller(t):
            start.wait()
            try:
                got[t] = run_many(jobs[t], P=4, workers=2, validate=True)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=caller, args=(t,)) for t in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        for t, stream in enumerate(jobs):
            for job, res in zip(stream, got[t]):
                assert res.diagnostics == run_qr("tsqr", job.A, P=4).diagnostics



class TestKeyboardInterrupt:
    """A task raising ``KeyboardInterrupt`` ends the job with exactly
    that exception, leaves no worker thread behind, and the next job of
    the shape replays the cached plan correctly."""

    def setup_method(self):
        clear_plan_cache()

    def teardown_method(self):
        clear_plan_cache()

    @pytest.mark.parametrize("two_lanes", [False, True], ids=["one-lane", "two-lanes"])
    def test_interrupt_propagates_and_the_shape_still_replays(
        self, two_lanes, request, monkeypatch
    ):
        import importlib
        import threading

        from repro.engine import resolve
        from repro.engine.batch import _PLAN_CACHE
        from repro.workloads import drive

        tsqr_mod = importlib.import_module("repro.qr.tsqr")

        lanes = request.getfixturevalue("first_execute_on_workers") if two_lanes else None
        armed = [True]
        pack = tsqr_mod.pack_triu

        def interrupting(*args, **kwargs):
            if armed[0]:
                armed[0] = False
                raise KeyboardInterrupt
            return pack(*args, **kwargs)

        # Recording binds the patched kernel into the plan; the first
        # job's (only) execute raises from inside a task.
        monkeypatch.setattr(tsqr_mod, "pack_triu", interrupting)
        jobs = [QRJob("tsqr", gaussian(64, 8, seed=s)) for s in (20, 21)]
        before = {t.ident for t in threading.enumerate()}
        with pytest.raises(KeyboardInterrupt) as exc:
            run_many(jobs[:1], P=4, workers=2, validate=True)
        assert type(exc.value) is KeyboardInterrupt and not armed[0]
        assert [t for t in threading.enumerate() if t.ident not in before] == []
        (cached,) = _PLAN_CACHE.values()
        assert cached.machine.engine.lanes == (2 if two_lanes else 1)
        if two_lanes:
            assert lanes == [2]

        (res,) = run_many(jobs[1:], P=4, workers=2, validate=True)
        want = run_qr("tsqr", jobs[1].A, P=4, validate=True)
        assert isinstance(res.report, CostReport) and res.report == want.report
        assert res.diagnostics == want.diagnostics
        serial = drive("tsqr", Machine(4), jobs[1].A, {}, validate=False)[0]
        for got, ref in zip(resolve(cached.lazy_factors), serial):
            np.testing.assert_array_equal(got, ref)
        assert [t for t in threading.enumerate() if t.ident not in before] == []

    @pytest.mark.parametrize("where", ["wait", "join"])
    def test_interrupt_in_the_callers_wait_stops_every_stream(
        self, where, first_execute_on_workers, monkeypatch
    ):
        # Ctrl-C (SIGINT to the main thread) lands while the caller waits
        # on the pool: the streams stop at their next task boundary
        # instead of running the whole job before the interrupt surfaces.
        # "join": the receiving lane fails first, and the interrupt lands
        # while the caller waits for the sending lane to wind down.
        import importlib
        import queue
        import signal
        import threading
        import types

        from repro.engine import executor, resolve
        from repro.engine.batch import _PLAN_CACHE
        from repro.workloads import drive

        tsqr_mod = importlib.import_module("repro.qr.tsqr")
        pack, unpack = tsqr_mod.pack_triu, tsqr_mod.unpack_triu
        slow = threading.Event()
        ready = threading.Event()  # the caller waits ("join": saw the failure)
        ran = [0]
        armed = [True]

        def slow_pack(*args, **kwargs):
            if armed[0]:
                ran[0] += 1
                slow.set()
                time.sleep(0.3)
            return pack(*args, **kwargs)

        def failing_unpack(*args, **kwargs):
            if armed[0]:
                raise RuntimeError("the receiving lane fails first")
            return unpack(*args, **kwargs)

        class WatchedQueue(queue.SimpleQueue):
            """The engine's completion queue; says when the caller waits."""

            def get(self, *args, **kwargs):
                main = threading.current_thread() is threading.main_thread()
                if main and where == "wait":
                    ready.set()
                item = super().get(*args, **kwargs)
                if main and item is not None:
                    ready.set()
                return item

        fired: list[float] = []
        main_ident = threading.main_thread().ident

        def interrupter():
            # The interrupt lands while a slow kernel runs and the caller
            # waits on the lanes (not while it is still starting them).
            if slow.wait(30) and ready.wait(30):
                fired.append(time.perf_counter())
                signal.pthread_kill(main_ident, signal.SIGINT)

        if where == "join":
            monkeypatch.setattr(tsqr_mod, "unpack_triu", failing_unpack)
        monkeypatch.setattr(tsqr_mod, "pack_triu", slow_pack)
        monkeypatch.setattr(executor, "queue", types.SimpleNamespace(
            SimpleQueue=WatchedQueue, Empty=queue.Empty))
        jobs = [QRJob("tsqr", gaussian(256, 8, seed=s)) for s in (30, 31)]
        before = {t.ident for t in threading.enumerate()}
        th = threading.Thread(target=interrupter)
        th.start()
        try:
            with pytest.raises(KeyboardInterrupt) as exc:
                run_many(jobs[:1], P=8, workers=2, validate=True)
            raised = time.perf_counter()
        finally:
            armed[0] = False
            th.join(timeout=30)
        assert type(exc.value) is KeyboardInterrupt
        assert first_execute_on_workers == [2]
        assert raised - fired[0] < 1.0
        assert 1 <= ran[0] <= 2
        assert [t.name for t in threading.enumerate() if t.ident not in before] == []

        (res,) = run_many(jobs[1:], P=8, workers=2, validate=True)
        want = run_qr("tsqr", jobs[1].A, P=8, validate=True)
        assert isinstance(res.report, CostReport) and res.report == want.report
        assert res.diagnostics == want.diagnostics
        (cached,) = _PLAN_CACHE.values()
        serial = drive("tsqr", Machine(8), jobs[1].A, {}, validate=False)[0]
        for got, ref in zip(resolve(cached.lazy_factors), serial):
            np.testing.assert_array_equal(got, ref)


class TestMatmulParallel:
    def test_mm1d_and_mm3d_match_numeric(self):
        from repro.dist import BlockRowLayout, CyclicRowLayout, DistMatrix, head_layout
        from repro.matmul import Operand, mm1d_broadcast, mm1d_reduce, mm3d
        from repro.util import balanced_sizes

        A = gaussian(40, 5, seed=7)
        B = gaussian(40, 5, seed=8)
        reports, outs = [], []
        for backend in ("numeric", "parallel"):
            machine = Machine(4, backend=backend, workers=2)
            lay = BlockRowLayout(balanced_sizes(40, 4))
            dA = DistMatrix.from_global(machine, A, lay)
            dB = DistMatrix.from_global(machine, B, lay)
            M = mm1d_reduce(dA, dB, 0, conj_a=True)
            C = mm1d_broadcast(dA, M, 0)
            out = machine.materialize(C.to_global())
            reports.append(machine.report())
            outs.append(out)
        assert reports[0] == reports[1]
        np.testing.assert_allclose(outs[0], outs[1], atol=1e-12)

        reports, outs = [], []
        for backend in ("numeric", "parallel"):
            machine = Machine(6, backend=backend, workers=2)
            lay = CyclicRowLayout(24, 6)
            dA = DistMatrix.from_global(machine, gaussian(24, 12, seed=9), lay)
            dB = DistMatrix.from_global(machine, gaussian(24, 12, seed=10), lay)
            C = mm3d(Operand(dA, "H"), dB, head_layout(lay, 12))
            out = machine.materialize(C.to_global())
            reports.append(machine.report())
            outs.append(out)
        assert reports[0] == reports[1]
        np.testing.assert_allclose(outs[0], outs[1], atol=1e-12)
