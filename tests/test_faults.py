"""Fault injection and checksum-coded recovery: the chaos grid.

Contracts pinned here:

* **chaos grid** -- for every (algorithm, failing rank, step) cell,
  a ``CodedRecovery(1)`` run completes with V/T/R *bit-identical* to
  the fault-free numeric factorization, recovering exactly once; a
  ``FailFast`` run raises the typed ``RankFailure`` naming the rank
  and step.
* **abort semantics** -- a poisoned rendezvous releases blocked and
  future consumers in milliseconds with the pinned message format and
  the real cause chained; no engine worker thread outlives a failed
  ``execute()``.
* **exact redundancy accounting** -- the coded run's CostReport excess
  over the plain run equals ``predict_overhead`` exactly, identically
  on the numeric, symbolic, and parallel backends.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.backend import get_backend
from repro.collectives.rendezvous import (
    Rendezvous,
    RendezvousAborted,
    RendezvousError,
    RendezvousGroup,
)
from repro.dist import BlockRowLayout, DistMatrix
from repro.faults import (
    CodedRecovery,
    FailFast,
    FaultPlan,
    FaultRecoveryError,
    RankFailure,
    RankFault,
    RetryTask,
    encode_checksums,
    parse_fault,
    parse_policy,
    predict_overhead,
    recover_from_failure,
    run_coded_qr,
)
from repro.machine import Machine, ParameterError
from repro.qr.caqr1d import qr_1d_caqr_eg
from repro.qr.tsqr import tsqr
from repro.util import balanced_sizes
from repro.workloads import ALGORITHMS, gaussian, run_qr

M, N, P, B = 64, 8, 4, 4


def _input(seed=7):
    return gaussian(M, N, seed=seed)


def _numeric_factors(alg, A):
    """Fault-free reference factors on the serial numeric backend."""
    machine = Machine(P)
    layout = BlockRowLayout(balanced_sizes(A.shape[0], P))
    dA = DistMatrix.from_global(machine, A, layout)
    res = tsqr(dA, root=0) if alg == "tsqr" else qr_1d_caqr_eg(dA, root=0, b=B)
    return res.V.to_global(), res.T, res.R


def _coded_kwargs(alg):
    return {"b": B} if alg == "caqr1d" else {}


# ----------------------------------------------------------------------
# Chaos grid
# ----------------------------------------------------------------------

@pytest.mark.usefixtures("first_execute_on_workers")
class TestChaosGrid:
    """Every attempt runs on ``workers`` lanes: faults land on real
    threads, and the abort path releases real rendezvous waits."""

    @pytest.mark.parametrize("alg", ["tsqr", "caqr1d"])
    @pytest.mark.parametrize("rank", [0, 1, 3])
    @pytest.mark.parametrize("step", [0, 2])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_coded_recovery_bit_identical(
            self, alg, rank, step, workers, first_execute_on_workers):
        A = _input()
        base = _numeric_factors(alg, A)
        r = run_coded_qr(
            alg, A, P=P, f=1, fault=f"{rank}@{step}",
            recovery=CodedRecovery(1), workers=workers, **_coded_kwargs(alg),
        )
        assert set(first_execute_on_workers) == {workers}
        assert r.recoveries == 1
        assert r.fired == (RankFault(rank, step),)
        for got, want in zip(r.factors, base):
            assert np.array_equal(got, want)

    # Rank 3's tsqr stream is geqrt, pack_triu, apply_wy, tsqr_V: a
    # transfer is an edge, not a task-step (docs/fault_tolerance.md).
    @pytest.mark.parametrize("rank,step,alg", [
        (r, s, alg) for alg in ("tsqr", "caqr1d")
        for r, s in ((0, 0), (1, 2), (3, 3 if alg == "tsqr" else 5))
    ])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_failfast_names_rank_and_step(
            self, alg, rank, step, workers, first_execute_on_workers):
        task = {0: "geqrt", 2: "apply_wy", 3: "tsqr_V", 5: "mm1d_local"}[step]
        with pytest.raises(
            RankFailure, match=rf"rank {rank} died at task-step {step} \(task '{task}'\)"
        ):
            run_coded_qr(
                alg, _input(), P=P, f=1, fault=f"{rank}@{step}",
                recovery=FailFast(), workers=workers, **_coded_kwargs(alg),
            )
        assert set(first_execute_on_workers) == {workers}

    def test_fault_free_coded_run_matches_numeric(self):
        A = _input()
        base = _numeric_factors("tsqr", A)
        r = run_coded_qr("tsqr", A, P=P, f=1, workers=4)
        assert r.recoveries == 0 and r.fired == ()
        for got, want in zip(r.factors, base):
            assert np.array_equal(got, want)

    def test_two_failures_in_distinct_groups_with_f2(self):
        A = _input()
        base = _numeric_factors("tsqr", A)
        # Ranks 0 and 1 land in different i%2 groups: both recoverable.
        r = run_coded_qr(
            "tsqr", A, P=P, f=2, fault="0@1,1@1",
            recovery=CodedRecovery(2), workers=1,
        )
        assert r.recoveries == 2
        for got, want in zip(r.factors, base):
            assert np.array_equal(got, want)

    def test_retry_recovers_transient_fault(self):
        A = _input()
        base = _numeric_factors("tsqr", A)
        r = run_coded_qr(
            "tsqr", A, P=P, f=1, fault="1@1",
            recovery=RetryTask(2), workers=4,
        )
        assert r.recoveries == 0  # no parity spent: plain re-execution
        for got, want in zip(r.factors, base):
            assert np.array_equal(got, want)

    def test_retry_exhaustion_reraises(self):
        # The second trigger fires during the replay (cumulative step
        # counters), exceeding n=1 retries.
        with pytest.raises(RankFailure):
            run_coded_qr(
                "tsqr", _input(), P=P, f=1, fault="0@0,0@1",
                recovery=RetryTask(1), workers=1,
            )


# ----------------------------------------------------------------------
# Faults in the middle of a compiled stream
# ----------------------------------------------------------------------

class TestMidStreamFaults:
    """Faults that land partway through a rank's compiled stream.

    A lane is a flat list of bound tasks and the per-task ``done``
    flags are the resume points: a fault firing mid-stream leaves the
    done prefix done, recovery resumes at the first not-done task, and
    the end state must match the fault-free numeric factorization bit
    for bit.
    """

    def test_retry_resumes_at_the_first_not_done_task(self):
        from repro.engine import Engine, Plan, Ref

        plan = Plan()
        calls = []
        t = plan.add(lambda: 1.0, rank=0, label="seed")
        for i in range(4):
            t = plan.add(lambda v, i=i: calls.append(i) or v + 1.0,
                         (Ref(t),), rank=0, label=f"inc{i}")
        eng = Engine(workers=1, fault_plan=FaultPlan.kill(0, 2),
                     recovery=RetryTask(2))
        eng.execute(plan, timeout=60.0)
        # The whole rank-0 stream is one lane of five tasks, so the kill
        # at step 2 fired inside it.
        assert [x.label for x in eng._cplan.streams[0]] == [
            "seed", "inc0", "inc1", "inc2", "inc3"]
        assert eng.fault_plan.fired == (RankFault(0, 2),)
        assert t.value == 5.0
        # Task-granular resume: the pre-fault prefix did not re-run.
        assert calls == [0, 1, 2, 3]
        assert eng.tasks_run == 5

    def test_coded_recovery_compiled_vs_uncompiled_bit_identical(self):
        A = _input()
        base = _numeric_factors("tsqr", A)
        r = run_coded_qr("tsqr", A, P=P, f=1, fault="1@2",
                         recovery=CodedRecovery(1), workers=1)
        assert r.recoveries == 1
        assert r.fired == (RankFault(1, 2),)
        for got, want in zip(r.factors, base):
            assert np.array_equal(got, want)

    def test_fault_fires_under_task_spans(self):
        from repro.telemetry import recording

        A = _input()
        base = _numeric_factors("tsqr", A)
        with recording() as rec:
            r = run_coded_qr("tsqr", A, P=P, f=1, fault="1@2",
                             recovery=RetryTask(2), workers=1)
        # Every task ran exactly once across the two attempts (the
        # killed task-step leaves no span)...
        tids = [s.meta["tid"] for s in rec.spans if s.cat == "task"]
        assert len(tids) == len(set(tids)) == r.machine.engine.tasks_run
        # ...and the fault was injected, detected, and retried through.
        counters = rec.metrics.snapshot()["counters"]
        assert counters["faults.injected"] == 1
        assert counters["faults.detected"] == 1
        for got, want in zip(r.factors, base):
            assert np.array_equal(got, want)


    @pytest.mark.parametrize("kill_step", [0, 1])
    @pytest.mark.parametrize("policy", ["coded:1", "retry:1"])
    def test_recovery_does_not_reapply_an_in_place_write(self, policy, kill_step):
        # Rank 1 accumulates its block into a rankless ``zeros`` *in
        # place*, then reads the sum.  Re-arming rank 1's stream must
        # re-arm that zeros too -- it holds the written buffer -- or the
        # replay adds the block a second time.
        from repro.backend import SymbolicArray

        def accumulate(z, block):
            z += block.sum(axis=0)

        A = _input()
        layout = BlockRowLayout(balanced_sizes(M, P))
        machine = Machine(P + 1, backend="parallel", workers=1,
                          fault_plan=FaultPlan.kill(1, kill_step),
                          recovery=parse_policy(policy))
        dA = DistMatrix.from_global(machine, A, layout)
        machine.engine.coded_ctx = encode_checksums(machine, dA, 1)
        z = machine.ops.zeros((N,))
        zeros_task = z.ref.task
        machine.kernel(1, accumulate, (z, dA.local(1)), None, updates=(0,),
                       label="accumulate")
        y = machine.kernel(1, np.copy, (z,), SymbolicArray((N,)), label="read")
        cplan = machine.engine._compiled(machine.plan)
        assert cplan.copies[z.ref.task.tid] == ()          # written in place
        want = A[layout.rows_of(1), :].sum(axis=0)
        z, y = machine.materialize((z, y))
        assert machine.fault_plan.fired == (RankFault(1, kill_step),)
        np.testing.assert_array_equal(y, want)
        np.testing.assert_array_equal(z, want)
        # The write really went into the zeros task's own buffer.
        assert zeros_task.value is z

    def test_rearm_follows_in_place_writes_transitively_and_no_further(self):
        from repro.engine import Plan, Ref, compile_plan
        from repro.engine.compile import rearm
        from repro.engine.plan import Writes

        def bump(x):
            x += 1.0

        plan = Plan()
        z = plan.add(lambda: np.zeros(2), label="zeros")
        w0 = plan.add(bump, (Ref(z),), rank=0, label="w0")
        w1 = plan.add(bump, (Ref(w0, 0),), rank=1, label="w1")
        shared = plan.add(lambda: np.zeros(2), label="shared")
        w2 = plan.add(bump, (Ref(shared),), rank=1, label="w2")
        other = plan.add(lambda v: v + 0.0, (Ref(shared),), rank=0, label="other")
        for w in (w0, w1, w2):
            w.writes = Writes((0,), (0,), False)
        from repro.engine import Engine

        eng = Engine(workers=1)
        eng.execute(plan, timeout=60.0)
        assert compile_plan(plan, 1).copies == {w0.tid: (0,), w1.tid: (0,), w2.tid: (0,)}
        assert eng._cplan.copies == {w0.tid: (), w1.tid: (), w2.tid: (0,)}
        assert w1.value[0].tolist() == [2.0, 2.0]
        rearm(plan, [w1, w2])                               # "rank 1 died"
        # w1 wrote w0's buffer, which is z's buffer: all three run again;
        # ``shared`` was copied (a second reader), so it stays done.
        assert [t.label for t in plan.tasks if not t.done] == ["zeros", "w0", "w1", "w2"]
        assert shared.done and other.done
        eng.execute(plan, timeout=60.0)
        assert w1.value[0].tolist() == [2.0, 2.0]
        assert w2.value[0].tolist() == [1.0, 1.0] and other.value.tolist() == [0.0, 0.0]


# ----------------------------------------------------------------------
# Injection mechanics
# ----------------------------------------------------------------------

class TestInjection:
    def test_parse_fault_specs(self):
        assert parse_fault("2@5") == RankFault(2, 5, "step")
        assert parse_fault("1@0:dispatch") == RankFault(1, 0, "dispatch")
        plan = FaultPlan.parse("1@2,0@0")
        assert plan.faults == (RankFault(1, 2), RankFault(0, 0))
        assert FaultPlan.parse(None) is None
        assert FaultPlan.parse(plan) is plan
        with pytest.raises(ParameterError):
            parse_fault("nonsense")

    def test_fire_once_and_counters(self):
        fp = FaultPlan.kill(0, 1)
        fp.on_task(0, "a")
        with pytest.raises(RankFailure) as exc:
            fp.on_task(0, "b")
        assert exc.value.rank == 0 and exc.value.step == 1
        assert exc.value.label == "b" and exc.value.where == "step"
        assert fp.fired == (RankFault(0, 1),)
        fp.on_task(0, "b")  # re-armed only by reset()
        fp.reset()
        fp.on_task(0, "a")
        with pytest.raises(RankFailure):
            fp.on_task(0, "b")

    def test_dispatch_fault_on_eager_numeric_backend(self):
        # house1d routes its per-column reflector kernels through
        # Machine.kernel, so eager backends have dispatch points.
        with pytest.raises(
            RankFailure, match=r"rank 2 died at kernel dispatch 1 \(task 'house1d_scale'\)"
        ):
            run_qr(
                "house1d", _input(), P=P, validate=False,
                fault_plan=FaultPlan.kill(2, 1, where="dispatch"),
            )

    def test_collective_combine_is_a_dispatch_point(self):
        # Each all-reduce sums on the root (rank 0) in one kernel, so each
        # of the root's later dispatches counts one more for every
        # all-reduce before it: dispatch 1 used to be house1d_scale.
        with pytest.raises(
            RankFailure, match=r"rank 0 died at kernel dispatch 1 \(task 'reduce_combine'\)"
        ):
            run_qr(
                "house1d", _input(), P=P, validate=False,
                fault_plan=FaultPlan.kill(0, 1, where="dispatch"),
            )

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_eager_dispatch_zero_is_the_ranks_first_local_kernel(self, alg):
        # Every local kernel goes through Machine.kernel, so a rank can
        # die before its first one -- its leaf QR, its first partial
        # product -- on every algorithm (mm1d used to run to completion
        # and the TSQR family survived until the downsweep).
        first = {
            "tsqr": "geqrt", "house1d": "house1d_stats", "caqr1d": "geqrt",
            "house2d": "house2d_stats", "caqr2d": "geqrt", "caqr3d": "geqrt",
            "wide": "geqrt", "applyq": "geqrt", "mm1d": "mm1d_partial",
            "mm3d": "alltoall_pack",
        }[alg]
        m, n, procs = (24, 48, 6) if alg == "wide" else (256, 16, 4)
        fp = FaultPlan.kill(1, 0, where="dispatch")
        with pytest.raises(RankFailure) as exc:
            run_qr(alg, gaussian(m, n, seed=0), procs, validate=False, fault_plan=fp)
        assert str(exc.value) == f"rank 1 died at kernel dispatch 0 (task {first!r})"
        assert (exc.value.rank, exc.value.step, exc.value.where) == (1, 0, "dispatch")
        assert fp.fired == (RankFault(1, 0, "dispatch"),)

    def test_machine_rejects_faults_on_symbolic(self):
        with pytest.raises(ParameterError, match="faults='none'"):
            Machine(4, backend="symbolic", fault_plan=FaultPlan.kill(0, 0))

    def test_machine_rejects_engine_policy_on_eager_backend(self):
        with pytest.raises(ParameterError, match="needs an"):
            Machine(4, backend="numeric", recovery=CodedRecovery(1))

    def test_backend_capability_flags(self):
        assert get_backend("numeric").faults == "inject"
        assert get_backend("symbolic").faults == "none"
        assert get_backend("parallel").faults == "recover"

    def test_parse_policy_specs(self):
        assert isinstance(parse_policy("failfast"), FailFast)
        rt = parse_policy("retry:3:0.5")
        assert rt.n == 3 and rt.backoff == 0.5
        assert parse_policy("coded:2").f == 2
        assert parse_policy(None) is None
        with pytest.raises(ParameterError):
            parse_policy("magic")


# ----------------------------------------------------------------------
# Rendezvous abort semantics (satellites 1 and 2)
# ----------------------------------------------------------------------

class TestAbort:
    def test_abort_message_format_and_cause(self):
        rv = Rendezvous("dead_edge")
        cause = RuntimeError("rank 3 died")
        assert rv.abort(cause) is True
        assert rv.aborted and not rv.ready
        with pytest.raises(
            RendezvousAborted,
            match=r"rendezvous 'dead_edge' aborted before publish: "
                  r"RuntimeError\('rank 3 died'\)",
        ) as exc:
            rv.get(timeout=1.0)
        assert exc.value.__cause__ is cause

    def test_group_abort_message_names_consumer_and_producer(self):
        fan = RendezvousGroup([1, 2], label="t9:panel", producer="t9:panel (rank 0)")
        cause = RankFailure(0, 3, label="panel")
        fan.abort(cause)
        with pytest.raises(
            RendezvousAborted,
            match=r"rendezvous group 't9:panel': consumer rank 2 released; "
                  r"producer task 't9:panel \(rank 0\)' aborted",
        ) as exc:
            fan.take(2, timeout=1.0)
        assert exc.value.__cause__ is cause

    def test_abort_is_idempotent_and_loses_to_put(self):
        rv = Rendezvous("slot")
        assert rv.abort(RuntimeError("first")) is True
        assert rv.abort(RuntimeError("second")) is False
        published = Rendezvous("done")
        published.put(42)
        assert published.abort(RuntimeError("late")) is False
        assert published.get(timeout=1.0) == 42

    def test_put_into_aborted_slot_is_dropped(self):
        rv = Rendezvous("race")
        rv.abort(RuntimeError("abort won"))
        rv.put("late value")  # no raise; the abort wins
        with pytest.raises(RendezvousAborted):
            rv.get(timeout=1.0)
        # A double-put into a healthy slot is still a protocol error.
        ok = Rendezvous("healthy")
        ok.put(1)
        with pytest.raises(RendezvousError):
            ok.put(2)

    def test_blocked_consumer_released_in_milliseconds(self):
        rv = Rendezvous("starved")
        caught = []

        def consume():
            try:
                rv.get(timeout=30.0)
            except RendezvousAborted as exc:
                caught.append(exc)

        t = threading.Thread(target=consume)
        t.start()
        time.sleep(0.05)
        rv.abort(RuntimeError("producer lost"))
        t.join(timeout=5.0)
        assert not t.is_alive() and len(caught) == 1

    def test_failed_run_leaves_no_live_worker_threads(self, first_execute_on_workers):
        before = {t.ident for t in threading.enumerate()}
        t0 = time.perf_counter()
        with pytest.raises(RankFailure):
            run_coded_qr(
                "tsqr", _input(), P=P, f=1, fault="1@0",
                recovery=FailFast(), workers=4,
            )
        elapsed = time.perf_counter() - t0
        assert first_execute_on_workers == [4]  # a pool, not the inline lane
        # Poisoned rendezvous, not timeouts: the default deadlock guard
        # is 120s, so a fast failure proves the abort path released
        # every blocked consumer.
        assert elapsed < 30.0
        leaked = [
            t for t in threading.enumerate()
            if t.ident not in before and not t.daemon
        ]
        assert leaked == []


# ----------------------------------------------------------------------
# Coded layer: reconstruction and accounting
# ----------------------------------------------------------------------

class TestCodedLayer:
    def _encoded(self, f=1):
        A = _input()
        machine = Machine(P + f, backend="parallel", workers=1)
        layout = BlockRowLayout(balanced_sizes(M, P))
        dA = DistMatrix.from_global(machine, A, layout)
        ctx = encode_checksums(machine, dA, f)
        machine.materialize()  # compute the parity tasks
        return A, machine, layout, ctx

    def test_reconstruction_is_bitwise_exact(self):
        A, machine, layout, ctx = self._encoded()
        for victim in range(P):
            original = A[layout.rows_of(victim), :]
            recon = recover_from_failure(
                ctx, RankFailure(victim, 0), machine.plan
            )
            assert recon.dtype == original.dtype
            assert np.array_equal(recon, original)
            ctx.recovered_groups.clear()  # fresh parity for the next victim

    def test_second_failure_in_group_is_unrecoverable(self):
        _, machine, _, ctx = self._encoded(f=1)
        recover_from_failure(ctx, RankFailure(0, 0), machine.plan)
        with pytest.raises(FaultRecoveryError, match="already spent"):
            recover_from_failure(ctx, RankFailure(1, 0), machine.plan)

    def test_spare_rank_death_is_unrecoverable(self):
        _, machine, _, ctx = self._encoded(f=1)
        with pytest.raises(FaultRecoveryError, match="no coded data block"):
            recover_from_failure(ctx, RankFailure(P, 0), machine.plan)

    def test_coded_recovery_without_context_raises(self):
        with pytest.raises(FaultRecoveryError, match="no.*context|none is"):
            run_qr(
                "tsqr", _input(), P=P, validate=False, backend="parallel",
                workers=1, fault_plan=FaultPlan.kill(1, 0),
                recovery=CodedRecovery(1),
            )

    @pytest.mark.parametrize("f", [1, 2])
    def test_overhead_matches_closed_form(self, f):
        A = _input()
        coded = run_coded_qr("tsqr", A, P=P, f=f, workers=1)
        plain = run_qr("tsqr", A, P=P, validate=False, backend="parallel")
        assert coded.report.delta(plain.report) == predict_overhead(M, N, P, f).as_delta()
        assert coded.predicted == predict_overhead(M, N, P, f)

    def test_symbolic_and_numeric_coded_reports_identical(self):
        A = _input()
        rn = run_coded_qr("tsqr", A, P=P, f=1, backend="numeric")
        rs = run_coded_qr("tsqr", (M, N), P=P, f=1, backend="symbolic")
        rp = run_coded_qr("tsqr", A, P=P, f=1, backend="parallel", workers=1)
        for name in ("total_flops", "total_words_sent", "total_messages_sent",
                     "critical_flops", "critical_words", "critical_messages"):
            assert getattr(rn.report, name) == getattr(rs.report, name) \
                == getattr(rp.report, name), name

    def test_encode_validates_spares_and_f(self):
        machine = Machine(P)  # no spare ranks
        layout = BlockRowLayout(balanced_sizes(M, P))
        dA = DistMatrix.from_global(machine, _input(), layout)
        with pytest.raises(ParameterError, match="spare ranks"):
            encode_checksums(machine, dA, 1)
        with pytest.raises(ParameterError, match="1 <= f"):
            encode_checksums(Machine(2 * P), dA, P + 1)

    def test_run_coded_qr_rejects_unprotected_algorithms(self):
        with pytest.raises(ParameterError, match="supports"):
            run_coded_qr("caqr3d", _input(), P=P)


# ----------------------------------------------------------------------
# Telemetry and CLI surfaces
# ----------------------------------------------------------------------

class TestSurfaces:
    def test_fault_telemetry_counters_and_span(self):
        from repro.telemetry import recording

        with recording() as rec:
            run_coded_qr(
                "tsqr", _input(), P=P, f=1, fault="1@1",
                recovery=CodedRecovery(1), workers=4,
            )
        counters = rec.metrics.snapshot()["counters"]
        assert counters["faults.injected"] == 1
        assert counters["faults.detected"] == 1
        assert counters["faults.recoveries"] == 1
        assert rec.metrics.histogram("faults.recovery_s").count == 1
        assert any(s.cat == "fault" for s in rec.spans)

    def test_cli_coded_run_recovers(self, capsys):
        from repro.cli import main

        code = main(["run", "--alg", "tsqr", "--m", "64", "--n", "8",
                     "--P", "4", "--backend", "parallel", "--workers", "2",
                     "--inject-fault", "1@0", "--recovery", "coded:1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "recoveries: 1" in out
        assert "checksum overhead" in out

    def test_cli_failfast_run_fails_with_rank_and_step(self, capsys):
        from repro.cli import main

        code = main(["run", "--alg", "tsqr", "--m", "64", "--n", "8",
                     "--P", "4", "--backend", "parallel", "--workers", "2",
                     "--inject-fault", "1@0", "--recovery", "failfast"])
        out = capsys.readouterr().out
        assert code == 1
        assert "rank 1 died at task-step 0" in out
