"""Unit tests for the plan compiler (repro.engine.compile).

Covers what the compiler derives from its consumer map -- flat tid-order
lanes, worker-affinity ownership with same-worker edge elision, the
compiled copy map of ``updates=`` tasks -- and argument pre-resolution,
plus the engine-level contracts: every lane count computes the same
(pinned) values, the compiled schedule cache invalidates when a plan
grows, one telemetry span per task, a first execute takes its lane
count from the plan's grain and replays measure it, and no second
execution path, ``compile`` switch or record-time dataflow analysis
grows back.  (The write rule itself is pinned in
``tests/test_write_rule.py``.)
"""

import re

import numpy as np
import pytest

from repro.engine import Engine, Plan, Ref, compile_plan
from repro.engine.compile import REPLICATED, bind_stream
from repro.engine.executor import TWO_LANE_FLOPS

GUARD = 60.0


def _chain_plan(k=4, rank=0):
    """rank-0 chain t0 -> t1 -> ... each sole-consumed by the next."""
    plan = Plan()
    t = plan.add(lambda: 1.0, rank=rank, label="seed")
    for i in range(k - 1):
        t = plan.add(lambda v: v + 1.0, (Ref(t),), rank=rank, label=f"inc{i}")
    return plan, t


class TestFlatLanes:
    """A lane is its owned tasks in tid order: one step per task."""

    def test_sole_consumer_chain_stays_one_step_per_task(self):
        plan, _ = _chain_plan(k=5)
        cp = compile_plan(plan, workers=1)
        assert cp.stats["tasks"] == cp.stats["steps"] == 5
        assert cp.streams[0] == plan.tasks

    def test_fanout_is_just_three_steps_in_tid_order(self):
        plan = Plan()
        a = plan.add(lambda: 1.0, rank=0, label="a")
        b = plan.add(lambda v: v + 1, (Ref(a),), rank=0, label="b")
        c = plan.add(lambda v, w: v + w, (Ref(b), Ref(a)), rank=0, label="c")
        cp = compile_plan(plan, workers=1)
        assert cp.stats["steps"] == 3
        assert cp.streams == [[a, b, c]]

    def test_cross_rank_consumer_on_one_worker_is_two_steps_and_no_rendezvous(self):
        plan = Plan()
        a = plan.add(lambda: 1.0, rank=0, label="a")
        b = plan.add(lambda v: v + 1, (Ref(a),), rank=1, label="b")
        cp = compile_plan(plan, workers=1)
        assert cp.streams == [[a, b]] and cp.stats["steps"] == 2
        assert cp.stats["elided_edges"] == 1 and cp.publishers == []
        # On two workers each rank is its own lane and the edge is real.
        cp2 = compile_plan(plan, workers=2)
        assert cp2.streams == [[a], [b]] and cp2.stats["rendezvous_edges"] == 1

    def test_rankless_task_is_a_step_on_its_first_consumers_lane(self):
        plan = Plan()
        head = plan.add(lambda: 1.0, rank=0, label="head")
        z = plan.add(lambda: np.zeros(2), label="zeros")
        use = plan.add(lambda v: v + 1, (Ref(z),), rank=1, label="use")
        cp = compile_plan(plan, workers=2)
        assert cp.streams == [[head], [z, use]]
        assert cp.stats["steps"] == cp.stats["tasks"] == 3
        assert cp.copies == {}  # nothing here writes in place


class TestAffinity:
    def _fan_plan(self):
        plan = Plan()
        src = plan.add(lambda: 7.0, rank=0, label="src")
        plan.add(lambda v: v + 1, (Ref(src),), rank=1, label="east")
        plan.add(lambda v: v + 2, (Ref(src),), rank=2, label="south")
        return plan, src

    def test_single_worker_elides_every_cross_rank_edge(self):
        plan, _ = self._fan_plan()
        cp = compile_plan(plan, workers=1)
        assert cp.stats["cross_rank_edges"] == 2
        assert cp.stats["elided_edges"] == 2
        assert cp.stats["rendezvous_edges"] == 0
        assert cp.publishers == []

    def test_multi_worker_publishes_to_consumer_ranks(self):
        plan, src = self._fan_plan()
        cp = compile_plan(plan, workers=3)
        assert cp.stats["rendezvous_edges"] == 1
        assert cp.stats["elided_edges"] == 0
        (pub,) = cp.publishers
        assert pub.task is src
        assert pub.consumers == frozenset({1, 2})
        assert pub.dest_workers == frozenset({1, 2})

    def test_same_worker_cross_rank_edge_is_elided(self):
        plan = Plan()
        a = plan.add(lambda: 1.0, rank=0, label="a")
        plan.add(lambda v: v + 1, (Ref(a),), rank=2, label="b")  # 2 % 2 == 0
        plan.add(lambda v: v + 2, (Ref(a),), rank=1, label="c")
        cp = compile_plan(plan, workers=2)
        assert cp.stats["cross_rank_edges"] == 2
        assert cp.stats["elided_edges"] == 1  # rank0 -> rank2, both worker 0
        (pub,) = cp.publishers
        assert pub.consumers == frozenset({1})

    def test_rankless_consumer_declared_as_sentinel(self):
        plan = Plan()
        a = plan.add(lambda: 1.0, rank=1, label="a")
        join = plan.add(lambda v: v + 1, (Ref(a),), label="join")  # rankless
        cp = compile_plan(plan, workers=2)
        # A terminal rankless task lands on worker 0; the rank-1
        # producer publishes to it under the -1 (rankless) sentinel.
        assert cp.owner[join.tid] == 0
        (pub,) = cp.publishers
        assert pub.task is a
        assert pub.consumers == frozenset({-1})
        Engine(workers=2).execute(plan, timeout=GUARD)
        assert join.value == 2.0

    def test_rankless_task_inherits_consumer_worker(self):
        plan = Plan()
        c = plan.add(lambda: 1.0, label="seed")  # rankless, consumed
        t = plan.add(lambda v: v + 1, (Ref(c),), rank=1, label="use")
        cp = compile_plan(plan, workers=2)
        # Non-terminal rankless tasks co-locate with their first
        # consumer, so the edge is local and nothing publishes.
        assert cp.owner[c.tid] == cp.owner[t.tid] == 1
        assert cp.publishers == []

    def test_mp_mode_replicates_rankless_tasks(self):
        plan = Plan()
        c = plan.add(lambda: 3.0, label="const")
        plan.add(lambda v: v + 1, (Ref(c),), rank=0, label="r0")
        plan.add(lambda v: v + 2, (Ref(c),), rank=1, label="r1")
        cp = compile_plan(plan, workers=2, replicate_rankless=True)
        assert cp.owner[c.tid] == REPLICATED
        # Replicated values are everywhere-local: nothing is sent.
        assert cp.publishers == []
        assert all(c in lane for lane in cp.streams)
        assert cp.stats["tasks"] == 3 and cp.stats["steps"] == 4

    def test_streams_preserve_tid_order(self):
        plan = Plan()
        tasks = [plan.add(lambda r=r: r, rank=r % 3, label=f"t{r}")
                 for r in range(12)]
        del tasks
        cp = compile_plan(plan, workers=2)
        for lane in cp.streams:
            tids = [t.tid for t in lane]
            assert tids == sorted(tids)


class TestArgPreResolution:
    def test_constant_only_args_reuse_the_original_tuple(self):
        plan = Plan()
        t = plan.add(lambda a, b: a + b, (2.0, 3.0), rank=0, label="add")
        cp = compile_plan(plan, workers=1)
        (bt,) = bind_stream(cp, 0, None, None)
        assert bt.task is t and bt.fn is t.fn
        assert bt.make_args() is t.args

    def test_nested_containers_and_index_refs_resolve(self):
        plan = Plan()
        pair = plan.add(lambda: (10.0, 20.0), rank=0, label="pair")
        t = plan.add(
            lambda xs, d: xs[0] + xs[1] + d["k"],
            ([Ref(pair, 0), Ref(pair, 1)], {"k": 5.0}),
            rank=0, label="mix",
        )
        Engine(workers=1).execute(plan, timeout=GUARD)
        assert t.value == 35.0

    def test_makers_read_values_at_call_time(self):
        # Replay safety: rebind + reset must flow into bound closures.
        plan = Plan()
        leaf = plan.add_input(np.array([1.0, 2.0]))
        t = plan.add(lambda v: float(np.sum(v)), (Ref(leaf),), rank=0, label="sum")
        eng = Engine(workers=1)
        eng.execute(plan, timeout=GUARD)
        assert t.value == 3.0
        plan.rebind([np.array([5.0, 7.0])])
        plan.reset()
        eng.execute(plan, timeout=GUARD)
        assert t.value == 12.0


class TestCompiledEngine:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_compiled_matches_uncompiled_values(self, workers):
        # The oracle is the arithmetic itself: mix_r = 2r + seed_0.
        plan = Plan()
        outs = []
        for r in range(5):
            a = plan.add(lambda r=r: float(r), rank=r, label=f"seed{r}")
            b = plan.add(lambda v: v * 2, (Ref(a),), rank=r, label=f"dbl{r}")
            outs.append(plan.add(
                lambda v, w: v + w, (Ref(b), Ref(plan.tasks[0])),
                rank=(r + 1) % 5, label=f"mix{r}",
            ))
        eng = Engine(workers=workers)
        eng.execute(plan, timeout=GUARD)
        assert [t.value for t in outs] == [0.0, 2.0, 4.0, 6.0, 8.0]
        assert eng.tasks_run == 15

    def test_compiled_schedule_rebuilds_when_plan_grows(self):
        plan, tail = _chain_plan(k=3)
        eng = Engine(workers=2)
        eng.execute(plan, timeout=GUARD)
        first = eng._cplan
        assert first is not None and first.n_tasks == 3
        late = plan.add(lambda v: v + 10, (Ref(tail),), rank=1, label="late")
        eng.execute(plan, timeout=GUARD)
        assert eng._cplan is not first
        assert late.value == tail.value + 10

    def test_every_task_emits_its_own_span(self):
        from repro.telemetry import TelemetryRecorder, recording

        plan, _ = _chain_plan(k=4)
        with recording(TelemetryRecorder()) as rec:
            eng = Engine(workers=1, telemetry=rec)
            eng.execute(plan, timeout=GUARD)
        spans = [s for s in rec.spans if s.cat == "task"]
        assert [s.name for s in spans] == ["seed", "inc0", "inc1", "inc2"]
        assert [s.meta["tid"] for s in spans] == [0, 1, 2, 3]
        assert all(set(s.meta) == {"tid"} for s in spans)
        assert int(rec.metrics.counter("engine.tasks")) == 4

    def test_cross_lane_tasks_emit_plain_spans(self):
        from repro.telemetry import TelemetryRecorder, recording

        plan = Plan()
        a = plan.add(lambda: 1.0, rank=0, label="a")
        plan.add(lambda v: v + 1, (Ref(a),), rank=1, label="b")
        with recording(TelemetryRecorder()) as rec:
            Engine(workers=2, telemetry=rec).execute(plan, timeout=GUARD)
        spans = [s for s in rec.spans if s.cat == "task"]
        assert sorted(s.name for s in spans) == ["a", "b"]
        assert all(set(s.meta) == {"tid"} for s in spans)

    def test_more_ranks_than_workers_completes(self):
        # Interleaved multi-rank streams on few workers: the tid-order
        # walk must stay deadlock-free.
        plan = Plan()
        prev = {r: plan.add(lambda r=r: float(r), rank=r, label=f"s{r}")
                for r in range(7)}
        for step in range(3):
            prev = {
                r: plan.add(
                    lambda v, w: v + w,
                    (Ref(prev[r]), Ref(prev[(r + 1) % 7])),
                    rank=r, label=f"mix{step}.{r}",
                )
                for r in range(7)
            }
        Engine(workers=2).execute(plan, timeout=GUARD)
        assert all(t.done for t in plan.tasks)


class _ScriptedClock:
    """An injected engine clock: an execute on ``n`` lanes takes ``cost[n]``.

    Every read advances the clock by the cost of the lane count the
    engine is on, so the two reads around a timed execute differ by
    exactly that cost and the test decides which side "is faster".
    """

    def __init__(self, engine, cost):
        self.engine, self.cost, self.now, self.reads = engine, cost, 0.0, 0
        engine._clock = self

    def __call__(self):
        self.reads += 1
        self.now += self.cost[self.engine.lanes]
        return self.now


def _fan_in_plan():
    """Two ranks feeding a third: cross-worker edges on two lanes."""
    plan = Plan()
    leaf = plan.add_input(np.array([1.0, 2.0]))
    a = plan.add(lambda v: v * 2, (Ref(leaf),), rank=0, label="a")
    b = plan.add(lambda v: v + 1, (Ref(leaf),), rank=1, label="b")
    out = plan.add(lambda x, y: x + y, (Ref(a), Ref(b)), rank=0, label="sum")
    return plan, out


def _replay(engine, plan, n=1):
    lanes = []
    for _ in range(n):
        plan.reset()
        engine.execute(plan, timeout=GUARD)
        lanes.append(engine.lanes)
    return lanes


def _spy_pool_and_slots(monkeypatch):
    """Count the thread pools and rendezvous slots the engine makes."""
    from repro.engine import executor

    made = {"pools": 0, "slots": 0}
    pool, slot = executor.ThreadPoolExecutor, executor.RendezvousGroup

    def spy_pool(*args, **kwargs):
        made["pools"] += 1
        return pool(*args, **kwargs)

    def spy_slot(*args, **kwargs):
        made["slots"] += 1
        return slot(*args, **kwargs)

    monkeypatch.setattr(executor, "ThreadPoolExecutor", spy_pool)
    monkeypatch.setattr(executor, "RendezvousGroup", spy_slot)
    return made


class TestLaneSelection:
    """``workers`` is a cap: a first execute predicts from the plan's
    grain, replays measure one inline lane against it."""

    def test_first_execute_uses_every_worker_then_replays_alternate_and_settle(self):
        plan, out = _fan_in_plan()
        eng = Engine(workers=2)
        _ScriptedClock(eng, {2: 1.0, 1: 0.5})
        eng.execute(plan, timeout=GUARD)
        assert eng.lanes == 2 and "not measured" in eng.lanes_line()
        assert _replay(eng, plan, 4) == [2, 1, 2, 1]
        assert _replay(eng, plan, 3) == [1, 1, 1]            # settled: one lane won
        assert eng.lanes_line() == (
            "lanes: 1 of 2 workers (measured 500 ms on one lane vs 1000 ms on 2)"
        )
        assert out.value.tolist() == [4.0, 7.0]

    def test_workers_kept_unless_one_lane_is_ten_percent_faster(self):
        plan, _ = _fan_in_plan()
        eng = Engine(workers=2)
        _ScriptedClock(eng, {2: 1.0, 1: 0.95})
        eng.execute(plan, timeout=GUARD)
        assert _replay(eng, plan, 6) == [2, 1, 2, 1, 2, 2]
        assert eng.lanes_line().startswith("lanes: 2 of 2 workers (measured 950 ms")

    def test_the_faster_sample_of_each_side_decides(self):
        plan, _ = _fan_in_plan()
        eng = Engine(workers=2)
        clock = _ScriptedClock(eng, {2: 1.0, 1: 5.0})       # one noisy one-lane sample
        eng.execute(plan, timeout=GUARD)
        _replay(eng, plan, 2)
        clock.cost = {2: 1.0, 1: 0.5}
        assert _replay(eng, plan, 3) == [2, 1, 1]

    def test_one_worker_never_measures(self):
        plan, _ = _fan_in_plan()
        eng = Engine(workers=1)
        clock = _ScriptedClock(eng, {1: 1.0})
        eng.execute(plan, timeout=GUARD)
        assert _replay(eng, plan, 5) == [1] * 5
        assert eng.lanes_line() == "lanes: 1 of 1 workers (not measured)"
        assert eng._lane_s == {1: []} and clock.reads == 6   # never a closing read

    @pytest.mark.parametrize("install", ["fault_plan", "recovery"])
    def test_no_measuring_with_faults_installed(self, install):
        from repro.faults import FaultPlan, RetryTask

        plan, _ = _fan_in_plan()
        eng = Engine(workers=2)
        _ScriptedClock(eng, {2: 1.0, 1: 0.1})
        if install == "fault_plan":
            eng.fault_plan = FaultPlan([])
        else:
            eng.recovery = RetryTask(1)
        eng.execute(plan, timeout=GUARD)
        assert _replay(eng, plan, 6) == [2] * 6
        assert "not measured" in eng.lanes_line()

    def test_retry_attempts_are_never_timed(self):
        from repro.faults import FaultPlan, RetryTask

        plan, out = _fan_in_plan()
        eng = Engine(workers=2, fault_plan=FaultPlan.kill(1, 0), recovery=RetryTask(1))
        _ScriptedClock(eng, {2: 1.0, 1: 0.1})
        eng.execute(plan, timeout=GUARD)                      # dies, retries, completes
        assert out.value.tolist() == [4.0, 7.0]
        assert eng._lane_s == {2: [], 1: []}
        eng.fault_plan = eng.recovery = None
        # The interrupted execute was no whole run either: the next one
        # is the plan's first, and only then are replays timed.
        assert _replay(eng, plan, 6) == [2, 2, 1, 2, 1, 1]

    def test_choice_is_reset_when_the_plan_grows(self):
        plan, out = _fan_in_plan()
        eng = Engine(workers=2)
        _ScriptedClock(eng, {2: 1.0, 1: 0.5})
        eng.execute(plan, timeout=GUARD)
        assert _replay(eng, plan, 5)[-1] == 1
        late = plan.add(lambda v: v * 10, (Ref(out),), rank=1, label="late")
        eng.execute(plan, timeout=GUARD)                      # incremental: one new task
        assert eng.lanes == 2 and "not measured" in eng.lanes_line()
        assert late.value.tolist() == [40.0, 70.0]
        # The grown plan has had no whole run yet: one untimed replay on
        # every worker, then it is measured afresh.
        assert _replay(eng, plan, 6) == [2, 2, 1, 2, 1, 1]

    def test_incremental_executes_are_not_samples(self):
        plan, out = _fan_in_plan()
        eng = Engine(workers=2)
        _ScriptedClock(eng, {2: 1.0, 1: 0.5})
        eng.execute(plan, timeout=GUARD)
        out.done = False                                      # a partial re-execution
        eng.execute(plan, timeout=GUARD)
        assert eng.lanes == 2 and eng._lane_s == {2: [], 1: []}

    def test_one_lane_replay_needs_no_rendezvous_and_one_thread(self):
        import threading

        from repro.telemetry import TelemetryRecorder

        plan, _ = _fan_in_plan()
        eng = Engine(workers=2)
        _ScriptedClock(eng, {2: 1.0, 1: 0.5})
        eng.execute(plan, timeout=GUARD)
        _replay(eng, plan, 4)
        rec = eng.telemetry = TelemetryRecorder()
        assert _replay(eng, plan, 2) == [1, 1]
        spans = [s for s in rec.spans if s.cat == "task"]
        # Per replay: both lanes' tasks merged in tid order.
        assert [s.name for s in spans] == ["a", "b", "sum"] * 2
        assert {s.worker for s in spans} == {threading.current_thread().name}
        assert all(s.wait_s == 0.0 for s in spans)
        assert rec.metrics.counter("engine.rendezvous.waits") == 0
        assert all(t.rendezvous is None for t in plan.tasks)
        assert rec.metrics.snapshot()["gauges"]["engine.lanes"] == 1.0

    def test_inline_lane_runs_tasks_after_their_cross_lane_producers(self):
        # One lane walks both streams' tasks merged by tid: a1 (rank 0)
        # reads x (rank 1), recorded between a0 and a1.
        plan = Plan()
        a0 = plan.add(lambda: 1.0, rank=0, label="a0")
        x = plan.add(lambda: 10.0, rank=1, label="x")
        a1 = plan.add(lambda v, w: v + w, (Ref(a0), Ref(x)), rank=0, label="a1")
        a2 = plan.add(lambda v: v * 2, (Ref(a1),), rank=0, label="a2")
        eng = Engine(workers=2)
        _ScriptedClock(eng, {2: 1.0, 1: 0.5})
        eng.execute(plan, timeout=GUARD)
        assert [t.label for t in eng._cplan.streams[0]] == ["a0", "a1", "a2"]
        assert _replay(eng, plan, 5)[-1] == 1
        assert [bt.task.label for bt in eng._inline_tasks()] == ["a0", "x", "a1", "a2"]
        assert a2.value == 22.0

    def test_stream_that_switches_lanes_matches_serial_every_job(self):
        from repro.engine import output_tids, resolve
        from repro.machine import Machine
        from repro.workloads import drive

        rng = np.random.default_rng(11)
        jobs = [rng.standard_normal((48, 24)) for _ in range(21)]
        machine = Machine(6, backend="parallel", workers=2)
        _ScriptedClock(machine.engine, {2: 1.0, 1: 0.5})
        factors, _diag, slicer = drive("house2d", machine, jobs[0], {}, validate=False)
        machine.materialize(factors)
        assert machine.engine.lanes == 1                      # fine grain: inline
        lanes = []
        for A in jobs[1:]:
            machine.plan.rebind(slicer(A))
            machine.plan.reset()
            machine.engine.execute(machine.plan, outputs=output_tids(factors))
            lanes.append(machine.engine.lanes)
            want = drive("house2d", Machine(6), A, {}, validate=False)[0]
            for got, ref in zip(resolve(factors), want):
                np.testing.assert_array_equal(got, ref)
        assert lanes == [2, 1, 2, 1] + [1] * 16

    # A compiled plan's first execute has no samples: its lanes are
    # predicted from the grain, the metered flops per recorded task
    # (repro.engine.executor.TWO_LANE_FLOPS).

    def _recorded(self, alg, m, n, P):
        from repro.machine import Machine
        from repro.workloads import drive, gaussian

        machine = Machine(P, backend="parallel", workers=2)
        A = gaussian(m, n, seed=5)
        factors, _diag, _slicer = drive(alg, machine, A, {}, validate=False)
        return machine, factors, drive(alg, Machine(P), A, {}, validate=False)[0]

    def test_fine_plan_runs_its_first_execute_inline(self, monkeypatch):
        machine, factors, want = self._recorded("house2d", 48, 24, 6)
        made = _spy_pool_and_slots(monkeypatch)
        got = machine.materialize(factors)
        eng = machine.engine
        assert machine.plan.flops == machine.total_flops > 0
        assert eng._cplan.stats["flops_per_task"] < TWO_LANE_FLOPS
        assert eng.lanes == 1 and made == {"pools": 0, "slots": 0}
        assert all(t.rendezvous is None for t in machine.plan.tasks)
        assert re.fullmatch(
            r"lanes: 1 of 2 workers \(first execute inline: \d\.\de\d flops/task; "
            r"not measured\)", eng.lanes_line())
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_coarse_plan_runs_its_first_execute_on_every_worker(self, monkeypatch):
        machine, factors, want = self._recorded("tsqr", 2048, 64, 2)
        made = _spy_pool_and_slots(monkeypatch)
        got = machine.materialize(factors)
        eng = machine.engine
        assert eng._cplan.stats["flops_per_task"] >= TWO_LANE_FLOPS
        assert eng.lanes == 2 and made["pools"] == 1 and made["slots"] > 0
        assert re.fullmatch(
            r"lanes: 2 of 2 workers \(first execute on 2 lanes: \d\.\de6 flops/task; "
            r"not measured\)", eng.lanes_line())
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("flops,lanes", [
        (None, 2),                                            # built by hand
        (3 * TWO_LANE_FLOPS, 2),                              # at the bound
        (3 * TWO_LANE_FLOPS - 1, 1),
    ])
    def test_a_hand_built_plan_keeps_every_worker_until_it_has_flops(
        self, flops, lanes, monkeypatch
    ):
        plan, out = _fan_in_plan()                            # three tasks, one leaf
        assert plan.flops is None
        plan.flops = flops
        grain = compile_plan(plan, 2).stats["flops_per_task"]
        assert grain == (None if flops is None else flops / 3)
        made = _spy_pool_and_slots(monkeypatch)
        eng = Engine(workers=2)
        eng.execute(plan, timeout=GUARD)
        assert eng.lanes == lanes and made["pools"] == (lanes == 2)
        assert out.value.tolist() == [4.0, 7.0]
        if flops is None:
            assert eng.lanes_line() == "lanes: 2 of 2 workers (not measured)"

    def test_a_grown_plan_is_predicted_again_then_replays_measure(self):
        from repro.backend import SymbolicArray
        from repro.machine import Machine

        machine = Machine(2, backend="parallel", workers=2)
        eng = machine.engine
        _ScriptedClock(eng, {2: 1.0, 1: 0.5})
        meta = SymbolicArray((4,), np.float64)
        a = machine.kernel(0, np.ones, ((4,),), meta, label="a")
        machine.compute(0, 10.0)
        machine.materialize(a)                                # 10 flops / task
        assert eng.lanes == 1
        b = machine.kernel(1, np.negative, (a,), meta, label="b")
        machine.compute(1, 4e6)
        assert machine.materialize(b).tolist() == [-1.0] * 4  # recompiled: 2e6 / task
        assert eng._cplan.n_tasks == 2 and eng.lanes == 2
        # One untimed whole run on the prediction, then the samples decide.
        assert _replay(eng, machine.plan, 7) == [2, 2, 1, 2, 1, 1, 1]


class TestOneExecutionPath:
    def test_no_compile_switch_grows_back(self):
        """Acceptance pin: the compiled stream is the only engine path,
        so nothing under src/repro takes a ``compile``/``compiled``
        parameter and the CLI has no ``--no-compile``."""
        import ast
        import pathlib

        from repro.cli import main

        src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
        offenders = []
        for path in src.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                a = node.args
                for arg in a.posonlyargs + a.args + a.kwonlyargs:
                    if arg.arg in ("compile", "compiled"):
                        offenders.append(
                            f"{path.relative_to(src)}:{node.lineno}: "
                            f"def {node.name}(... {arg.arg} ...)"
                        )
        assert not offenders, "\n".join(offenders)
        assert "--no-compile" not in (src / "cli.py").read_text()
        with pytest.raises(SystemExit) as exc:
            main(["run", "--alg", "tsqr", "--m", "64", "--n", "4", "--P", "4",
                  "--no-compile"])
        assert exc.value.code == 2

    def test_no_record_time_dataflow_or_fusion_grows_back(self):
        """Acceptance pin: the compiler's consumer map is the engine's
        only dataflow analysis -- no frontier, no exclusivity test at
        record time, no fused steps."""
        import pathlib
        import re

        src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
        gone = re.compile(
            r"_frontier|_tails|_barrier_task|_is_exclusive|fused|class (Bound)?Step"
        )
        offenders = [
            f"{path.relative_to(src)}:{n}: {line.strip()}"
            for path in sorted(src.rglob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if gone.search(line)
        ]
        assert not offenders, "\n".join(offenders)
        engine = src / "engine"
        # One in-place mechanism, applied at one site (bind time).
        uses = [
            f"{path.name}:{n}"
            for path in sorted(engine.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if "_run_updating" in line and not line.startswith("def ")
        ]
        assert len(uses) == 1 and uses[0].startswith("compile.py:"), uses
        assert sum(p.read_text().count("RendezvousGroup(")
                   for p in engine.glob("*.py")) == 1

    def test_no_receive_hook_grows_back(self):
        """Acceptance pin: a transfer is an edge, not a task -- no
        backend hook rebinds a payload into the receiver's stream."""
        import pathlib
        import re

        src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
        gone = re.compile(r"receive_fn|def receive\(|_receive")
        offenders = [
            f"{path.relative_to(src)}:{n}: {line.strip()}"
            for path in sorted(src.rglob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if gone.search(line)
        ]
        assert not offenders, "\n".join(offenders)


# (alg, m, n, knobs) on P = 8, workers = 2, validate=False -> (tasks,
# sha256 prefix of the (label, rank) sequence).  First taken at the
# commit before transfers became edges, its receive tasks left out; then
# re-pinned when the collectives became count schedules plus combine
# kernels (see TestCollectivesRecordOnlyTheirCombine for the label
# multisets that changed).  Every other task keeps its label, rank and
# order.
PARENT_TASKS = {
    ("tsqr", 2048, 32, ()): (102, "4ff9cab44ad02b81"),
    ("house1d", 1024, 32, ()): (1148, "fa01ef0dfa2468c0"),
    ("caqr1d", 1024, 32, ()): (669, "6baa35244adcbb99"),
    ("house2d", 384, 96, ()): (3819, "469d4da20e2b5f50"),
    ("caqr2d", 384, 96, ()): (247, "ba00dd795334dcc3"),
    ("caqr3d", 1024, 256, (("delta", 0.5),)): (2022, "dc12c4884d5555be"),
    ("wide", 24, 48, ()): (2907, "04f0a3dcb1a80c92"),
    ("applyq", 256, 16, ()): (163, "3b442329946e19c6"),
    ("mm1d", 256, 16, ()): (34, "fea400898672f921"),
    ("mm3d", 256, 16, ()): (161, "4046bc9e88e4330c"),
}


class TestTransfersAreEdges:
    """``Machine.transfer`` returns its payload on every backend and
    records nothing; the compiler's consumer map carries the edge."""

    @pytest.mark.parametrize("backend", ["numeric", "parallel"])
    def test_transfer_and_exchange_return_the_payload_itself(self, backend):
        from repro.machine import Machine

        machine = Machine(4, backend=backend)
        x, y = machine.ops.zeros((3,)), machine.ops.zeros((2,))
        plan = machine.plan.tasks if machine.plan is not None else []
        recorded = len(plan)
        assert machine.transfer(0, 1, x, label="t") is x
        out = machine.exchange_round([(0, 1, x), (2, 2, y), (3, 0, (x, y))])
        assert out[0] is x and out[1] is y and out[2][0] is x and out[2][1] is y
        assert len(plan) == recorded
        assert machine.total_messages_sent == 3

    def test_ten_algorithms_cover_every_algorithm(self):
        from repro.workloads import ALGORITHMS

        assert sorted(alg for alg, *_ in PARENT_TASKS) == sorted(ALGORITHMS)

    @pytest.mark.parametrize("alg,m,n,knobs", list(PARENT_TASKS), ids=str)
    def test_every_task_keeps_its_parent_label_and_rank(self, alg, m, n, knobs):
        import hashlib

        from repro.machine import Machine
        from repro.workloads import drive, gaussian

        machine = Machine(8, backend="parallel", workers=2)
        drive(alg, machine, gaussian(m, n, seed=0), dict(knobs), validate=False)
        seq = [(t.label, t.rank) for t in machine.plan.tasks]
        digest = hashlib.sha256(repr(seq).encode()).hexdigest()[:16]
        assert (len(seq), digest) == PARENT_TASKS[alg, m, n, knobs]


# The tasks recorded from inside repro/collectives/ on the PARENT_TASKS
# runs: one combine kernel per reduction result.
COMBINE_TASKS = {
    "tsqr": {},
    "house1d": {"reduce_combine": 63, "reduce_scatter_add": 1},
    "caqr1d": {"reduce_scatter_add": 6},
    "house2d": {"reduce_combine": 193, "reduce_scatter_add": 22},
    "caqr2d": {"reduce_scatter_add": 1},
    "caqr3d": {"reduce_combine": 6, "reduce_scatter_add": 45},
    "wide": {"reduce_combine": 6, "reduce_scatter_add": 127},
    "applyq": {"reduce_scatter_add": 2},
    "mm1d": {"reduce_scatter_add": 1},
    "mm3d": {"reduce_scatter_add": 8},
}


class TestCollectivesRecordOnlyTheirCombine:
    """A collective is a schedule on word counts plus at most one
    ``machine.kernel`` per reduction result, so the only tasks recorded
    from inside ``repro/collectives/`` are ``reduce_combine`` (binomial
    reduce / all-reduce, on the root) and ``reduce_scatter_add`` (one per
    reduce-scatter destination; one per bidirectional reduce /
    all-reduce): :data:`COMBINE_TASKS`.  They replaced these operator
    tasks the array-moving collectives recorded on the same runs:

    * house1d: add 497, getitem 64, reshape 17, concatenate 1;
    * caqr1d: add 336, getitem 408, reshape 132, concatenate 9;
    * house2d: add 2 583, getitem 1 408, reshape 374, concatenate 22;
    * caqr2d: add 56, getitem 64, reshape 17, concatenate 1;
    * caqr3d: add 476, getitem 408, reshape 132, concatenate 9;
    * wide: add 166;
    * applyq: add 112, getitem 144, reshape 54, concatenate 4;
    * mm1d: add 56, getitem 72, reshape 27, concatenate 2;
    * mm3d: add 56;
    * tsqr: none (it runs no reduction).

    Every task recorded outside the collectives kept its label, rank and
    order.
    """

    @pytest.mark.parametrize("alg,m,n,knobs", list(PARENT_TASKS), ids=str)
    def test_no_other_task_comes_from_a_collective(self, alg, m, n, knobs, monkeypatch):
        import pathlib
        import sys
        from collections import Counter

        import repro.collectives
        from repro.engine.plan import Plan
        from repro.machine import Machine
        from repro.workloads import drive, gaussian

        collectives = str(pathlib.Path(repro.collectives.__file__).parent)
        recorded = Counter()
        add = Plan.add

        def spy(self, *args, **kwargs):
            task = add(self, *args, **kwargs)
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code.co_filename.startswith(collectives):
                    recorded[task.label] += 1
                    break
                frame = frame.f_back
            return task

        monkeypatch.setattr(Plan, "add", spy)
        machine = Machine(8, backend="parallel", workers=2)
        drive(alg, machine, gaussian(m, n, seed=0), dict(knobs), validate=False)
        assert recorded == Counter(COMBINE_TASKS[alg])
