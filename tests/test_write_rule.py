"""The engine's write rule: when an ``updates=`` task may write in place.

``repro.engine.compile.compile_plan`` decides, from its consumer map,
which written arguments are handed over as the producer's own buffer
and which as a copy.  Pinned here, three ways:

* **property** -- random small programs (fresh arrays, input leaves,
  views, element and slice writes, ``updates=`` kernels, a kernel that
  writes a block and returns a result, read-only kernels on a chosen
  rank, transfers, consumers recorded after a writer, mid-program
  materializes) compute bit for bit what the *same* compiled plan
  computes with every write copied, on first execution and on rebind +
  reset replays, and never touch an input leaf;
* **literals** -- the two programs the record-time rule got wrong (a
  value that escaped through ``materialize``; a consumer recorded after
  the writer) and "view taken before a write, read after it", each of
  the rule's four conditions on a hand-built plan, the last-use
  condition's cases (which earlier readers leave a block writable), and
  recovery re-arming exactly what was written in place;
* **same work** -- in-place write counts per algorithm no lower than the
  last-use rule's, with the parent's literal ``CostReport`` and
  ``words_by_label`` on numeric / parallel / parallel-mp.
"""

from __future__ import annotations

import functools
import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import SymbolicArray
from repro.engine import LazyArray, Plan, Ref, compile_plan, output_tids, resolve
from repro.engine import executor as executor_mod
from repro.engine.compile import grain
from repro.engine.plan import Writes
from repro.machine import Machine
from repro.workloads import drive, gaussian, run_qr

N = 4  # every array of a random program is a length-4 vector
P = 3


# ----------------------------------------------------------------------
# Random programs
# ----------------------------------------------------------------------

def _bump(x, y, by):
    """``x += by`` in place; returns ``x + y`` (a new array)."""
    x += by
    return x + y


def _write_and_view(x, k, by):
    """``x[k] += by`` in place; the output is a reversed *copy* of ``x``.

    A kernel result shares memory with no argument, written ones
    included (the ``machine.kernel`` contract), so not ``x[::-1]``.
    """
    x[k] += by
    return (x[::-1].copy(),)


def _stats(x):
    """A read-only kernel: a new array computed from ``x``."""
    return np.cumsum(x)


OP_NAMES = (
    "zeros", "leaf", "copy", "view", "add", "setitem", "setslice", "bump",
    "write_and_view", "stats", "transfer", "retain", "use_retained", "materialize",
)
PROGRAMS = st.lists(
    st.tuples(st.sampled_from(OP_NAMES), st.integers(0, 11), st.integers(0, 11),
              st.integers(0, P - 1)),
    min_size=1, max_size=16,
)


def _leaf_values(k, sign=1.0):
    return sign * (np.arange(N, dtype=np.float64) + 10.0 * (k + 1))


def _run_program(ops, workers):
    """Record and execute ``ops``; replay twice on fresh leaves.

    Returns every value a caller could observe -- snapshots taken by
    mid-program materializes (re-read at the very end, so a later write
    into an escaped buffer shows), the final pool, both replays' pools --
    and the leaf arrays with the copies taken when they were made.
    """
    machine = Machine(P, backend="parallel", workers=workers)
    leaves: list[np.ndarray] = []
    pool = [machine.ops.zeros((N,))]
    retained: list[LazyArray] = []
    snapshots: list[tuple[np.ndarray, np.ndarray]] = []
    vec = SymbolicArray((N,))
    for step, (name, i, j, r) in enumerate(ops, 1):
        x, y = pool[i % len(pool)], pool[j % len(pool)]
        if name == "zeros":
            pool.append(machine.ops.zeros((N,)))
        elif name == "leaf":
            leaves.append(_leaf_values(len(leaves)))
            pool.append(machine.ops.asarray(leaves[-1]))
        elif name == "copy":
            pool.append(x.copy())
        elif name == "view":
            pool.append(x[::-1])
        elif name == "add":
            pool.append(x + y)
        elif name == "setitem":
            x[j % N] = float(step)
        elif name == "setslice":
            x[0:2] = y[2:4]
        elif name == "bump":
            # One task must not take a written buffer and another handle
            # on the same producer (a possible alias of it): numpy itself
            # gives aliased operands in-place semantics.
            if x.ref.task is not y.ref.task:
                kern = functools.partial(_bump, by=float(step))
                pool.append(machine.kernel(r, kern, (x, y), vec, updates=(0,)))
        elif name == "write_and_view":
            kern = functools.partial(_write_and_view, k=j % N, by=float(step))
            (view,) = machine.kernel(r, kern, (x,), (vec,), updates=(0,))
            # A *task* reading the output -- whenever recorded -- reads
            # this value, however often x is written afterwards.
            retained.append(view)
        elif name == "stats":
            # An earlier same-lane reader of this kind leaves x writable.
            pool.append(machine.kernel(r, _stats, (x,), vec))
        elif name == "transfer":
            pool.append(machine.transfer(r, (r + 1 + j) % P, x))
        elif name == "retain":
            # A second handle on x's current value: its consumers can be
            # recorded after x has been written again.
            retained.append(LazyArray(x.plan, x.meta, x.ref))
        elif name == "use_retained":
            if retained:
                pool.append(retained[i % len(retained)] + 1.0)
        elif name == "materialize":
            value = machine.materialize(x)
            snapshots.append((value, value.copy()))
            # The plan so far has run; a handle retained across it would
            # ask the compiler to have seen consumers not yet recorded.
            retained.clear()
    leaf_copies = [leaf.copy() for leaf in leaves]
    runs = [[v.copy() for v in machine.materialize(pool)]]
    for sign in (-1.0, 3.0):
        machine.plan.rebind([_leaf_values(k, sign) for k in range(len(leaves))])
        machine.plan.reset()
        machine.engine.execute(machine.plan, outputs=output_tids(pool))
        runs.append([v.copy() for v in resolve(pool)])
    return snapshots, runs, leaves, leaf_copies, machine


def _all_copied(plan, workers, **kwargs):
    """The compiled plan with its copy map overridden: copy every write."""
    cplan = compile_plan(plan, workers, **kwargs)
    cplan.copies = {tid: plan.tasks[tid].writes.updates for tid in cplan.copies}
    return cplan


class TestWriteRuleProperty:
    @pytest.mark.parametrize("workers", [1, 2])
    # The fixture only patches module state, the same for every example.
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ops=PROGRAMS)
    def test_in_place_writes_are_unobservable(self, workers, ops, first_execute_on_workers):
        # First executes on every worker: in-place hand-offs cross real threads.
        first_execute_on_workers.clear()
        snaps, runs, leaves, leaf_copies, machine = _run_program(ops, workers)
        assert first_execute_on_workers[0] == workers
        with mock.patch.object(executor_mod, "compile_plan", _all_copied):
            ref_snaps, ref_runs, _, _, ref_machine = _run_program(ops, workers)
        # The reference really copied everything, the run under test
        # compiled its own map (same plan, so same keys).
        ref_copies = ref_machine.engine._cplan.copies
        assert all(
            ref_copies[tid] == ref_machine.plan.tasks[tid].writes.updates
            for tid in ref_copies
        )
        assert machine.engine._cplan.copies.keys() == ref_copies.keys()
        for (now, then), (ref_now, _) in zip(snaps, ref_snaps, strict=True):
            np.testing.assert_array_equal(now, then)      # escaped values stay put
            np.testing.assert_array_equal(now, ref_now)
        for got_run, ref_run in zip(runs, ref_runs, strict=True):
            for got, ref in zip(got_run, ref_run, strict=True):
                np.testing.assert_array_equal(got, ref)
        for leaf, copy in zip(leaves, leaf_copies):
            np.testing.assert_array_equal(leaf, copy)     # leaves are never written


# ----------------------------------------------------------------------
# Literal programs
# ----------------------------------------------------------------------

def _close(machine):
    if hasattr(machine.engine, "close"):
        machine.engine.close()


BACKENDS = ["parallel", pytest.param("parallel-mp", marks=pytest.mark.mp)]


class TestCounterexamples:
    """Programs the record-time frontier rule got wrong at the parent."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_value_escaped_through_materialize_is_not_written(self, backend):
        m = Machine(2, backend=backend, workers=2)
        try:
            x = m.ops.zeros((3,))
            x[0] = 1.0
            v = m.materialize(x)
            x[1] = 5.0
            assert m.materialize(x).tolist() == [1.0, 5.0, 0.0]
            assert v.tolist() == [1.0, 0.0, 0.0]          # parent: [1, 5, 0]
        finally:
            _close(m)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_consumer_recorded_after_the_writer_reads_the_old_value(self, backend):
        m = Machine(2, backend=backend, workers=2)
        try:
            x = m.ops.zeros((3,))
            held = LazyArray(x.plan, x.meta, x.ref)       # a retained Ref
            x[0] = 1.0
            late = held + 0.0                              # recorded after the write
            x, late = m.materialize((x, late))
            assert x.tolist() == [1.0, 0.0, 0.0]
            assert late.tolist() == [0.0, 0.0, 0.0]        # parent: [1, 0, 0]
        finally:
            _close(m)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_view_taken_before_a_write_read_after_it(self, backend):
        m = Machine(2, backend=backend, workers=2)
        try:
            x = m.ops.zeros((3,))
            view = x[:2]
            x[0] = 1.0
            after = view + 0.0
            view, after, x = m.materialize((view, after, x))
            assert view.tolist() == after.tolist() == [0.0, 0.0]
            assert x.tolist() == [1.0, 0.0, 0.0]
        finally:
            _close(m)


class TestFourConditions:
    """``CompiledPlan.copies`` on hand-built plans, one condition each."""

    def _machine(self):
        return Machine(2, backend="parallel", workers=1)

    def _copies(self, machine):
        plan = machine.plan
        copies = compile_plan(plan, 1).copies
        return {plan.tasks[tid].label: c for tid, c in copies.items()}

    def test_fresh_sole_consumer_is_written_in_place(self):
        m = self._machine()
        x = m.ops.zeros((3,))
        producer = x.ref.task
        x[0] = 1.0
        m.kernel(1, functools.partial(_bump, y=1.0, by=2.0), (x,), None,
                 updates=(0,), label="bump")
        assert self._copies(m) == {"setitem": (), "bump": ()}
        assert m.materialize(x) is producer.value

    def test_setitem_is_an_updates_task_with_the_raw_kernel_recorded(self):
        m = self._machine()
        x = m.ops.zeros((3,))
        x[1] = 2.0
        task = x.ref.task
        assert task.writes == Writes(updates=(0,), fresh=(0,), splat=False)
        assert x.ref.index == 0 and task.fn is operator.setitem

    def test_a_ufunc_result_is_not_fresh(self):
        m = self._machine()
        y = m.ops.zeros((3,)) + 1.0          # an ``add`` result: nobody's allocation
        y[0] = 1.0
        assert y.ref.task.writes.fresh == ()
        assert self._copies(m) == {"setitem": (0,)}

    def test_an_input_leaf_is_never_written(self):
        leaf = np.zeros(3)
        plan = Plan()
        src = plan.add_input(leaf)
        w = plan.add(functools.partial(_bump, y=0.0, by=1.0), (Ref(src),), rank=0, label="w")
        w.writes = Writes((0,), (0,), False)  # even if a recorder called it fresh
        assert compile_plan(plan, 1).copies == {w.tid: (0,)}

    def test_a_second_consumer_forces_the_copy_even_when_recorded_later(self):
        m = self._machine()
        x = m.ops.zeros((3,))
        held = LazyArray(x.plan, x.meta, x.ref)
        x[0] = 1.0
        assert self._copies(m) == {"setitem": ()}
        held + 0.0
        assert self._copies(m) == {"setitem": (0,)}

    def test_a_kernel_result_is_fresh_so_its_reader_leaves_the_block_writable(self):
        m = self._machine()
        x = m.ops.zeros((N,))
        (rev,) = m.kernel(0, functools.partial(_write_and_view, k=0, by=1.0), (x,),
                          (SymbolicArray((N,)),), updates=(0,), label="wv")
        keep = rev + 0.0                     # reads output 1 of the task: a new array ...
        x[3] = 9.0                           # ... so writing output 0 goes in place
        assert self._copies(m) == {"wv": (), "setitem": ()}
        keep, x = m.materialize((keep, x))
        assert keep.tolist() == [0.0, 0.0, 0.0, 1.0] and x.tolist() == [1.0, 0.0, 0.0, 9.0]

    def test_a_producer_already_done_at_compile_time_is_copied(self):
        m = self._machine()
        x = m.ops.zeros((3,))
        x[0] = 1.0
        m.materialize(x)
        x[1] = 2.0
        first, second = (t for t in m.plan.tasks if t.label == "setitem")
        assert first.done and compile_plan(m.plan, 1).copies[second.tid] == (0,)
        # ... and only then: the replayed plan starts from nothing done.
        m.plan.reset()
        assert compile_plan(m.plan, 1).copies[second.tid] == ()


def _inc(x):
    """A write-only kernel: ``x += 1`` in place."""
    x += 1.0


def _two(a):
    """A kernel with two results, fresh and disjoint."""
    return a + 1.0, a * 2.0


READERS = {
    "kernel": lambda m, x, r: m.kernel(r, _stats, (x,), SymbolicArray((N,)), label="read"),
    "getitem": lambda m, x, r: x[1:],
    "ufunc": lambda m, x, r: x + 0.0,
}


class TestLastUse:
    """Condition 3: which readers recorded before a write leave it in place.

    ``x`` is a kernel result on rank 0, ``read`` reads it, then rank 0
    writes it; the reader must still see the old value.
    """

    LEAF = np.arange(N, dtype=np.float64)

    def _program(self, backend, workers, reader, reader_rank):
        m = Machine(2, backend=backend, workers=workers)
        try:
            x = m.kernel(0, _stats, (m.ops.asarray(self.LEAF),), SymbolicArray((N,)))
            seen = READERS[reader](m, x, reader_rank)
            m.kernel(0, _inc, (x,), None, updates=(0,), label="write")
            (writer,) = [t for t in m.plan.tasks if t.label == "write"]
            copies = compile_plan(m.plan, workers).copies[writer.tid]
            x, seen = m.materialize((x, seen))
        finally:
            _close(m)
        old = np.cumsum(self.LEAF)
        np.testing.assert_array_equal(x, old + 1.0)
        want = {"kernel": np.cumsum(old), "getitem": old[1:], "ufunc": old}[reader]
        np.testing.assert_array_equal(seen, want)
        return copies

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_kernel_reader_earlier_in_the_lane_leaves_the_block_writable(
            self, backend, workers):
        assert self._program(backend, workers, "kernel", reader_rank=0) == ()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_kernel_reader_on_the_other_worker_forces_the_copy(self, backend):
        assert self._program(backend, 2, "kernel", reader_rank=1) == (0,)
        # One worker runs both ranks in tid order: the reader is done first.
        assert self._program(backend, 1, "kernel", reader_rank=1) == ()

    @pytest.mark.parametrize("reader", ["getitem", "ufunc"])
    def test_a_view_or_operator_reader_forces_the_copy(self, reader):
        assert self._program("parallel", 1, reader, reader_rank=0) == (0,)

    def test_a_kernel_reader_recorded_after_the_writer_forces_the_copy(self):
        m = Machine(2, backend="parallel", workers=1)
        x = m.kernel(0, _stats, (m.ops.asarray(self.LEAF),), SymbolicArray((N,)))
        held = LazyArray(x.plan, x.meta, x.ref)          # a retained Ref
        m.kernel(0, _inc, (x,), None, updates=(0,), label="write")
        late = READERS["kernel"](m, held, 0)
        (writer,) = [t for t in m.plan.tasks if t.label == "write"]
        assert compile_plan(m.plan, 1).copies[writer.tid] == (0,)
        x, late = m.materialize((x, late))
        old = np.cumsum(self.LEAF)
        np.testing.assert_array_equal(late, np.cumsum(old))
        np.testing.assert_array_equal(x, old + 1.0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_reader_of_another_output_leaves_the_block_writable(self, workers):
        m = Machine(2, backend="parallel", workers=workers)
        vec = SymbolicArray((N,))
        a, b = m.kernel(0, _two, (m.ops.asarray(self.LEAF),), (vec, vec), label="two")
        seen = a + 0.0                       # output 0, even through an operator
        m.kernel(0, _inc, (b,), None, updates=(0,), label="write")
        (writer,) = [t for t in m.plan.tasks if t.label == "write"]
        assert compile_plan(m.plan, workers).copies[writer.tid] == ()
        a, b, seen = m.materialize((a, b, seen))
        np.testing.assert_array_equal(seen, self.LEAF + 1.0)
        np.testing.assert_array_equal(a, self.LEAF + 1.0)
        np.testing.assert_array_equal(b, self.LEAF * 2.0 + 1.0)


class TestRecoveryRearm:
    """``rearm`` re-runs exactly the producers whose buffers were written."""

    def _run(self, calls):
        from repro.dist import BlockRowLayout, DistMatrix
        from repro.faults import CodedRecovery, FaultPlan, encode_checksums
        from repro.util import balanced_sizes

        def counted(name, fn):
            def run(*args):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args)
            return run

        def accumulate(z, block):
            z += block.sum(axis=0)

        A = gaussian(16, 3, seed=2)
        layout = BlockRowLayout(balanced_sizes(16, 4))
        # Ranks 0-3 hold data, rank 4 the checksum; one worker owns all.
        m = Machine(5, backend="parallel", workers=1,
                    fault_plan=FaultPlan.kill(1, 1), recovery=CodedRecovery(1))
        dA = DistMatrix.from_global(m, A, layout)
        m.engine.coded_ctx = encode_checksums(m, dA, 1)
        vec = SymbolicArray((3,))
        x = m.kernel(0, counted("x", lambda b: b.sum(axis=0)), (dA.local(0),), vec)
        r = m.kernel(2, counted("r", np.negative), (x,), vec)       # earlier reader
        m.kernel(1, counted("w", accumulate), (x, dA.local(1)), None,
                 updates=(0,), label="w")                            # rank 1, step 0
        y = m.kernel(1, counted("y", np.copy), (x,), vec)           # rank 1 dies here
        (writer,) = [t for t in m.plan.tasks if t.label == "w"]
        x, r, y = m.materialize((x, r, y))
        assert m.fault_plan.fired[0].rank == 1
        want = A[layout.rows_of(0)].sum(axis=0) + A[layout.rows_of(1)].sum(axis=0)
        np.testing.assert_array_equal(x, want)
        np.testing.assert_array_equal(y, want)
        np.testing.assert_array_equal(r, -A[layout.rows_of(0)].sum(axis=0))
        return m.engine._cplan.copies[writer.tid], (x, r, y)

    def test_a_producer_with_an_earlier_reader_reruns_with_its_writer(self):
        calls: dict[str, int] = {}
        copies, got = self._run(calls)
        assert copies == ()                  # the write went in place ...
        assert calls == {"x": 2, "r": 1, "w": 2, "y": 1}   # ... so x ran again
        ref_calls: dict[str, int] = {}
        with mock.patch.object(executor_mod, "compile_plan", _all_copied):
            ref_copies, ref = self._run(ref_calls)
        assert ref_copies == (0,) and ref_calls == {"x": 1, "r": 1, "w": 2, "y": 1}
        for g, want in zip(got, ref, strict=True):
            np.testing.assert_array_equal(g, want)


class TestObservability:
    def test_stats_count_the_copies_map(self):
        machine = Machine(8, backend="parallel", workers=2)
        drive("tsqr", machine, gaussian(2048, 32, seed=0), {}, validate=False)
        cplan = compile_plan(machine.plan, 2)
        copied = sum(len(c) for c in cplan.copies.values())
        assert (cplan.stats["writes_in_place"], cplan.stats["writes_copied"]) == (15, copied)
        assert copied == 1

    def test_trace_prints_the_writes_under_the_lanes_line(self, capsys, tmp_path):
        from repro.cli import main

        rc = main(["trace", "tsqr", "--m", "2048", "--n", "32", "--P", "8",
                   "--workers", "1", "--out", str(tmp_path / "t.json")])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        (i,) = [k for k, ln in enumerate(lines) if ln.startswith("lanes: ")]
        assert lines[i + 1] == "writes: 15 in place, 1 copied"


# ----------------------------------------------------------------------
# Same work as the parent commit
# ----------------------------------------------------------------------

# (alg, m, n, knobs) on P = 8 -> (writes in place, writes copied) under
# the last-use rule (the sole-consumer rule before it: 8 / 8, 24 / 2288,
# 16 / 752, 74 / 32, 39 / 35, 180 / 63 -- the same writes).
PARENT_WRITES = {
    ("tsqr", 2048, 32, ()): (15, 1),
    ("house2d", 384, 96, ()): (2312, 0),
    ("house1d", 1024, 32, ()): (768, 0),
    ("caqr1d", 1024, 32, ()): (102, 4),
    ("caqr2d", 384, 96, ()): (61, 13),
    ("caqr3d", 1024, 256, (("delta", 0.5),)): (236, 7),
}

# (alg, m, n, knobs) on P = 8 -> (CostReport fields, words_by_label) from
# the parent commit on gaussian(seed=0) input.
GOLDEN = {
    ("tsqr", 2048, 32, ()): (
        dict(critical_flops=3756192.0, critical_words=12384.0,
             critical_messages=15.0, total_flops=20833200.0,
             total_words_sent=18032, total_messages_sent=21,
             modeled_time=3768591.0),
        {'tsqr_up': 3696, 'tsqr_down': 7168, 'bcast_binomial': 7168},
    ),
    ("house2d", 384, 96, ()): (
        dict(critical_flops=914372.0000000006, critical_words=24232.0,
             critical_messages=2580.0, total_flops=7064575.999999968,
             total_words_sent=71904, total_messages_sent=3758,
             modeled_time=941184.0000000006),
        {'reduce_binomial': 5152, 'bcast_binomial': 5152, 'reduce_scatter': 30800,
         'all_gather': 30800},
    ),
    ("caqr3d", 1024, 256, (("delta", 0.5),)): (
        dict(critical_flops=53143876.0, critical_words=1417998.0,
             critical_messages=482.0, total_flops=264697728.0,
             total_words_sent=4017792, total_messages_sent=1216,
             modeled_time=54555698.0),
        {'gather': 157696, 'scatter': 246784, 'tsqr_up': 21120, 'tsqr_down': 40960,
         'bcast_binomial': 59392, 'reduce_scatter': 348160, 'all_gather': 256000,
         'alltoall_round0': 950270, 'alltoall_round1': 950272,
         'alltoall_round2': 950274, 'reduce_binomial': 36864},
    ),
}


class TestSameWork:
    @pytest.mark.parametrize("alg,m,n,knobs", list(PARENT_WRITES), ids=str)
    def test_no_fewer_writes_in_place_than_the_parent(self, alg, m, n, knobs):
        machine = Machine(8, backend="parallel", workers=2)
        drive(alg, machine, gaussian(m, n, seed=0), dict(knobs), validate=False)
        plan = machine.plan
        copies = compile_plan(plan, 2).copies
        copied = sum(len(c) for c in copies.values())
        written = sum(len(plan.tasks[tid].writes.updates) for tid in copies)
        parent_in_place, parent_copied = PARENT_WRITES[alg, m, n, knobs]
        assert written == parent_in_place + parent_copied     # the same writes
        assert written - copied >= parent_in_place

    @pytest.mark.parametrize("alg,m,n,knobs", list(PARENT_WRITES), ids=str)
    def test_the_one_lane_compile_makes_the_parents_decisions(self, alg, m, n, knobs):
        # Every grain here is below TWO_LANE_FLOPS, so the thread engine
        # compiles these plans for one lane: all owners are lane 0, and
        # the write rule still hands over exactly the two-lane writes.
        machine = Machine(8, backend="parallel", workers=2)
        drive(alg, machine, gaussian(m, n, seed=0), dict(knobs), validate=False)
        plan = machine.plan
        plan.flops = machine.total_flops
        assert grain(plan) < executor_mod.TWO_LANE_FLOPS
        stats = machine.engine._compiled(plan).stats
        assert stats["workers"] == 1
        assert (stats["writes_in_place"], stats["writes_copied"]) == PARENT_WRITES[
            alg, m, n, knobs]

    @pytest.mark.parametrize("backend", ["numeric", *BACKENDS])
    @pytest.mark.parametrize("alg,m,n,knobs", list(GOLDEN), ids=str)
    def test_report_and_labels_equal_the_parent_commit(self, alg, m, n, knobs, backend):
        fields, labels = GOLDEN[alg, m, n, knobs]
        r = run_qr(alg, gaussian(m, n, seed=0), 8, validate=False, backend=backend,
                   workers=2, **dict(knobs))
        assert {k: getattr(r.report, k) for k in fields} == fields
        assert r.words_by_label == labels
