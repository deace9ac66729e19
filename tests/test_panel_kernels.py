"""Kernel-granularity recording of the Householder baselines.

house1d, house2d and caqr2d dispatch every per-(column, rank) stage as
one pure kernel through ``Machine.kernel`` (``qr/baselines/panel2d.py``).
Pinned here:

* **golden metering** -- literal ``CostReport`` fields and
  ``words_by_label`` captured at the commit *before* the kernels
  replaced the per-operation ``LazyArray`` loops, so the refactor is
  held to the old metering and not only to cross-backend agreement;
* **plan balance** -- kernels carry their owner's rank, so no rank owns
  the plan (the old rank hint put 13 703 of 20 251 ranked tasks of
  house2d 384x96 P=8 on rank 0);
* **record-time binding** -- kernels carry their loop indices with them
  (``functools.partial``), so a plan replayed with a second input
  equals serial numeric bit for bit;
* **the ``updates=`` contract** -- in place on numeric, copy unless
  exclusively held on the engine, metas on symbolic.
"""

from __future__ import annotations

import functools
from collections import Counter

import numpy as np
import pytest

from repro.backend import SymbolicArray
from repro.engine import output_tids, resolve
from repro.machine import Machine
from repro.workloads import drive, gaussian, run_qr

# (alg, m, n, P) -> (CostReport fields, words_by_label), from the parent
# commit on gaussian(seed=0) input; symbolic and numeric agreed there.
GOLDEN = {
    ("house2d", 384, 96, 8): (
        dict(critical_flops=914372.0000000006, critical_words=24232.0,
             critical_messages=2580.0, total_flops=7064575.999999968,
             total_words_sent=71904, total_messages_sent=3758,
             modeled_time=941184.0000000006),
        {'reduce_binomial': 5152, 'bcast_binomial': 5152, 'reduce_scatter': 30800, 'all_gather': 30800},
    ),
    ("house2d", 1024, 64, 64): (
        dict(critical_flops=175731.3333333334, critical_words=19064.0,
             critical_messages=2892.0, total_flops=9247658.666666688,
             total_words_sent=220608, total_messages_sent=16696,
             modeled_time=197687.3333333334),
        {'reduce_binomial': 16864, 'bcast_binomial': 88672, 'reduce_scatter': 57536, 'all_gather': 57536},
    ),
    ("house2d", 130, 50, 6): (
        dict(critical_flops=135380.66666666663, critical_words=9982.0,
             critical_messages=698.0, total_flops=647431.0000000002,
             total_words_sent=12020, total_messages_sent=531,
             modeled_time=145528.6666666667),
        {'reduce_binomial': 3042, 'bcast_binomial': 8978},
    ),
    ("caqr2d", 384, 96, 8): (
        dict(critical_flops=22178338.0, critical_words=60526.0,
             critical_messages=36.0, total_flops=45369264.0,
             total_words_sent=86912, total_messages_sent=74,
             modeled_time=22237539.0),
        {'caqr_panel_lend': 2992, 'tsqr_up': 11008, 'tsqr_down': 21632, 'bcast_binomial': 21632,
         'caqr_panel_return': 2992, 'reduce_scatter': 13328, 'all_gather': 13328},
    ),
    ("caqr2d", 1024, 64, 64): (
        dict(critical_flops=6089184.0, critical_words=51888.0,
             critical_messages=72.0, total_flops=57528064.0,
             total_words_sent=350672, total_messages_sent=567,
             modeled_time=6141144.0),
        {'tsqr_up': 32208, 'tsqr_down': 62464, 'bcast_binomial': 192512, 'reduce_scatter': 31744,
         'all_gather': 31744},
    ),
    ("caqr2d", 130, 50, 6): (
        dict(critical_flops=2205671.0, critical_words=18629.0,
             critical_messages=25.0, total_flops=3280036.0,
             total_words_sent=19257, total_messages_sent=22,
             modeled_time=2223131.0),
        {'tsqr_up': 1428, 'tsqr_down': 2756, 'bcast_binomial': 13951, 'reduce_binomial': 1122},
    ),
    ("house1d", 512, 32, 8): (
        dict(critical_flops=276666.6666666667, critical_words=10304.0,
             critical_messages=768.0, total_flops=2106026.6666666665,
             total_words_sent=16544, total_messages_sent=913,
             modeled_time=287738.6666666667),
        {'reduce_binomial': 3920, 'bcast_binomial': 3920, 'reduce_scatter': 7168, 'gather': 1536},
    ),
    ("house1d", 96, 8, 4): (
        dict(critical_flops=6658.666666666667, critical_words=608.0,
             critical_messages=124.0, total_flops=25274.666666666668,
             total_words_sent=456, total_messages_sent=93,
             modeled_time=7390.666666666667),
        {'reduce_binomial': 324, 'bcast_binomial': 132},
    ),
    ("house1d", 200, 16, 5): (
        dict(critical_flops=43474.333333333336, critical_words=2033.0,
             critical_messages=257.0, total_flops=207117.33333333334,
             total_words_sent=2495, total_messages_sent=264,
             modeled_time=45763.333333333336),
        {'reduce_binomial': 608, 'bcast_binomial': 608, 'reduce_scatter': 1024, 'gather': 255},
    ),
}


def _record(alg, A, P, workers=2):
    machine = Machine(P, backend="parallel", workers=workers)
    factors, _diag, slicer = drive(alg, machine, A, {}, validate=False)
    return machine, factors, slicer


def _numeric(alg, A, P):
    return drive(alg, Machine(P), A, {}, validate=False)[0]


class TestGoldenMetering:
    @pytest.mark.parametrize("backend", ["numeric", "symbolic"])
    @pytest.mark.parametrize("alg,m,n,P", list(GOLDEN))
    def test_report_and_labels_equal_the_parent_commit(self, alg, m, n, P, backend):
        fields, labels = GOLDEN[alg, m, n, P]
        A = (m, n) if backend == "symbolic" else gaussian(m, n, seed=0)
        r = run_qr(alg, A, P, validate=False, backend=backend)
        assert {k: getattr(r.report, k) for k in fields} == fields
        assert r.words_by_label == labels

    def test_recording_meters_like_numeric(self):
        alg, m, n, P = "house2d", 384, 96, 8
        fields, labels = GOLDEN[alg, m, n, P]
        machine, _factors, _slicer = _record(alg, gaussian(m, n, seed=0), P)
        report = machine.report()
        assert {k: getattr(report, k) for k in fields} == fields
        assert machine.words_by_label == labels


class TestPlanBalance:
    def test_no_rank_owns_the_house2d_plan(self):
        machine, _factors, _slicer = _record("house2d", gaussian(384, 96, seed=0), 8)
        owned = Counter(t.rank for t in machine.plan.tasks if t.rank is not None)
        assert len(machine.plan.tasks) <= 11000
        assert max(owned.values()) <= 0.25 * sum(owned.values()), owned

    def test_house1d_column_loop_is_kernels_only(self):
        # 6 183 tasks at the parent; the four column kernels, the
        # all-reduce traffic and the root's T are what is left.
        machine, _factors, _slicer = _record("house1d", gaussian(512, 32, seed=0), 8)
        assert len(machine.plan.tasks) <= 2600
        labels = Counter(t.label for t in machine.plan.tasks)
        assert labels["house1d_stats"] == labels["house1d_scale"] == 32 * 8
        assert labels["house1d_w"] == labels["house1d_upd"] == 31 * 8
        assert not {"divide", "multiply", "matmul", "subtract"} & set(labels)


def _plain_functions(fn):
    """Every plain function reachable through ``functools.partial`` layers."""
    if isinstance(fn, functools.partial):
        for part in (fn.func, *fn.args, *fn.keywords.values()):
            if callable(part):
                yield from _plain_functions(part)
    elif hasattr(fn, "__closure__"):
        yield fn


class TestRecordTimeBinding:
    @pytest.mark.parametrize("alg,m,n,P", [
        ("house2d", 48, 24, 6), ("house1d", 96, 6, 4), ("tsqr", 512, 16, 4),
        ("caqr3d", 256, 64, 8), ("caqr1d", 512, 16, 4), ("mm1d", 256, 8, 4),
        ("applyq", 256, 8, 4),
    ])
    def test_kernels_close_over_nothing(self, alg, m, n, P):
        machine, _factors, _slicer = _record(alg, gaussian(m, n, seed=1), P)
        kernels = [t for t in machine.plan.tasks if t.label.startswith(
            (alg + "_", "panel_", "geqrt", "apply_wy", "unpack_triu", "mm", "caqr1d_M",
             "caqr1d_T12", "pack_triu", "ls_backsolve"))]
        assert kernels
        if alg in ("caqr3d", "caqr1d"):
            assert {"mm1d_partial", "mm1d_local", "caqr1d_M2", "caqr1d_T12", "pack_triu"} <= {
                t.label for t in kernels}
        if alg == "tsqr":
            assert {"geqrt", "apply_wy", "unpack_triu", "tsqr_reconstruct", "tsqr_V"} <= {
                t.label for t in kernels}
        for task in kernels:
            for fn in _plain_functions(task.fn):
                # A loop index read from an enclosing scope would be
                # read at execution time: the last column's.
                assert fn.__closure__ is None, (task.label, fn)

    @pytest.mark.parametrize("alg,m,n,P", [
        ("house2d", 48, 24, 6), ("house2d", 96, 32, 4), ("caqr2d", 48, 24, 6),
        ("house1d", 96, 6, 4), ("tsqr", 512, 16, 4), ("caqr3d", 256, 64, 8),
    ])
    def test_replay_with_a_second_input_equals_serial(self, alg, m, n, P):
        first, second = gaussian(m, n, seed=2), gaussian(m, n, seed=3)
        machine, factors, slicer = _record(alg, first, P)
        got = machine.materialize(factors)
        for g, want in zip(got, _numeric(alg, first, P)):
            np.testing.assert_array_equal(g, want)
        machine.plan.rebind(slicer(second))
        machine.plan.reset()
        machine.engine.execute(machine.plan, outputs=output_tids(factors))
        for g, want in zip(resolve(factors), _numeric(alg, second, P)):
            np.testing.assert_array_equal(g, want)


def _bump(x, y, by):
    """Test kernel: ``x += by`` in place, returns ``x + y`` (fresh)."""
    x += by
    return x + y


class TestUpdatesContract:
    def test_numeric_writes_in_place(self):
        x, y = np.zeros(3), np.ones(3)
        out = Machine(2).kernel(
            1, functools.partial(_bump, by=2.0), (x, y), SymbolicArray((3,)), updates=(0,)
        )
        assert x.tolist() == [2.0] * 3 and out.tolist() == [3.0] * 3

    def test_symbolic_returns_the_meta(self):
        machine = Machine(2, backend="symbolic")
        x, y = SymbolicArray((3,)), SymbolicArray((3,))
        meta = SymbolicArray((3,))
        assert machine.kernel(1, _bump, (x, y), meta, updates=(0,)) is meta
        assert machine.kernel(1, _bump, (x, y), None, updates=(0,)) is None

    def test_engine_rebinds_and_copies_unless_exclusive(self):
        machine = Machine(2, backend="parallel", workers=1)
        leaf = np.zeros(3)
        x = machine.ops.asarray(leaf).astype(np.float64, copy=True)   # fresh, exclusive
        y = machine.ops.asarray(np.ones(3))
        seen = x[:]                       # a consumer: x is now shared
        kern = functools.partial(_bump, by=2.0)
        out1 = machine.kernel(1, kern, (x, y), SymbolicArray((3,)), updates=(0,))
        out2 = machine.kernel(1, kern, (x, y), SymbolicArray((3,)), updates=(0,))
        assert x.ref.task.rank == 1 and x.ref.task is out2.ref.task
        seen, x, out1, out2 = machine.materialize((seen, x, out1, out2))
        assert seen.tolist() == [0.0] * 3          # the shared buffer was copied
        assert x.tolist() == [4.0] * 3             # both writes landed, in order
        assert out1.tolist() == [3.0] * 3 and out2.tolist() == [5.0] * 3
        assert leaf.tolist() == [0.0] * 3          # the input leaf is never written

    def test_engine_writes_in_place_when_exclusive(self):
        machine = Machine(1, backend="parallel", workers=1)
        x = machine.ops.zeros((3,))
        producer = x.ref.task
        machine.kernel(0, functools.partial(_bump, y=1.0, by=2.0), (x,), None, updates=(0,))
        (x,) = machine.materialize((x,))
        assert x is producer.value and x.tolist() == [2.0] * 3

    def test_engine_rejects_eager_update_targets(self):
        from repro.engine import EngineError

        machine = Machine(1, backend="parallel", workers=1)
        with pytest.raises(EngineError, match="lazy"):
            machine.kernel(0, _bump, (np.zeros(3), 1.0, 1.0), None, updates=(0,))
