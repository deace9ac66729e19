"""``mm3d``'s redistributions: a shape-level route, pack/assemble kernels.

Phases 1 and 5 of ``mm3d`` decide *what moves* with index arithmetic on
the layouts (``matmul/operands.py::route_faces``) and *move it* with two
pure kernels dispatched through ``Machine.kernel``
(``matmul/mm3d.py::pack`` / ``assemble``).  Pinned here:

* **golden metering** -- literal ``CostReport`` fields and
  ``words_by_label`` captured at the commit *before* the route replaced
  the per-rectangle ``entries_in_rect`` walk and the all-to-all's
  traffic accounting went to numpy, so "bit-identical" is held against
  numbers and not against the code under change;
* **route invariants** -- every operand entry is routed exactly once,
  a fiber member's pieces fill its balanced share, the closed-form cuts
  equal ``searchsorted`` on the explicitly built position vector (the
  deleted code, rebuilt here as the oracle), and ``assemble(pack(...))``
  reproduces every brick face and output block;
* **two-phase accounting** -- equal to dealing every block chunk by
  chunk and routing the chunks through two index all-to-alls;
* **recording** -- kernel granularity on the engines, no closures, and
  a replayed plan equal to serial numeric bit for bit;
* **shape-only means shape-only** -- a symbolic ``mm3d`` allocates
  nothing that grows with the operands;
* **the route memo** (``matmul/mm3d.py::route_memo``) -- invisible (a
  hit's pieces are a fresh route's, its rounds meter like one item per
  move through the tagged all-to-all, and a miss then a hit of
  ``caqr3d`` agree in report, labels, diagnostics and factors on every
  backend), bounded (a shape stream stays within the budget plus one
  entry, eviction is LRU, an evicted shape rebuilds an identical entry,
  an entry's byte count covers what ``tracemalloc`` sees it keep alive)
  and safe under concurrent callers evicting each other.

The memo is process-global, so CI also runs this file on its own.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import SymbolicArray
from repro.backend.registry import resolve_backend
from repro.collectives import CommContext, all_to_all_index, all_to_all_two_phase
from repro.collectives.alltoall import charge_rounds
from repro.dist import (
    BlockRowLayout,
    CyclicRowLayout,
    DistMatrix,
    ExplicitRowLayout,
    head_layout,
    tail_layout,
)
from repro.engine import QRJob, output_tids, resolve, run_many
from repro.engine.mp import mp_supported
from repro.engine.batch import clear_plan_cache
from repro.machine import Machine
from repro.matmul import Operand, make_grid, mm3d
from repro.matmul.mm3d import Move, assemble, pack, route_memo
from repro.matmul.operands import Lattice, route_faces
from repro.util import balanced_partition, balanced_sizes
from repro.workloads import drive, gaussian, run_qr

from test_panel_kernels import _plain_functions

FIELDS = ("critical_flops", "critical_words", "critical_messages", "total_flops",
          "total_words_sent", "total_messages_sent", "modeled_time")

# (alg, m, n, P, knobs) or ("complex_h", method) -> (CostReport fields,
# words_by_label), from the parent commit on gaussian(seed=0) input;
# numeric, symbolic and parallel agreed there.
GOLDEN = {
    ('caqr3d', 1024, 256, 8, (('delta', 0.5),)): (
        dict(critical_flops=53143876.0, critical_words=1417998.0, critical_messages=482.0,
             total_flops=264697728.0, total_words_sent=4017792, total_messages_sent=1216,
             modeled_time=54555698.0),
        {'gather': 157696, 'scatter': 246784, 'tsqr_up': 21120, 'tsqr_down': 40960,
        'bcast_binomial': 59392, 'reduce_scatter': 348160, 'all_gather': 256000,
        'alltoall_round0': 950270, 'alltoall_round1': 950272, 'alltoall_round2': 950274,
        'reduce_binomial': 36864},
    ),
    ('caqr3d', 256, 64, 8, (('delta', 0.5),)): (
        dict(critical_flops=828866.0, critical_words=88754.0, critical_messages=482.0,
             total_flops=4127968.0, total_words_sent=251236, total_messages_sent=1216,
             modeled_time=917684.0),
        {'gather': 9856, 'scatter': 15424, 'tsqr_up': 1440, 'tsqr_down': 2560, 'bcast_binomial':
        3712, 'reduce_scatter': 21760, 'all_gather': 16000, 'alltoall_round0': 59391,
        'alltoall_round1': 59395, 'alltoall_round2': 59394, 'reduce_binomial': 2304},
    ),
    ('caqr3d', 1000, 130, 12, (('delta', 0.5),)): (
        dict(critical_flops=7888726.0, critical_words=421809.0, critical_messages=710.0,
             total_flops=67616990.0, total_words_sent=1880852, total_messages_sent=2691,
             modeled_time=8306113.0),
        {'gather': 38102, 'scatter': 60911, 'tsqr_up': 12342, 'tsqr_down': 23254,
        'bcast_binomial': 23254, 'reduce_scatter': 175321, 'all_gather': 106673,
        'alltoall_round0': 432229, 'alltoall_round1': 432194, 'alltoall_round2': 288499,
        'alltoall_round3': 288073},
    ),
    ('caqr3d', 200, 48, 6, (('delta', 0.5), ('method', 'index'))): (
        dict(critical_flops=759208.0, critical_words=40344.0, critical_messages=251.0,
             total_flops=2534600.0, total_words_sent=69240, total_messages_sent=432,
             modeled_time=797172.0),
        {'gather': 3360, 'scatter': 5712, 'tsqr_up': 1560, 'tsqr_down': 2880, 'bcast_binomial':
        2880, 'reduce_scatter': 8640, 'all_gather': 4320, 'alltoall_round0': 16992,
        'alltoall_round1': 11520, 'alltoall_round2': 11376},
    ),
    ('caqr3d', 300, 40, 5, (('b', 10), ('bstar', 5))): (
        dict(critical_flops=445540.0, critical_words=75880.0, critical_messages=747.0,
             total_flops=1801040.0, total_words_sent=166780, total_messages_sent=1374,
             modeled_time=521779.0),
        {'gather': 1000, 'scatter': 1700, 'tsqr_up': 480, 'tsqr_down': 800, 'bcast_binomial':
        800, 'reduce_scatter': 5600, 'all_gather': 2800, 'alltoall_round0': 61440,
        'alltoall_round1': 61440, 'alltoall_round2': 30720},
    ),
    ('caqr3d', 512, 128, 16, (('delta', 0.6666666666666666),)): (
        dict(critical_flops=3313765.0, critical_words=387838.0, critical_messages=1596.0,
             total_flops=29085632.0, total_words_sent=2173724, total_messages_sent=7212,
             modeled_time=3701555.0),
        {'gather': 39808, 'scatter': 53696, 'tsqr_up': 5184, 'tsqr_down': 9216,
        'bcast_binomial': 9216, 'reduce_scatter': 171008, 'all_gather': 116224,
        'alltoall_round0': 442361, 'alltoall_round1': 442364, 'alltoall_round2': 442388,
        'alltoall_round3': 442259},
    ),
    ('mm3d', 96, 40, 8, ()): (
        dict(critical_flops=102401.0, critical_words=13280.0, critical_messages=28.0,
             total_flops=305600.0, total_words_sent=31047, total_messages_sent=83,
             modeled_time=115709.0),
        {'alltoall_round0': 9279, 'alltoall_round1': 9283, 'alltoall_round2': 9285,
        'reduce_scatter': 3200},
    ),
    ('mm3d', 96, 40, 8, (('method', 'index'),)): (
        dict(critical_flops=102401.0, critical_words=9721.0, critical_messages=16.0,
             total_flops=305600.0, total_words_sent=17001, total_messages_sent=35,
             modeled_time=112137.0),
        {'alltoall_round0': 4641, 'alltoall_round1': 4560, 'alltoall_round2': 4600,
        'reduce_scatter': 3200},
    ),
    ('mm3d', 130, 24, 6, ()): (
        dict(critical_flops=30069.0, critical_words=7024.0, critical_messages=30.0,
             total_flops=149184.0, total_words_sent=18218, total_messages_sent=81,
             modeled_time=37123.0),
        {'alltoall_round0': 6818, 'alltoall_round1': 4548, 'alltoall_round2': 4548,
        'reduce_scatter': 2304},
    ),
    ('mm3d', 77, 13, 7, (('method', 'index'),)): (
        dict(critical_flops=4396.0, critical_words=1335.0, critical_messages=18.0,
             total_flops=25857.0, total_words_sent=3634, total_messages_sent=54,
             modeled_time=5746.0),
        {'alltoall_round0': 903, 'alltoall_round1': 956, 'alltoall_round2': 930,
        'reduce_scatter': 845},
    ),
    ('complex_h', 'two_phase'): (
        dict(critical_flops=3941.0, critical_words=1607.0, critical_messages=28.0,
             total_flops=15147.0, total_words_sent=3854, total_messages_sent=68,
             modeled_time=5576.0),
        {'alltoall_round0': 1452, 'alltoall_round1': 981, 'alltoall_round2': 962,
        'reduce_scatter': 459},
    ),
    ('complex_h', 'index'): (
        dict(critical_flops=3941.0, critical_words=1316.0, critical_messages=16.0,
             total_flops=15147.0, total_words_sent=2367, total_messages_sent=32,
             modeled_time=5272.0),
        {'alltoall_round0': 684, 'alltoall_round1': 185, 'alltoall_round2': 1039,
        'reduce_scatter': 459},
    ),
}


def _complex_h(backend, method):
    """``A^H B``: complex block-row ``A`` on ranks 1-5, cyclic complex ``B``."""
    machine = Machine(6, backend=backend, workers=2)
    rng = np.random.default_rng(5)
    A = rng.standard_normal((50, 17)) + 1j * rng.standard_normal((50, 17))
    B = rng.standard_normal((50, 9)) + 1j * rng.standard_normal((50, 9))
    dA = DistMatrix.from_global(
        machine, A, BlockRowLayout(balanced_sizes(50, 5), ranks=[1, 2, 3, 4, 5]))
    dB = DistMatrix.from_global(machine, B, CyclicRowLayout(50, 6))
    C = mm3d(Operand(dA, "H"), dB, tail_layout(CyclicRowLayout(20, 4), 3), method=method)
    return machine, machine.materialize(C.to_global()), A.conj().T @ B


class TestGoldenMetering:
    @pytest.mark.parametrize("backend", ["numeric", "symbolic", "parallel"])
    @pytest.mark.parametrize("case", [k for k in GOLDEN if k[0] != "complex_h"], ids=str)
    def test_report_and_labels_equal_the_parent_commit(self, case, backend):
        alg, m, n, P, knobs = case
        fields, labels = GOLDEN[case]
        A = (m, n) if backend == "symbolic" else gaussian(m, n, seed=0)
        r = run_qr(alg, A, P, validate=False, backend=backend, workers=2, **dict(knobs))
        assert {k: getattr(r.report, k) for k in FIELDS} == fields
        assert r.words_by_label == labels

    @pytest.mark.parametrize("backend", ["numeric", "symbolic", "parallel"])
    @pytest.mark.parametrize("method", ["two_phase", "index"])
    def test_complex_conjugate_transposed_operand(self, method, backend):
        fields, labels = GOLDEN["complex_h", method]
        machine, C, want = _complex_h(backend, method)
        report = machine.report()
        assert {k: getattr(report, k) for k in FIELDS} == fields
        assert machine.words_by_label == labels
        if backend != "symbolic":
            np.testing.assert_allclose(C, want, rtol=1e-12, atol=1e-12)


# ----------------------------------------------------------------------
# Route invariants
# ----------------------------------------------------------------------

def _layouts(m):
    cyc, blk = CyclicRowLayout(m, 5), BlockRowLayout(balanced_sizes(m, 4), ranks=[3, 0, 6, 2])
    big_c, big_b = CyclicRowLayout(m + 7, 5), BlockRowLayout(balanced_sizes(m + 7, 3))
    return {
        "cyclic": cyc, "block": blk,
        "head-cyclic": head_layout(big_c, m), "tail-cyclic": tail_layout(big_c, 7),
        "head-block": head_layout(big_b, m), "tail-block": tail_layout(big_b, 7),
    }


def _oracle(layout, op, row_parts, col_parts, ways):
    """The deleted route: explicit positions per (face, source), cut by searchsorted.

    Returns ``{(a, b, source, way): (positions in the face, global (row,
    col) of each entry in operand coordinates)}``.
    """
    out = {}
    for a, rows in enumerate(row_parts):
        for b, cols in enumerate(col_parts):
            W, L = len(cols), len(rows) * len(cols)
            if L == 0:
                continue
            starts = [sp.start for sp in balanced_partition(L, ways)] + [L]
            for src in layout.participants():
                owned = layout.rows_of(src)
                if op == "N":
                    ii = owned[(owned >= rows.start) & (owned < rows.stop)] - rows.start
                    positions = (ii[:, None] * W + np.arange(W)[None, :]).reshape(-1)
                else:
                    kk = owned[(owned >= cols.start) & (owned < cols.stop)] - cols.start
                    positions = (np.arange(len(rows))[:, None] * W + kk[None, :]).reshape(-1)
                cut = np.searchsorted(positions, starts)
                for w in range(ways):
                    if cut[w + 1] > cut[w]:
                        pos = positions[cut[w] : cut[w + 1]]
                        out[a, b, src, w] = (pos, rows.start + pos // W, cols.start + pos % W)
    return out


def _operand_entry(X, op, i, j):
    """Entries ``(i, j)`` of ``op(X)`` for index vectors ``i``, ``j``."""
    if op == "N":
        return X[i, j]
    return X[j, i].conj() if op == "H" else X[j, i]


ROUTE_CASES = [
    (name, op, shape, dims)
    for name in _layouts(1)
    for op, shape, dims in [
        ("N", (23, 9), (3, 2)), ("N", (23, 9), (1, 4)), ("N", (6, 2), (4, 2)),
        ("T", (23, 9), (2, 3)), ("H", (23, 9), (3, 1)), ("H", (9, 2), (2, 5)),
    ]
]


@pytest.mark.parametrize("ways", [1, 3, 4])
@pytest.mark.parametrize("name,op,shape,dims", ROUTE_CASES)
def test_route_equals_the_searchsorted_oracle(name, op, shape, dims, ways):
    stored, other = shape
    layout = _layouts(stored)[name]
    nrows, ncols = (stored, other) if op == "N" else (other, stored)
    row_parts = balanced_partition(nrows, dims[0])
    col_parts = balanced_partition(ncols, dims[1])
    rng = np.random.default_rng(7)
    X = rng.standard_normal((stored, other)) + 1j * rng.standard_normal((stored, other))
    want = _oracle(layout, op, row_parts, col_parts, ways)
    got = {(p.a, p.b, p.owner, p.way): p for p in route_faces(layout, op, row_parts, col_parts, ways)}
    assert list(got) == sorted(want)             # same pieces, in the documented order
    filled = {}
    for key, piece in got.items():
        a, b, src, w = key
        pos, gi, gj = want[key]
        W = len(col_parts[b])
        part = balanced_partition(len(row_parts[a]) * W, ways)[w]
        assert piece.part.start == part.start and piece.block.hi - piece.block.lo == pos.size
        np.testing.assert_array_equal(piece.part.positions() + part.start, pos)
        assert part.start <= pos[0] and pos[-1] < part.stop
        # the block range names the same entries, in the same order
        local = X[layout.rows_of(src)]
        np.testing.assert_array_equal(piece.block.read(local), _operand_entry(X, op, gi, gj))
        filled[a, b, w] = filled.get((a, b, w), 0) + pos.size
    # every fiber member's pieces fill exactly its balanced share
    for a, rows in enumerate(row_parts):
        for b, cols in enumerate(col_parts):
            for w, size in enumerate(balanced_sizes(len(rows) * len(cols), ways)):
                assert filled.get((a, b, w), 0) == size


@settings(max_examples=60, deadline=None)
@given(
    owners=st.lists(st.integers(0, 5), min_size=1, max_size=24),
    other=st.integers(1, 7),
    op=st.sampled_from(["N", "T", "H"]),
    dims=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    ways=st.integers(1, 5),
)
def test_every_entry_is_routed_exactly_once(owners, other, op, dims, ways):
    layout = ExplicitRowLayout(owners)
    stored = len(owners)
    nrows, ncols = (stored, other) if op == "N" else (other, stored)
    row_parts = balanced_partition(nrows, dims[0])
    col_parts = balanced_partition(ncols, dims[1])
    hits = np.zeros((nrows, ncols), dtype=int)
    for p in route_faces(layout, op, row_parts, col_parts, ways):
        rows, cols = row_parts[p.a], col_parts[p.b]
        pos = p.part.positions() + p.part.start
        np.add.at(hits, (rows.start + pos // len(cols), cols.start + pos % len(cols)), 1)
        # ... and the source really owns what it sends
        stored_index = rows.start + pos // len(cols) if op == "N" else cols.start + pos % len(cols)
        assert (layout.owners()[stored_index] == p.owner).all()
    assert (hits == 1).all()


@pytest.mark.parametrize("op", ["N", "T", "H"])
@pytest.mark.parametrize("name", list(_layouts(1)))
def test_assemble_of_pack_reproduces_faces_and_blocks(name, op):
    """Phase 1 rebuilds every face part; phase 5 every output row block."""
    stored, other, dims, ways = 23, 10, (3, 2), 3
    layout = _layouts(stored)[name]
    rng = np.random.default_rng(8)
    X = rng.standard_normal((stored, other)) + 1j * rng.standard_normal((stored, other))
    full = X if op == "N" else (X.conj().T if op == "H" else X.T)
    row_parts = balanced_partition(full.shape[0], dims[0])
    col_parts = balanced_partition(full.shape[1], dims[1])
    pieces = list(route_faces(layout, op, row_parts, col_parts, ways))

    # Phase 1 direction: owners' blocks -> flat face parts.
    for a, rows in enumerate(row_parts):
        for b, cols in enumerate(col_parts):
            face = full[rows.start : rows.stop, cols.start : cols.stop].reshape(-1)
            for w, sp in enumerate(balanced_partition(face.size, ways)):
                mine = [p for p in pieces if (p.a, p.b, p.way) == (a, b, w)]
                packed = [pack(X[layout.rows_of(p.owner)], takes=((p.block,),))[0] for p in mine]
                got = assemble(*packed, puts=tuple(p.part for p in mine),
                               shape=(len(sp),), dtype=X.dtype)
                np.testing.assert_array_equal(got, face[sp.start : sp.stop])

    # Phase 5 direction (as-stored only): flat face parts -> owners' blocks.
    if op == "N":
        for t in layout.participants():
            mine = [p for p in pieces if p.owner == t]
            packed = []
            for p in mine:
                rows, cols = row_parts[p.a], col_parts[p.b]
                face = full[rows.start : rows.stop, cols.start : cols.stop].reshape(-1)
                sp = balanced_partition(face.size, ways)[p.way]
                packed.append(pack(face[sp.start : sp.stop], takes=((p.part,),))[0])
            got = assemble(*packed, puts=tuple(p.block for p in mine),
                           shape=(layout.count(t), other), dtype=X.dtype)
            np.testing.assert_array_equal(got, X[layout.rows_of(t)])


# ----------------------------------------------------------------------
# Two-phase accounting against chunk-by-chunk routing
# ----------------------------------------------------------------------

def _chunkwise(P, blocks):
    """Deal every block explicitly; route the chunks with two index all-to-alls."""
    machine = Machine(P)
    ctx = CommContext.world(machine)
    to_mid = [[] for _ in range(P)]
    to_home = [[] for _ in range(P)]
    for p, q, L in blocks:
        sizes = [len(range((t - p - q) % P, L, P)) for t in range(P)]
        for t, n in enumerate(sizes):
            if n or L >= P:
                to_mid[p].append((t, None, np.zeros(n)))
                to_home[t].append((q, None, np.zeros(n)))
            elif t == q:   # the destination's own chunk travels even when empty
                to_mid[p].append((t, None, np.zeros(0)))
    all_to_all_index(ctx, to_mid)
    all_to_all_index(ctx, to_home)
    return machine


@settings(max_examples=80, deadline=None)
@given(data=st.data(), P=st.integers(2, 9))
def test_two_phase_meters_like_routing_every_chunk(data, P):
    blocks = data.draw(st.lists(
        st.tuples(st.integers(0, P - 1), st.integers(0, P - 1),
                  st.one_of(st.integers(0, P + 1), st.integers(0, 4 * P))),
        max_size=14))
    machine = Machine(P)
    items = [[] for _ in range(P)]
    for p, q, L in blocks:
        items[p].append((q, (p, q, L), np.arange(float(L))))
    got = all_to_all_two_phase(CommContext.world(machine), items)
    want = _chunkwise(P, blocks)
    assert machine.report() == want.report()
    assert machine.words_by_label == want.words_by_label
    # delivery: each destination gets its blocks in (source, list) order
    for q in range(P):
        expect = [(p, qq, L) for p in range(P) for pp, qq, L in blocks if pp == p and qq == q]
        assert [tag for tag, _ in got[q]] == expect
        assert all(arr.size == tag[2] for tag, arr in got[q])


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------

class TestRecording:
    def test_squarish_plan_is_kernel_granular(self):
        # 6 837 tasks at the parent, 4 085 of them mm3d's per-item
        # getitem / setitem / reshape chains.
        machine = Machine(8, backend="parallel", workers=2)
        drive("caqr3d", machine, gaussian(1024, 256, seed=0), {"delta": 0.5}, validate=False)
        assert len(machine.plan.tasks) <= 4600
        kernels = [t for t in machine.plan.tasks if t.label.startswith("alltoall_")]
        assert {t.label for t in kernels} == {"alltoall_pack", "alltoall_assemble"}
        assert all(t.rank is not None for t in kernels)

    @pytest.mark.parametrize("method", ["two_phase", "index"])
    def test_kernels_close_over_nothing(self, method):
        machine = Machine(6, backend="parallel", workers=2)
        drive("mm3d", machine, gaussian(77, 13, seed=1), {"method": method}, validate=False)
        kernels = [t for t in machine.plan.tasks if t.label.startswith("alltoall_")]
        assert kernels
        for task in kernels:
            for fn in _plain_functions(task.fn):
                assert fn.__closure__ is None, (task.label, fn)

    def test_rebound_plan_equals_serial_factor_for_factor(self):
        m, n, P, knobs = 200, 48, 6, {"delta": 0.5}
        first, second = gaussian(m, n, seed=2), gaussian(m, n, seed=3)
        machine = Machine(P, backend="parallel", workers=2)
        factors, _diag, slicer = drive("caqr3d", machine, first, dict(knobs), validate=False)
        got = machine.materialize(factors)
        for g, w in zip(got, drive("caqr3d", Machine(P), first, dict(knobs), validate=False)[0]):
            np.testing.assert_array_equal(g, w)
        machine.plan.rebind(slicer(second))
        machine.plan.reset()
        machine.engine.execute(machine.plan, outputs=output_tids(factors))
        for g, w in zip(resolve(factors),
                        drive("caqr3d", Machine(P), second, dict(knobs), validate=False)[0]):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("backend", ["parallel", "parallel-mp"])
    def test_run_many_replay_equals_serial_bit_for_bit(self, backend):
        if backend == "parallel-mp" and not mp_supported():
            pytest.skip("parallel-mp needs fork + POSIX shared memory")
        m, n, P, knobs = 256, 64, 8, {"delta": 0.5}
        inputs = [gaussian(m, n, seed=s) for s in (2, 3)]
        try:   # job 0 builds the plan, job 1 replays it with new leaves
            got = run_many([QRJob("caqr3d", X, params=dict(knobs)) for X in inputs],
                           P, workers=2, validate=True, backend=backend)
        finally:
            clear_plan_cache()
        for X, job in zip(inputs, got):
            want = run_qr("caqr3d", X, P, validate=True, **knobs)
            assert job.diagnostics == want.diagnostics      # floats, compared exactly
            assert job.diagnostics.ok(1e-10)
            assert job.report == want.report and job.words_by_label == want.words_by_label


# ----------------------------------------------------------------------
# Shape-only means shape-only
# ----------------------------------------------------------------------

def _symbolic_peak_mb(I, K, J=256, P=64):
    machine = Machine(P, backend="symbolic")
    la, lb, out = CyclicRowLayout(I, P), CyclicRowLayout(K, P), CyclicRowLayout(I, P)
    dA = DistMatrix(machine, la, K, {p: SymbolicArray((la.count(p), K)) for p in range(P)})
    dB = DistMatrix(machine, lb, J, {p: SymbolicArray((lb.count(p), J)) for p in range(P)})
    for p in range(P):
        out.rows_of(p)       # layout caches are the caller's, not mm3d's
    tracemalloc.start()
    try:
        mm3d(dA, dB, out)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_symbolic_mm3d_allocates_nothing_operand_sized():
    # 218 MB and 696 MB at the parent (full position vectors per face);
    # what is left is per piece, and the piece count depends on P only.
    base = _symbolic_peak_mb(4096, 4096)
    doubled = _symbolic_peak_mb(8192, 8192)
    assert base < 10.0
    assert doubled < 1.1 * base


# ----------------------------------------------------------------------
# The route memo: invisible, bounded, safe under concurrent callers
# ----------------------------------------------------------------------

def _same_descriptor(a, b):
    if isinstance(a, Lattice):
        return isinstance(b, Lattice) and (a.W, a.lo, a.hi, a.start) == (b.W, b.lo, b.hi, b.start) \
            and np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)
    return a == b


def _same_moves(got, want):
    return len(got) == len(want) and all(
        g[:4] == w[:4] and _same_descriptor(g.take, w.take) and _same_descriptor(g.put, w.put)
        for g, w in zip(got, want)
    )


def _same_route(a, b):
    for pa, pb in ((a.phase1, b.phase1), (a.phase5, b.phase5)):
        assert _same_moves(pa.moves, pb.moves)
        assert pa.rounds == pb.rounds
        assert [(k.src, k.keys, k.members) for k in pa.packs] == \
            [(k.src, k.keys, k.members) for k in pb.packs]
        assert [(k.target, k.rank, k.members, k.meta.shape) for k in pa.assembles] == \
            [(k.target, k.rank, k.members, k.meta.shape) for k in pb.assembles]
    return True


def _symbolic(machine, layout, ncols):
    return DistMatrix(machine, layout, ncols,
                      {p: SymbolicArray((layout.count(p), ncols)) for p in layout.participants()})


def _item_path_machine(P, ranks, phase, alltoall):
    """Meter a phase the per-call way: one item per move through the tagged all-to-all."""
    machine = Machine(P)
    ctx = CommContext(machine, ranks)
    items = [[] for _ in ranks]
    for i, mv in sorted(enumerate(phase.moves), key=lambda e: ctx.group_rank(e[1].src)):
        items[ctx.group_rank(mv.src)].append(
            (ctx.group_rank(mv.dest), i, np.zeros(mv.take.hi - mv.take.lo)))
    alltoall(ctx, items)
    return machine


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    P=st.integers(1, 8),
    shape=st.tuples(st.integers(1, 11), st.integers(1, 11), st.integers(1, 11)),
    op=st.sampled_from(["N", "T", "H"]),
    method=st.sampled_from(["two_phase", "index"]),
)
def test_memo_hit_equals_a_fresh_route_and_meters_like_the_item_path(data, P, shape, op, method):
    I, J, K = shape
    draw_owners = lambda m: data.draw(st.lists(st.integers(0, P - 1), min_size=m, max_size=m))
    la = ExplicitRowLayout(draw_owners(I if op == "N" else K))
    lb = ExplicitRowLayout(draw_owners(K))
    out = ExplicitRowLayout(draw_owners(I))

    def run():
        machine = Machine(P, backend="symbolic")
        dA = _symbolic(machine, la, K if op == "N" else I)
        mm3d(Operand(dA, op), _symbolic(machine, lb, J), out, method=method)
        return machine

    route_memo.clear()
    miss = run()
    [entry] = route_memo.entries()
    hit = run()
    assert route_memo.entries() == [entry]                       # found, not rebuilt
    assert hit.report() == miss.report() and hit.words_by_label == miss.words_by_label

    # The entry's pieces are a fresh route's.
    grid = make_grid(I, J, K, list(range(P)))
    Ip, Jp, Kp = (balanced_partition(x, w) for x, w in ((I, grid.Q), (J, grid.R), (K, grid.S)))
    fresh = [
        Move(p.owner, grid.rank(p.a, p.way, p.b), ("A", p.owner), ("A", p.a, p.b, p.way), p.block, p.part)
        for p in route_faces(la, op, Ip, Kp, grid.R)
    ] + [
        Move(p.owner, grid.rank(p.way, p.b, p.a), ("B", p.owner), ("B", p.a, p.b, p.way), p.block, p.part)
        for p in route_faces(lb, "N", Kp, Jp, grid.Q)
    ]
    assert _same_moves(entry.phase1.moves, fresh)
    fresh = [
        Move(grid.rank(p.a, p.b, p.way), p.owner, (p.a, p.b, p.way), p.owner, p.part, p.block)
        for p in route_faces(out, "N", Ip, Jp, grid.S)
    ]
    assert _same_moves(entry.phase5.moves, fresh)

    # Its rounds meter exactly like routing one item per move; every
    # target gets its moves in (source group rank, move) order.
    ranks = sorted(set(la.participants()) | set(lb.participants()) | set(grid.ranks)
                   | set(out.participants()))
    alltoall = all_to_all_two_phase if method == "two_phase" else all_to_all_index
    for phase in (entry.phase1, entry.phase5):
        want = _item_path_machine(P, ranks, phase, alltoall)
        got = Machine(P)
        charge_rounds(CommContext(got, ranks), phase.rounds)
        assert got.report() == want.report() and got.words_by_label == want.words_by_label
        for a in phase.assembles:
            mine = [i for i, mv in enumerate(phase.moves) if mv.target == a.target]
            assert list(a.members) == sorted(mine, key=lambda i: (ranks.index(phase.moves[i].src), i))


def _caqr3d(backend, A, method):
    machine = Machine(8, backend=backend, workers=2)
    factors, diag_fn, _ = drive("caqr3d", machine, A, {"delta": 0.5, "method": method}, validate=False)
    factors = machine.materialize(factors)
    if backend == "symbolic":
        return machine, [(f.shape, f.dtype) for f in factors], None
    return machine, factors, diag_fn(A, factors)


@pytest.mark.parametrize("backend", ["numeric", "symbolic", "parallel"])
@pytest.mark.parametrize("method", ["two_phase", "index"])
def test_caqr3d_miss_then_hit_is_invisible(method, backend):
    A = resolve_backend(backend).coerce_global(gaussian(256, 64, seed=4))
    route_memo.clear()
    runs, entries = [], []
    for _ in range(2):
        machine, factors, diag = _caqr3d(backend, A, method)
        runs.append((machine.report(), dict(machine.words_by_label), diag, factors))
        entries.append(route_memo.entries())
    assert entries[0] and entries[1] == entries[0]  # the second run only hit
    (r1, w1, d1, f1), (r2, w2, d2, f2) = runs
    assert r1 == r2 and w1 == w2 and d1 == d2
    if backend == "symbolic":
        assert f1 == f2
    else:
        for x, y in zip(f1, f2):
            np.testing.assert_array_equal(x, y)
        assert d1.ok(1e-10)


def test_recorded_kernels_are_the_memo_s_and_close_over_nothing():
    route_memo.clear()
    plans = []
    for _ in range(2):
        machine = Machine(6, backend="parallel", workers=2)
        drive("mm3d", machine, gaussian(77, 13, seed=1), {}, validate=False)
        plans.append([t.fn for t in machine.plan.tasks if t.label.startswith("alltoall_")])
    first, second = plans
    assert first and all(a is b for a, b in zip(first, second))   # shared partials
    for fn in second:
        for plain in _plain_functions(fn):
            assert plain.__closure__ is None


def _shape_stream(n_shapes):
    """Distinct small mm3d shapes: ``C = A^H A`` over a varying P."""
    shapes = [(m, n, P) for P in (3, 4, 5, 6) for m in range(20, 60, 3) for n in (3, 5)]
    return shapes[:n_shapes]


def _mm3d_job(m, n, P, seed=0):
    machine = Machine(P)
    X = gaussian(m, n, seed=seed)
    layout = CyclicRowLayout(m, P)
    dA = DistMatrix.from_global(machine, X, layout)
    C = mm3d(Operand(dA, "H"), dA, head_layout(layout, n))
    np.testing.assert_allclose(C.to_global(), X.T @ X, rtol=1e-12, atol=1e-12)
    return machine


def test_a_stream_of_shapes_stays_within_budget_plus_one_entry(monkeypatch):
    monkeypatch.setattr(route_memo, "budget", 400_000)
    route_memo.clear()
    stream = _shape_stream(56)
    assert len(set(stream)) == len(stream) >= 50
    for shape in stream:
        _mm3d_job(*shape)
        newest = route_memo.entries()[-1]
        assert route_memo.nbytes() <= route_memo.budget + newest.nbytes()
    assert 1 < len(route_memo.entries()) < len(stream)      # evictions happened


def test_eviction_is_least_recently_used(monkeypatch):
    # Four out layouts that differ only by a rotation of their ranks:
    # isomorphic routes, so their entries weigh the same.
    X, P = gaussian(40, 6, seed=2), 4

    def job(k):
        machine = Machine(P)
        layout = CyclicRowLayout(40, P)
        dA = DistMatrix.from_global(machine, X, layout)
        out = CyclicRowLayout(6, P, ranks=[(r + k) % P for r in range(P)])
        mm3d(Operand(dA, "T"), dA, out)
        return route_memo.entries()[-1]

    route_memo.clear()
    e0, e1, e2 = job(0), job(1), job(2)
    assert e0.nbytes() == e1.nbytes() == e2.nbytes()
    monkeypatch.setattr(route_memo, "budget", 3 * e0.nbytes())
    assert job(0) is e0                                         # a hit refreshes e0
    e3 = job(3)
    assert route_memo.entries() == [e2, e0, e3]                 # e1 was the oldest


def test_an_evicted_shape_rebuilds_an_identical_entry(monkeypatch):
    monkeypatch.setattr(route_memo, "budget", 1)           # keep only the newest
    route_memo.clear()
    first = _mm3d_job(50, 7, 5)
    [before] = route_memo.entries()
    _mm3d_job(41, 4, 6)
    assert before not in route_memo.entries()
    again = _mm3d_job(50, 7, 5)
    [after] = route_memo.entries()
    assert after is not before and _same_route(after, before)
    assert again.report() == first.report() and again.words_by_label == first.words_by_label


def _retained_by_entry(backend):
    """(bytes the entry accounts for, bytes freed when the memo drops it)."""
    route_memo.clear()
    gc.collect()
    tracemalloc.start()
    try:
        machine = Machine(6, backend=backend, workers=2)
        A = resolve_backend(backend).coerce_global(gaussian(90, 20, seed=3))
        factors, _diag, _slicer = drive("mm3d", machine, A, {}, validate=False)
        machine.materialize(factors)        # engines expand index vectors here
        del machine, factors
        gc.collect()
        [entry] = route_memo.entries()
        accounted = entry.nbytes()
        del entry
        held = tracemalloc.get_traced_memory()[0]
        route_memo.clear()
        gc.collect()
        return accounted, held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("backend", ["numeric", "symbolic", "parallel"])
def test_entry_bytes_cover_what_the_entry_keeps_alive(backend):
    accounted, freed = _retained_by_entry(backend)
    assert freed <= accounted <= 2 * freed


def test_concurrent_callers_under_a_tiny_budget_equal_serial(monkeypatch):
    """Threads record and run caqr3d on one shape and on distinct shapes
    while every insertion evicts every other entry."""
    shapes = [(256, 64), (200, 48), (128, 32)]
    inputs = {s: gaussian(*s, seed=11) for s in shapes}
    want = {}
    for s, X in inputs.items():
        machine, factors, diag = _caqr3d("numeric", X, "two_phase")
        want[s] = (machine.report(), factors)
    monkeypatch.setattr(route_memo, "budget", 1)
    jobs = [(backend, s) for s in shapes + [shapes[0]] * 3 for backend in ("numeric", "parallel")]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [(s, pool.submit(_caqr3d, b, inputs[s], "two_phase")) for b, s in jobs]
            got = [(s, f.result(timeout=300)) for s, f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == len(jobs)
    for s, (machine, factors, _diag) in got:
        report, expect = want[s]
        assert machine.report() == report
        for x, y in zip(factors, expect):
            np.testing.assert_array_equal(x, y)
    assert len(route_memo.entries()) == 1
