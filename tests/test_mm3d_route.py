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
  nothing that grows with the operands.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import SymbolicArray
from repro.collectives import CommContext, all_to_all_index, all_to_all_two_phase
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
from repro.matmul import Operand, mm3d
from repro.matmul.mm3d import assemble, pack
from repro.matmul.operands import route_faces
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
                packed = [pack(X[layout.rows_of(p.owner)], takes=((0, p.block),))[0] for p in mine]
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
                packed.append(pack(face[sp.start : sp.stop], takes=((0, p.part),))[0])
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
