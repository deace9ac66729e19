"""Tests for TSQR: correctness, structure, distribution contract, costs."""

import numpy as np
import pytest

from repro.backend import SymbolicArray
from repro.dist import BlockRowLayout, CyclicRowLayout, DistMatrix
from repro.machine import DistributionError, Machine
from repro.qr.householder import apply_wy_padded, local_geqrt
from repro.qr.tsqr import (
    _STRIP_BYTES, _leaf_m_arrays, _root_m_arrays, _solve_upper_inplace, _tsqr_v_arrays,
    pack_triu, tsqr, unpack_triu,
)
from repro.qr.validate import qr_diagnostics
from repro.util import balanced_sizes, ilog2
from repro.workloads import gaussian, graded, near_rank_deficient, run_qr


def dist(machine, A, P):
    return DistMatrix.from_global(machine, A, BlockRowLayout(balanced_sizes(A.shape[0], P)))


class TestPackTriu:
    def test_roundtrip(self, rng):
        R = np.triu(rng.standard_normal((5, 5)))
        assert np.allclose(unpack_triu(pack_triu(R), 5), R)

    def test_size(self):
        assert pack_triu(np.triu(np.ones((6, 6)))).size == 21


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("m,n,P", [(8, 2, 1), (16, 4, 2), (40, 5, 5), (64, 8, 7), (96, 12, 8)])
class TestTSQRCorrectness:
    def test_factorization(self, m, n, P, complex_):
        A = gaussian(m, n, seed=m * P, complex_=complex_)
        machine = Machine(P)
        res = tsqr(dist(machine, A, P), root=0)
        d = qr_diagnostics(A, res.V.to_global(), res.T, res.R)
        assert d.ok(1e-10), d

    def test_v_distribution_matches_input(self, m, n, P, complex_):
        A = gaussian(m, n, seed=1, complex_=complex_)
        machine = Machine(P)
        dA = dist(machine, A, P)
        res = tsqr(dA, root=0)
        assert res.V.layout.same_as(dA.layout)

    def test_r_matches_numpy_up_to_phase(self, m, n, P, complex_):
        A = gaussian(m, n, seed=2, complex_=complex_)
        machine = Machine(P)
        res = tsqr(dist(machine, A, P), root=0)
        _, R_np = np.linalg.qr(A)
        assert np.allclose(np.abs(res.R), np.abs(R_np), atol=1e-9)


class TestTSQRHardMatrices:
    def test_graded_matrix(self):
        A = graded(80, 10, cond=1e12, seed=3)
        machine = Machine(4)
        res = tsqr(dist(machine, A, 4), root=0)
        d = qr_diagnostics(A, res.V.to_global(), res.T, res.R)
        # Residual is relative; orthogonality must hold regardless of cond.
        assert d.orthogonality < 1e-10
        assert d.residual < 1e-10

    def test_near_rank_deficient(self):
        A = near_rank_deficient(64, 8, rank=4, seed=4)
        machine = Machine(4)
        res = tsqr(dist(machine, A, 4), root=0)
        d = qr_diagnostics(A, res.V.to_global(), res.T, res.R)
        assert d.orthogonality < 1e-9
        assert d.residual < 1e-9

    def test_orthonormal_input(self):
        """W with orthonormal columns: the reconstruction's own domain."""
        A = np.linalg.qr(gaussian(60, 6, seed=5))[0]
        machine = Machine(3)
        res = tsqr(dist(machine, A, 3), root=0)
        d = qr_diagnostics(A, res.V.to_global(), res.T, res.R)
        assert d.ok(1e-10)
        # R of an orthonormal matrix is (unit-modulus) diagonal.
        off = res.R - np.diag(np.diag(res.R))
        assert np.linalg.norm(off) < 1e-10
        assert np.allclose(np.abs(np.diag(res.R)), 1.0, atol=1e-10)


class TestTSQRDistributionContract:
    def test_requires_enough_rows_per_proc(self):
        machine = Machine(4)
        A = gaussian(10, 4, seed=0)  # 10 rows over 4 procs: some get 2 < n
        dA = dist(machine, A, 4)
        with pytest.raises(DistributionError):
            tsqr(dA, root=0)

    def test_requires_root_owns_leading_rows(self):
        machine = Machine(2)
        A = gaussian(16, 4, seed=0)
        dA = DistMatrix.from_global(machine, A, CyclicRowLayout(16, 2))
        with pytest.raises(DistributionError):
            tsqr(dA, root=0)  # cyclic: root does not own rows 0..3

    def test_root_must_participate(self):
        machine = Machine(3)
        A = gaussian(16, 4, seed=0)
        dA = DistMatrix.from_global(machine, A, BlockRowLayout([8, 8], ranks=[0, 1]))
        with pytest.raises(DistributionError):
            tsqr(dA, root=2)

    def test_noncontiguous_rows_allowed(self):
        """The paper: rows 'not necessarily contiguous'."""
        from repro.dist import ExplicitRowLayout

        machine = Machine(2)
        A = gaussian(12, 3, seed=6)
        # Root owns rows 0,1,2 (leading n) plus 7..11; rank 1 owns 3..6.
        owners = np.array([0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0])
        dA = DistMatrix.from_global(machine, A, ExplicitRowLayout(owners))
        res = tsqr(dA, root=0)
        d = qr_diagnostics(A, res.V.to_global(), res.T, res.R)
        assert d.ok(1e-10)


class TestTSQRCosts:
    """Lemma 5's shape: n^2 log P words, log P messages."""

    def test_message_count_logarithmic(self):
        msgs = []
        for P in (2, 8, 32):
            A = gaussian(32 * P, 8, seed=7)
            machine = Machine(P)
            tsqr(dist(machine, A, P), root=0)
            msgs.append(machine.report().critical_messages)
        # 2 -> 32 procs: log factor 5x, far below linear 16x.
        assert msgs[2] <= msgs[0] * ilog2(32) * 2.0
        assert msgs[2] < 32

    def test_words_track_n2_logp(self):
        for P in (2, 4, 16):
            n = 8
            A = gaussian(16 * P, n, seed=8)
            machine = Machine(P)
            tsqr(dist(machine, A, P), root=0)
            w = machine.report().critical_words
            bound = n * n * max(ilog2(P), 1)
            assert w <= 6.0 * bound, (P, w, bound)

    def test_flops_scale_down_with_p(self):
        m, n = 512, 4
        f = []
        for P in (1, 4, 16):
            machine = Machine(P)
            tsqr(dist(machine, gaussian(m, n, seed=9), P), root=0)
            f.append(machine.report().critical_flops)
        assert f[1] < f[0]
        assert f[2] < f[1]

    def test_single_proc_no_comm(self):
        machine = Machine(1)
        tsqr(dist(machine, gaussian(32, 4, seed=10), 1), root=0)
        rep = machine.report()
        assert rep.critical_words == 0
        assert rep.critical_messages == 0


# ----------------------------------------------------------------------
# The in-place solve  G <- G U^-1
# ----------------------------------------------------------------------

def _solve_case(rng, complex_=False, rows=20, n=4):
    W = rng.standard_normal((rows, n))
    U = np.triu(rng.standard_normal((n, n))) + 4 * np.eye(n)
    if complex_:
        W = W + 1j * rng.standard_normal((rows, n))
        U = U + 1j * np.triu(rng.standard_normal((n, n)))
    from scipy.linalg import solve_triangular

    return np.asfortranarray(W), U, solve_triangular(U, W.T, trans="T", lower=False).T


class TestInPlaceSolve:
    @pytest.mark.parametrize("complex_", [False, True])
    def test_numeric_machine_writes_the_buffer_it_is_given(self, complex_, rng):
        W, U, want = _solve_case(rng, complex_)
        out = Machine(2).kernel(1, _solve_upper_inplace, (W, U), None, updates=(0,))
        assert out is None
        np.testing.assert_allclose(W, want, rtol=0, atol=1e-13)
        if complex_:  # scipy's solver, bit for bit
            np.testing.assert_array_equal(W, want)

    def test_row_slice_is_solved_where_it_lies(self, rng):
        # A row slice of a column-major array (leading dimension > rows).
        W, U, want = _solve_case(rng)
        head = W[:4].copy()
        _solve_upper_inplace(W[4:], U)
        np.testing.assert_array_equal(W[:4], head)
        np.testing.assert_allclose(W[4:], want[4:], rtol=0, atol=1e-13)

    def test_engine_leaves_a_shared_buffer_untouched(self, rng):
        W, U, want = _solve_case(rng)
        before = W.copy(order="F")
        machine = Machine(2, backend="parallel", workers=1)
        lazy = machine.ops.asarray(W)          # an input leaf is never exclusively held
        machine.kernel(1, _solve_upper_inplace, (lazy, U), None, label="tsqr_V", updates=(0,))
        (got,) = machine.materialize((lazy,))
        np.testing.assert_array_equal(W, before)
        assert got.flags.f_contiguous          # the engine's copy kept the memory order
        serial = before.copy(order="F")
        _solve_upper_inplace(serial, U)
        np.testing.assert_array_equal(got, serial)

    def test_symbolic_machine_has_nothing_to_write(self):
        from repro.backend import SymbolicArray

        machine = Machine(2, backend="symbolic")
        W, U = SymbolicArray((20, 4)), SymbolicArray((4, 4))
        assert machine.kernel(1, _solve_upper_inplace, (W, U), None, updates=(0,)) is None


# ----------------------------------------------------------------------
# The folded downsweep: V_p = W_p U^-1 written over the geqrt basis
# ----------------------------------------------------------------------

#: Entrywise bound on the folded kernels' distance from the two-step
#: form they replaced (``W = apply_wy_padded``, then ``W U^-1``), for
#: O(1) entries and ``U`` with diagonal >= 4: the two round differently,
#: by a few ulps of the largest intermediate.
FOLD_ATOL = 1e-12


def _fold_case(rng, rows, n=4, complex_=False):
    """A leaf's ``(V, T, B, U)``: a ``geqrt`` basis and random blocks."""
    A = rng.standard_normal((rows, n))
    B = rng.standard_normal((n, n))
    U = np.triu(rng.standard_normal((n, n))) + 4 * np.eye(n)
    if complex_:
        A = A + 1j * rng.standard_normal((rows, n))
        B = B + 1j * rng.standard_normal((n, n))
        U = U + 1j * np.triu(rng.standard_normal((n, n)))
    pan = local_geqrt(Machine(1), 0, A)
    return pan.V, pan.T, B, U


def _two_step(V, T, B, U):
    """The replaced pair: ``W = (I - V T V^H) [B; 0]``, then ``W U^-1``."""
    from scipy.linalg import solve_triangular

    W = apply_wy_padded(Machine(1), 0, V, T, B)
    return solve_triangular(U, W.T, trans="T", lower=False).T


def _fold(machine, V, T, B, U, L=None):
    """The new pair on ``machine``: ``apply_wy``, then ``tsqr_V`` on ``V``.

    A leaf without ``L``, the root with it; returns ``tsqr_V``'s result
    and the root's ``X``.
    """
    n = B.shape[0]
    dtype = np.result_type(V.dtype, T.dtype, B.dtype)
    nn = SymbolicArray((n, n), dtype)
    if L is None:
        G = machine.kernel(0, _leaf_m_arrays, (V, T, B), SymbolicArray((2 * n, n), dtype))
        X, args = None, (V, G, U)
    else:
        G, X = machine.kernel(0, _root_m_arrays, (V, T, B), (nn, nn))
        args = (V, G, U, L)
    out = machine.kernel(0, _tsqr_v_arrays, args, None, label="tsqr_V", updates=(0, 1))
    return out, X


#: Leaf heights: below one strip, one strip, and strips plus a remainder
#: (a strip is 32 KiB of rows: 1024 at n = 4).
STRIP = _STRIP_BYTES // (4 * 8)
FOLD_ROWS = [20, STRIP + 4, 2 * STRIP + 37]


class TestFoldedSolve:
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("rows", [4, *FOLD_ROWS])
    def test_numeric_machine_writes_the_buffer_it_is_given(self, rows, complex_, rng):
        V, T, B, U = _fold_case(rng, rows, complex_=complex_)
        want = _two_step(V, T, B, U)
        buf = V
        out, _ = _fold(Machine(2), V, T, B, U)
        assert out is None and V is buf
        np.testing.assert_allclose(V, want, rtol=0, atol=FOLD_ATOL)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("rows", [4, *FOLD_ROWS])
    def test_the_root_writes_l_over_its_leading_rows(self, rows, complex_, rng):
        # The root's W starts with X, which the reconstruction factors
        # as X + S = L U; its V is L over the solved rows below X.
        V, T, B, U = _fold_case(rng, rows, complex_=complex_)
        W = apply_wy_padded(Machine(1), 0, V, T, B)
        want = _two_step(V, T, B, U)
        L = np.tril(rng.standard_normal((4, 4)), -1) + np.eye(4)
        _, X = _fold(Machine(1), V, T, B, U, L=L)
        np.testing.assert_allclose(X, W[:4], rtol=0, atol=FOLD_ATOL)
        np.testing.assert_array_equal(V[:4], L)
        np.testing.assert_allclose(V[4:], want[4:], rtol=0, atol=FOLD_ATOL)

    def test_engine_leaves_a_shared_buffer_untouched(self, rng):
        V, T, B, U = _fold_case(rng, 2 * STRIP + 37)
        before = V.copy(order="F")
        machine = Machine(2, backend="parallel", workers=1)
        lazy = machine.ops.asarray(V)          # an input leaf is never exclusively held
        _fold(machine, lazy, *(machine.ops.asarray(x) for x in (T, B, U)))
        (got,) = machine.materialize((lazy,))
        np.testing.assert_array_equal(V, before)
        assert got.flags.f_contiguous          # the engine's copy kept the memory order
        serial = before.copy(order="F")
        _fold(Machine(1), serial, T, B, U)
        np.testing.assert_array_equal(got, serial)

    def test_symbolic_machine_has_nothing_to_write(self):
        machine = Machine(2, backend="symbolic")
        V, G, U = SymbolicArray((20, 4)), SymbolicArray((8, 4)), SymbolicArray((4, 4))
        assert machine.kernel(1, _tsqr_v_arrays, (V, G, U), None, updates=(0, 1)) is None

    @pytest.mark.parametrize("backend", ["numeric", "parallel"])
    def test_a_root_owning_only_the_leading_rows_returns_l(self, backend):
        # V's root block is L alone: no tsqr_V runs there.
        A = gaussian(40, 4, seed=11)
        machine = Machine(3, backend=backend, workers=1)
        dA = DistMatrix.from_global(machine, A, BlockRowLayout([4, 18, 18]))
        res = tsqr(dA, root=0)
        labels = [t.label for t in machine.plan.tasks] if machine.plan else []
        V, T, R = machine.materialize((res.V.to_global(), res.T, res.R))
        d = qr_diagnostics(A, V, T, R)
        assert d.ok(1e-13), d
        assert np.array_equal(np.diag(V[:4]), np.ones(4))
        if labels:
            assert labels.count("tsqr_V") == 2


# ----------------------------------------------------------------------
# Stability on hard inputs (the grid rows for tsqr)
# ----------------------------------------------------------------------

#: Residual and orthogonality bound, in units of float64 epsilon: the
#: folded downsweep reads <= 10 eps on these cells (<= 19 eps at
#: 32768 x 64, P = 8), as the two-step form it replaced did.
STABILITY_C = 50


def _duplicate_columns(m, n):
    A = gaussian(m, n, seed=12)
    A[:, n // 2] = A[:, 0]
    return A


def _zero_column(m, n):
    A = gaussian(m, n, seed=13)
    A[:, n // 2] = 0.0
    return A


STABILITY_INPUTS = {
    "cond 1": lambda m, n: np.linalg.qr(gaussian(m, n, seed=14))[0],
    "cond 1e8": lambda m, n: graded(m, n, cond=1e8, seed=15),
    "cond 1e15": lambda m, n: graded(m, n, cond=1e15, seed=16),
    "zero column": _zero_column,
    "duplicate columns": _duplicate_columns,
}


@pytest.mark.parametrize("backend", ["numeric", "parallel"])
@pytest.mark.parametrize("kind", list(STABILITY_INPUTS))
def test_stability_cells(kind, backend):
    m, n, P = 1024, 16, 8
    A = STABILITY_INPUTS[kind](m, n)
    d = run_qr("tsqr", A, P, backend=backend, workers=2).diagnostics
    eps = np.finfo(np.float64).eps
    assert d.residual <= STABILITY_C * eps, d
    assert d.orthogonality <= STABILITY_C * eps, d


# ----------------------------------------------------------------------
# Golden metering: the kernels changed, the cost model did not
# ----------------------------------------------------------------------

# (alg, m, n, P, knobs) -> (CostReport fields, words_by_label), captured
# at the commit before the TSQR leaf kernels were replaced (geqrf +
# t_from_v, padded apply_wy, scipy solves), on gaussian(seed=0) input;
# numeric, symbolic and parallel agreed there.
GOLDEN = {
    ('tsqr', 512, 16, 4, ()): (
        dict(critical_flops=405304.0, critical_words=2080.0, critical_messages=10.0, total_flops=1271704.0, total_words_sent=1944, total_messages_sent=9, modeled_time=407394.0),
        {'tsqr_up': 408, 'tsqr_down': 768, 'bcast_binomial': 768},
    ),
    ('tsqr', 1024, 8, 8, ()): (
        dict(critical_flops=91368.0, critical_words=792.0, critical_messages=15.0, total_flops=587212.0, total_words_sent=1148, total_messages_sent=21, modeled_time=92175.0),
        {'tsqr_up': 252, 'tsqr_down': 448, 'bcast_binomial': 448},
    ),
    ('tsqr', 192, 24, 3, ()): (
        dict(critical_flops=778356.0, critical_words=3780.0, critical_messages=8.0, total_flops=1399804.0, total_words_sent=2904, total_messages_sent=6, modeled_time=782144.0),
        {'tsqr_up': 600, 'tsqr_down': 1152, 'bcast_binomial': 1152},
    ),
    ('tsqr', 330, 10, 5, ()): (
        dict(critical_flops=103310.0, critical_words=920.0, critical_messages=11.0, total_flops=335535.0, total_words_sent=1020, total_messages_sent=12, modeled_time=104241.0),
        {'tsqr_up': 220, 'tsqr_down': 400, 'bcast_binomial': 400},
    ),
    ('tsqr', 64, 64, 1, ()): (
        dict(critical_flops=2798112.0, critical_words=0.0, critical_messages=0.0, total_flops=2798112.0, total_words_sent=0, total_messages_sent=0, modeled_time=2798112.0),
        {},
    ),
    ('caqr1d', 256, 32, 4, ()): (
        dict(critical_flops=662912.0, critical_words=7232.0, critical_messages=32.0, total_flops=1870640.0, total_words_sent=6192, total_messages_sent=27, modeled_time=670176.0),
        {'tsqr_up': 816, 'tsqr_down': 1536, 'bcast_binomial': 2304, 'reduce_binomial': 1536},
    ),
    ('caqr1d', 512, 16, 8, (('b', 4),)): (
        dict(critical_flops=85532.0, critical_words=2064.0, critical_messages=132.0, total_flops=586424.0, total_words_sent=3480, total_messages_sent=219, modeled_time=87711.0),
        {'tsqr_up': 280, 'tsqr_down': 448, 'bcast_binomial': 672, 'reduce_binomial': 448, 'reduce_scatter': 896, 'gather': 192, 'scatter': 96, 'all_gather': 448},
    ),
    ('caqr1d', 200, 12, 5, ()): (
        dict(critical_flops=31135.0, critical_words=887.0, critical_messages=97.0, total_flops=129156.0, total_words_sent=1137, total_messages_sent=120, modeled_time=31990.0),
        {'tsqr_up': 96, 'tsqr_down': 144, 'bcast_binomial': 216, 'reduce_binomial': 144, 'reduce_scatter': 288, 'gather': 70, 'scatter': 35, 'all_gather': 144},
    ),
    ('caqr3d', 256, 64, 8, (('delta', 0.5),)): (
        dict(critical_flops=828866.0, critical_words=88754.0, critical_messages=482.0, total_flops=4127968.0, total_words_sent=251236, total_messages_sent=1216, modeled_time=917684.0),
        {'gather': 9856, 'scatter': 15424, 'tsqr_up': 1440, 'tsqr_down': 2560, 'bcast_binomial': 3712, 'reduce_scatter': 21760, 'all_gather': 16000, 'alltoall_round0': 59391, 'alltoall_round1': 59395, 'alltoall_round2': 59394, 'reduce_binomial': 2304},
    ),
    ('caqr3d', 128, 32, 4, (('b', 8), ('bstar', 4))): (
        dict(critical_flops=158624.0, critical_words=36800.0, critical_messages=540.0, total_flops=497136.0, total_words_sent=61872, total_messages_sent=738, modeled_time=195964.0),
        {'gather': 512, 'scatter': 1024, 'tsqr_up': 240, 'tsqr_down': 384, 'bcast_binomial': 576, 'reduce_binomial': 384, 'alltoall_round0': 27648, 'alltoall_round1': 27648, 'reduce_scatter': 2304, 'all_gather': 1152},
    ),
    ('caqr3d', 192, 24, 6, ()): (
        dict(critical_flops=132146.0, critical_words=8463.0, critical_messages=172.0, total_flops=541036.0, total_words_sent=9888, total_messages_sent=279, modeled_time=140690.0),
        {'gather': 1848, 'scatter': 2940, 'tsqr_up': 420, 'tsqr_down': 720, 'bcast_binomial': 720, 'reduce_scatter': 2160, 'all_gather': 1080},
    ),
}


class TestGoldenMetering:
    @pytest.mark.parametrize("backend", ["numeric", "symbolic", "parallel"])
    @pytest.mark.parametrize("alg,m,n,P,knobs", list(GOLDEN))
    def test_report_and_labels_equal_the_parent_commit(self, alg, m, n, P, knobs, backend):
        fields, labels = GOLDEN[alg, m, n, P, knobs]
        A = (m, n) if backend == "symbolic" else gaussian(m, n, seed=0)
        extra = {"workers": 2} if backend == "parallel" else {}
        r = run_qr(alg, A, P, validate=False, backend=backend, **extra, **dict(knobs))
        assert {k: getattr(r.report, k) for k in fields} == fields
        assert r.words_by_label == labels
