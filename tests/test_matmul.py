"""Tests for local mm, grid selection, 1D dmm, and 3D dmm."""

import numpy as np
import pytest

from repro.dist import BlockRowLayout, CyclicRowLayout, DistMatrix
from repro.machine import DistributionError, Machine
from repro.matmul import (
    Grid3D,
    Operand,
    choose_grid_dims,
    cost_mm3d,
    local_mm,
    make_grid,
    mm1d_broadcast,
    mm1d_reduce,
    mm3d,
)
from repro.util import balanced_sizes


class TestLocalMM:
    def test_product(self, rng):
        m = Machine(1)
        A, B = rng.standard_normal((3, 4)), rng.standard_normal((4, 5))
        assert np.allclose(local_mm(m, 0, A, B), A @ B)

    def test_conjugate_transpose(self, rng):
        m = Machine(1)
        A = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        B = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        assert np.allclose(local_mm(m, 0, A, B, conj_a=True), A.conj().T @ B)

    def test_flop_charge(self):
        m = Machine(1)
        local_mm(m, 0, np.ones((2, 3)), np.ones((3, 4)))
        assert m.report().critical_flops == 2 * 4 * (2 * 3 - 1)

    def test_dimension_mismatch(self):
        m = Machine(1)
        with pytest.raises(ValueError):
            local_mm(m, 0, np.ones((2, 3)), np.ones((4, 4)))


class TestGridChoice:
    def test_cube(self):
        Q, R, S = choose_grid_dims(64, 64, 64, 64)
        assert Q == R == S == 4

    def test_product_bounded(self):
        for (I, J, K, P) in [(10, 10, 10, 7), (100, 4, 4, 16), (5, 50, 500, 32), (2, 2, 2, 100)]:
            Q, R, S = choose_grid_dims(I, J, K, P)
            assert Q * R * S <= P
            assert Q <= I and R <= J and S <= K

    def test_skewed_k(self):
        Q, R, S = choose_grid_dims(4, 4, 4096, 16)
        assert S > Q and S > R  # grid follows the long dimension

    def test_more_procs_than_work(self):
        Q, R, S = choose_grid_dims(2, 2, 2, 1000)
        assert (Q, R, S) == (2, 2, 2)

    def test_grid3d_coords(self):
        g = Grid3D(2, 3, 2, tuple(range(12)))
        assert g.rank(0, 0, 0) == 0
        assert g.coord(g.rank(1, 2, 1)) == (1, 2, 1)

    def test_grid3d_fibers_disjoint_cover(self):
        g = Grid3D(2, 2, 3, tuple(range(12)))
        seen = sorted(r for q in range(2) for s in range(3) for r in g.fiber_r(q, s))
        assert seen == list(range(12))

    def test_make_grid_too_small(self):
        with pytest.raises(Exception):
            make_grid(8, 8, 8, [0, 1], dims=(2, 2, 2))


class TestMM1D:
    def test_reduce_case(self, rng):
        m = Machine(4)
        K = 32
        A = rng.standard_normal((K, 5))
        B = rng.standard_normal((K, 3))
        lay = CyclicRowLayout(K, 4)
        C = mm1d_reduce(
            DistMatrix.from_global(m, A, lay), DistMatrix.from_global(m, B, lay), root=0
        )
        assert np.allclose(C, A.T @ B)

    def test_reduce_complex_conjugates(self, rng):
        m = Machine(2)
        K = 8
        A = rng.standard_normal((K, 3)) + 1j * rng.standard_normal((K, 3))
        B = rng.standard_normal((K, 2)) + 1j * rng.standard_normal((K, 2))
        lay = CyclicRowLayout(K, 2)
        C = mm1d_reduce(DistMatrix.from_global(m, A, lay), DistMatrix.from_global(m, B, lay), root=1)
        assert np.allclose(C, A.conj().T @ B)

    def test_reduce_requires_matching_layouts(self, rng):
        m = Machine(2)
        A = DistMatrix.from_global(m, rng.standard_normal((8, 2)), CyclicRowLayout(8, 2))
        B = DistMatrix.from_global(m, rng.standard_normal((8, 2)), BlockRowLayout([4, 4]))
        with pytest.raises(DistributionError):
            mm1d_reduce(A, B, root=0)

    def test_broadcast_case(self, rng):
        m = Machine(3)
        A = rng.standard_normal((12, 4))
        B = rng.standard_normal((4, 6))
        dA = DistMatrix.from_global(m, A, CyclicRowLayout(12, 3))
        C = mm1d_broadcast(dA, B, root=0)
        assert np.allclose(C.to_global(), A @ B)
        assert C.layout.same_as(dA.layout)

    def test_broadcast_dim_mismatch(self, rng):
        m = Machine(2)
        dA = DistMatrix.from_global(m, rng.standard_normal((4, 3)), CyclicRowLayout(4, 2))
        with pytest.raises(DistributionError):
            mm1d_broadcast(dA, np.zeros((5, 2)), root=0)

    def test_single_processor(self, rng):
        m = Machine(1)
        A = rng.standard_normal((6, 3))
        B = rng.standard_normal((6, 2))
        lay = CyclicRowLayout(6, 1)
        C = mm1d_reduce(DistMatrix.from_global(m, A, lay), DistMatrix.from_global(m, B, lay), root=0)
        assert np.allclose(C, A.T @ B)
        assert m.report().critical_words == 0


SHAPES = [(12, 10, 8, 4), (30, 30, 30, 8), (6, 5, 40, 4), (50, 4, 4, 6), (9, 9, 9, 1), (16, 16, 16, 27)]


class TestMM3D:
    @pytest.mark.parametrize("I,J,K,P", SHAPES)
    @pytest.mark.parametrize("method", ["two_phase", "index"])
    def test_product(self, I, J, K, P, method, rng):
        m = Machine(P)
        A = rng.standard_normal((I, K))
        B = rng.standard_normal((K, J))
        C = mm3d(
            DistMatrix.from_global(m, A, CyclicRowLayout(I, P)),
            DistMatrix.from_global(m, B, CyclicRowLayout(K, P)),
            CyclicRowLayout(I, P),
            method=method,
        )
        assert np.allclose(C.to_global(), A @ B)

    def test_transposed_left_operand(self, rng):
        m = Machine(4)
        A = rng.standard_normal((8, 20))
        B = rng.standard_normal((20, 6))
        At = DistMatrix.from_global(m, A.T.copy(), CyclicRowLayout(20, 4))
        C = mm3d(Operand(At, "T"), DistMatrix.from_global(m, B, CyclicRowLayout(20, 4)), CyclicRowLayout(8, 4))
        assert np.allclose(C.to_global(), A @ B)

    def test_conjugate_transposed_operand(self, rng):
        m = Machine(4)
        V = rng.standard_normal((20, 6)) + 1j * rng.standard_normal((20, 6))
        X = rng.standard_normal((20, 4)) + 1j * rng.standard_normal((20, 4))
        dV = DistMatrix.from_global(m, V, CyclicRowLayout(20, 4))
        dX = DistMatrix.from_global(m, X, CyclicRowLayout(20, 4))
        C = mm3d(Operand(dV, "H"), dX, CyclicRowLayout(6, 4))
        assert np.allclose(C.to_global(), V.conj().T @ X)

    def test_unknown_method_is_rejected_before_any_work(self, rng):
        # Used to surface from the first all-to-all, after phase 1 had
        # appended 36 tasks to the caller's plan.
        m = Machine(4, backend="parallel", workers=1)
        dA = DistMatrix.from_global(m, rng.standard_normal((8, 4)), CyclicRowLayout(8, 4))
        dB = DistMatrix.from_global(m, rng.standard_normal((4, 3)), CyclicRowLayout(4, 4))
        before = len(m.plan.tasks)
        with pytest.raises(ValueError, match="unknown all-to-all method 'bogus'"):
            mm3d(dA, dB, CyclicRowLayout(8, 4), method="bogus")
        assert len(m.plan.tasks) == before

    def test_explicit_grid(self, rng):
        m = Machine(8)
        A = rng.standard_normal((16, 16))
        B = rng.standard_normal((16, 16))
        C = mm3d(
            DistMatrix.from_global(m, A, CyclicRowLayout(16, 8)),
            DistMatrix.from_global(m, B, CyclicRowLayout(16, 8)),
            CyclicRowLayout(16, 8),
            dims=(2, 2, 2),
        )
        assert np.allclose(C.to_global(), A @ B)

    def test_output_layout_respected(self, rng):
        m = Machine(4)
        A = rng.standard_normal((10, 6))
        B = rng.standard_normal((6, 4))
        out = BlockRowLayout(balanced_sizes(10, 4))
        C = mm3d(
            DistMatrix.from_global(m, A, CyclicRowLayout(10, 4)),
            DistMatrix.from_global(m, B, CyclicRowLayout(6, 4)),
            out,
        )
        assert C.layout.same_as(out)
        assert np.allclose(C.to_global(), A @ B)

    def test_nonconformable_rejected(self, rng):
        m = Machine(2)
        A = DistMatrix.from_global(m, rng.standard_normal((4, 3)), CyclicRowLayout(4, 2))
        B = DistMatrix.from_global(m, rng.standard_normal((5, 2)), CyclicRowLayout(5, 2))
        with pytest.raises(DistributionError):
            mm3d(A, B, CyclicRowLayout(4, 2))

    def test_wrong_output_m_rejected(self, rng):
        m = Machine(2)
        A = DistMatrix.from_global(m, rng.standard_normal((4, 3)), CyclicRowLayout(4, 2))
        B = DistMatrix.from_global(m, rng.standard_normal((3, 2)), CyclicRowLayout(3, 2))
        with pytest.raises(DistributionError):
            mm3d(A, B, CyclicRowLayout(7, 2))

    def test_bandwidth_beats_1d_for_cubes(self, rng):
        """The [ABG+95] effect: 3D grids move fewer words than 1D grids."""
        n, P = 32, 27
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))

        def run(dims):
            m = Machine(P)
            mm3d(
                DistMatrix.from_global(m, A, CyclicRowLayout(n, P)),
                DistMatrix.from_global(m, B, CyclicRowLayout(n, P)),
                CyclicRowLayout(n, P),
                dims=dims,
            )
            return m.report().critical_words

    # note: both runs include the same row-cyclic <-> brick all-to-alls
        w3d = run((3, 3, 3))
        w1d = run((1, 1, 27))
        assert w3d < w1d

    def test_cost_formula_shape(self):
        c = cost_mm3d(64, 64, 64, 64)
        assert c["flops"] == pytest.approx(2 * 64**3 / 64)
        assert c["words"] == pytest.approx((64**3 / 64) ** (2 / 3))
