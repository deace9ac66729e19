"""Tests for the Householder kernels: larfg, geqrt, T accumulation, WY.

The LAPACK-backed kernel (``blocked=True``) is held to the per-column
reference loop (``blocked=False``) here: same factors to rounding, same
metered flops per label, on generic and on degenerate panels; so are
the ``[B; 0]`` apply against :func:`apply_wy` on the padded operand and
the ``repro.backend.lapack`` entry points against their checks.
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import SymbolicArray, lapack
from repro.machine import Machine
from repro.qr import householder
from repro.qr.householder import (
    apply_wy,
    apply_wy_padded,
    explicit_q,
    larfg,
    local_geqrt,
    reconstruct_t,
    sgn,
    t_from_v,
)


def random_matrix(rng, m, n, complex_=False):
    A = rng.standard_normal((m, n))
    if complex_:
        A = A + 1j * rng.standard_normal((m, n))
    return A


class TestSgn:
    def test_positive(self):
        assert sgn(3.0) == 1.0

    def test_negative(self):
        assert sgn(-2.0) == -1.0

    def test_zero_is_one(self):
        assert sgn(0.0) == 1.0

    def test_complex_unit_modulus(self):
        z = sgn(3 + 4j)
        assert abs(abs(z) - 1.0) < 1e-15
        assert np.isclose(z, (3 + 4j) / 5)


class TestLarfg:
    def test_annihilates_real(self, rng):
        x = rng.standard_normal(7)
        v, tau, beta = larfg(x)
        H = np.eye(7) - tau * np.outer(v, v)
        y = H @ x
        assert np.isclose(y[0], beta)
        assert np.allclose(y[1:], 0, atol=1e-13)

    def test_annihilates_complex_hermitian(self, rng):
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        v, tau, beta = larfg(x)
        H = np.eye(5) - tau * np.outer(v, v.conj())
        assert np.allclose(H, H.conj().T)  # Hermitian reflector
        y = H @ x
        assert np.isclose(y[0], beta)
        assert np.allclose(y[1:], 0, atol=1e-13)

    def test_tau_always_real(self, rng):
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        _v, tau, _beta = larfg(x)
        assert np.imag(tau) == 0

    def test_beta_sign_flipped(self, rng):
        x = np.array([2.0, 1.0, 1.0])
        _v, _tau, beta = larfg(x)
        assert beta < 0  # opposite sign of x[0]
        assert np.isclose(abs(beta), np.linalg.norm(x))

    def test_v_unit_first_entry(self, rng):
        v, _tau, _beta = larfg(rng.standard_normal(4))
        assert v[0] == 1.0

    def test_already_reduced_still_reflects(self):
        # x[1:] = 0 must give tau != 0 so T stays reconstructable.
        v, tau, beta = larfg(np.array([3.0, 0.0, 0.0]))
        assert tau == 2.0
        assert beta == -3.0

    def test_zero_vector_identity(self):
        v, tau, beta = larfg(np.zeros(3))
        assert tau == 0.0
        assert beta == 0.0

    def test_length_one(self):
        v, tau, beta = larfg(np.array([-5.0]))
        assert beta == 5.0  # flips sign
        assert tau == 2.0

    def test_reflector_unitary(self, rng):
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v, tau, _ = larfg(x)
        H = np.eye(6) - tau * np.outer(v, v.conj())
        assert np.allclose(H.conj().T @ H, np.eye(6), atol=1e-13)


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("m,n", [(1, 1), (5, 3), (8, 8), (20, 4), (64, 16)])
class TestLocalGeqrt:
    def test_factorization(self, m, n, complex_, rng):
        mach = Machine(1)
        A = random_matrix(rng, m, n, complex_)
        pan = local_geqrt(mach, 0, A)
        Q = explicit_q(pan.V, pan.T)
        assert np.linalg.norm(A - Q @ pan.R) / np.linalg.norm(A) < 1e-13

    def test_orthogonality(self, m, n, complex_, rng):
        mach = Machine(1)
        pan = local_geqrt(mach, 0, random_matrix(rng, m, n, complex_))
        Q = explicit_q(pan.V, pan.T)
        assert np.linalg.norm(Q.conj().T @ Q - np.eye(n)) < 1e-12

    def test_structure(self, m, n, complex_, rng):
        mach = Machine(1)
        pan = local_geqrt(mach, 0, random_matrix(rng, m, n, complex_))
        assert np.allclose(np.triu(pan.T), pan.T)
        assert np.allclose(np.triu(pan.R), pan.R)
        top = pan.V[:n]
        assert np.allclose(np.tril(top), top)
        assert np.allclose(np.diag(top), 1.0)

    def test_flops_charged(self, m, n, complex_, rng):
        mach = Machine(1)
        local_geqrt(mach, 0, random_matrix(rng, m, n, complex_))
        flops = mach.report().critical_flops
        assert flops > 0
        # within a loose constant of the classical 2mn^2 + T-accumulation
        assert flops < 20 * (m * n**2 + n**3 + m * n + n)


class TestGeqrtValidation:
    def test_wide_matrix_rejected(self, rng):
        with pytest.raises(ValueError):
            local_geqrt(Machine(1), 0, rng.standard_normal((3, 5)))

    def test_matches_numpy_r_up_to_signs(self, rng):
        A = rng.standard_normal((12, 5))
        pan = local_geqrt(Machine(1), 0, A)
        _, R_np = np.linalg.qr(A)
        assert np.allclose(np.abs(pan.R), np.abs(R_np), atol=1e-10)


class TestTAccumulation:
    def test_t_from_v_matches_product_of_reflectors(self, rng):
        mach = Machine(1)
        m, n = 10, 4
        A = rng.standard_normal((m, n))
        pan = local_geqrt(mach, 0, A)
        # Rebuild Q as an explicit product of reflectors.
        Q = np.eye(m)
        for j in range(n):
            v = pan.V[:, j]
            tau = pan.T[j, j]  # diagonal of T is tau
            Q = Q @ (np.eye(m) - tau * np.outer(v, v.conj()))
        assert np.allclose(Q[:, :n], explicit_q(pan.V, pan.T), atol=1e-12)

    def test_reconstruct_t_equals_accumulated(self, rng):
        mach = Machine(1)
        for complex_ in (False, True):
            pan = local_geqrt(mach, 0, random_matrix(rng, 15, 6, complex_))
            T2 = reconstruct_t(mach, 0, pan.V)
            assert np.allclose(T2, pan.T, atol=1e-9)

    def test_puglisi_identity(self, rng):
        """T^{-1} + T^{-H} = V^H V characterizes the kernel."""
        mach = Machine(1)
        pan = local_geqrt(mach, 0, rng.standard_normal((12, 5)))
        Tinv = np.linalg.inv(pan.T)
        G = pan.V.conj().T @ pan.V
        assert np.allclose(Tinv + Tinv.conj().T, G, atol=1e-10)

    def test_t_from_v_zero_tau_skipped(self):
        mach = Machine(1)
        V = np.eye(4, 2)
        T = t_from_v(mach, 0, V, np.zeros(2))
        assert np.allclose(T, 0)


class TestApplyWY:
    def test_forward_then_adjoint_is_identity(self, rng):
        mach = Machine(1)
        pan = local_geqrt(mach, 0, rng.standard_normal((9, 4)))
        C = rng.standard_normal((9, 3))
        out = apply_wy(mach, 0, pan.V, pan.T, apply_wy(mach, 0, pan.V, pan.T, C), adjoint=True)
        assert np.allclose(out, C, atol=1e-12)

    def test_adjoint_reduces_to_r(self, rng):
        mach = Machine(1)
        A = rng.standard_normal((10, 4))
        pan = local_geqrt(mach, 0, A)
        out = apply_wy(mach, 0, pan.V, pan.T, A, adjoint=True)
        assert np.allclose(out[:4], pan.R, atol=1e-12)
        assert np.allclose(out[4:], 0, atol=1e-12)

    def test_charges_flops(self, rng):
        mach = Machine(1)
        pan = local_geqrt(mach, 0, rng.standard_normal((6, 2)))
        before = mach.report().critical_flops
        apply_wy(mach, 0, pan.V, pan.T, rng.standard_normal((6, 5)))
        assert mach.report().critical_flops > before


class TestExplicitQ:
    def test_leading_columns_orthonormal(self, rng):
        pan = local_geqrt(Machine(1), 0, rng.standard_normal((14, 5)))
        Q = explicit_q(pan.V, pan.T, 3)
        assert Q.shape == (14, 3)
        assert np.allclose(Q.conj().T @ Q, np.eye(3), atol=1e-12)


# ----------------------------------------------------------------------
# The LAPACK kernel against the reference loop
# ----------------------------------------------------------------------

EPS = np.finfo(np.float64).eps
NB, NT = householder._BLOCKED_MIN_N, householder._T_SOLVE_MIN_N

PANEL_KINDS = ("generic", "zero_column", "R_over_zero", "I_over_zero", "all_zero",
               "stacked_triangles")


def make_panel(kind, m, n, rng):
    """An ``m x n`` panel of the named structure (``m >= n``)."""
    A = rng.standard_normal((m, n))
    if kind == "zero_column":
        A[:, n // 2] = 0.0
    elif kind == "R_over_zero":
        A = np.vstack([np.triu(A[:n]), np.zeros((m - n, n))])
    elif kind == "I_over_zero":
        A = np.vstack([np.eye(n), np.zeros((m - n, n))])
    elif kind == "all_zero":
        A = np.zeros((m, n))
    elif kind == "stacked_triangles":  # a TSQR merge: triangles on rows 0.. and n..
        A[:n] = np.triu(A[:n])
        low = A[n:]
        low[:] = np.triu(low)
    return A


def factor(A, blocked):
    """``(PanelQR, [(label, flops), ...])`` of one metered factorization."""
    machine = Machine(1, trace=True)
    pan = local_geqrt(machine, 0, A, blocked=blocked)
    return pan, [(e.label, e.flops) for e in machine.trace if e.kind == "compute"]


def assert_same_factorization(A):
    """Kernel == loop: factors to ``c eps |A|``, flops exactly, input intact."""
    before = np.array(A, copy=True)
    fast, fast_flops = factor(A, True)
    ref, ref_flops = factor(A, False)
    np.testing.assert_array_equal(A, before)
    m, n = A.shape
    scale = max(1.0, float(np.abs(before).max(initial=0.0)))
    tol = 40 * max(m, n) * EPS
    np.testing.assert_allclose(fast.V, ref.V, rtol=0, atol=tol)
    np.testing.assert_allclose(fast.T, ref.T, rtol=0, atol=tol)
    np.testing.assert_allclose(fast.R, ref.R, rtol=0, atol=tol * scale)
    assert fast_flops == ref_flops
    for arr in (fast.V, fast.T, fast.R):
        assert arr.dtype == np.float64
    assert np.array_equal(fast.T, np.triu(fast.T)) and np.array_equal(fast.R, np.triu(fast.R))
    return fast


SHAPES = [
    (1, 1), (7, 1), (2, 2), (3, 3), (8, 8), (NT, NT), (40, 40),        # m == n, n = 1
    (10, NB - 1), (10, NB), (10, NB + 1),                                # around _BLOCKED_MIN_N
    (60, NT - 1), (60, NT), (60, NT + 1),                                # around _T_SOLVE_MIN_N
    (33, 7), (300, 16), (520, 32),                                       # strip-copied when tall
]


class TestBlockedKernelConformance:
    @pytest.mark.parametrize("kind", PANEL_KINDS)
    @pytest.mark.parametrize("m,n", SHAPES)
    def test_equals_the_reference_loop(self, kind, m, n, rng):
        fast = assert_same_factorization(make_panel(kind, m, n, rng))
        if kind in ("generic", "R_over_zero", "I_over_zero", "stacked_triangles"):
            # every tau != 0, so T is reconstructable from V alone
            T = reconstruct_t(Machine(1), 0, fast.V)
            np.testing.assert_allclose(fast.T, T, rtol=0, atol=200 * max(m, n) * EPS)

    @pytest.mark.parametrize("m,n", [(12, 5), (64, 32), (300, 20)])
    def test_input_dtype_order_and_writeability(self, m, n, rng):
        A = rng.standard_normal((m, n))
        want, _ = factor(A, True)
        read_only = A.copy()
        read_only.setflags(write=False)
        for variant in (np.asfortranarray(A), read_only, A[::-1][::-1], np.vstack([A, A])[::2]):
            got = assert_same_factorization(variant)
            if np.array_equal(variant, A):
                for k in "VTR":
                    np.testing.assert_array_equal(getattr(got, k), getattr(want, k))
        assert_same_factorization(A.astype(np.float32))
        assert_same_factorization(rng.integers(-5, 6, size=(m, n)))

    def test_already_reduced_columns_are_reflected_not_skipped(self, rng):
        # LAPACK leaves tau = 0 here; the library's convention is tau = 2.
        A = make_panel("R_over_zero", 9, 4, rng)
        pan, _ = factor(A, True)
        np.testing.assert_array_equal(np.diag(pan.T), np.full(4, 2.0))
        np.testing.assert_array_equal(pan.R, -np.triu(A[:4]))
        assert not np.signbit(np.tril(pan.R, -1)).any()  # no -0.0 below the diagonal

    def test_kernel_refuses_complex_and_wide_panels(self, rng):
        with pytest.raises(TypeError, match="float64 panels only"):
            local_geqrt(Machine(1), 0, rng.standard_normal((6, 3)) * 1j, blocked=True)
        for blocked in (None, True, False):
            with pytest.raises(ValueError, match="m >= n"):
                local_geqrt(Machine(1), 0, rng.standard_normal((3, 5)), blocked=blocked)

    @pytest.mark.parametrize("blocked", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_panel_is_refused_with_its_shape(self, bad, blocked, rng):
        A = rng.standard_normal((12, 6))
        A[7, 2] = bad
        with np.errstate(all="ignore"), pytest.raises(
            ValueError, match=r"must not contain infs or NaNs \(panel of shape \(12, 6\)\)"
        ):
            local_geqrt(Machine(1), 0, A, blocked=blocked)

    @given(
        m=st.integers(1, 40), n=st.integers(1, 12), seed=st.integers(0, 2**31 - 1),
        reduced=st.integers(0, 12), zeroed=st.lists(st.integers(0, 11), max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_random_shapes_with_degenerate_columns(self, m, n, seed, reduced, zeroed):
        n = min(n, m)
        A = np.random.default_rng(seed).standard_normal((m, n))
        r = min(reduced, n)
        A[:, :r] = np.vstack([np.triu(A[:r, :r]), np.zeros((m - r, r))])  # reduced prefix
        for j in zeroed:
            A[:, j % n] = 0.0
        assert_same_factorization(A)


class TestApplyWYPadded:
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("m,n,k,c", [(20, 4, 4, 4), (8, 4, 4, 4), (30, 6, 6, 3), (16, 5, 2, 7)])
    def test_equals_apply_wy_on_the_padded_operand(self, m, n, k, c, complex_, adjoint, rng):
        pan = local_geqrt(Machine(1), 0, random_matrix(rng, m, n, complex_))
        B = random_matrix(rng, k, c, complex_)
        padded = np.vstack([B, np.zeros((m - k, c), dtype=B.dtype)])
        ref_m, got_m = Machine(1, trace=True), Machine(1, trace=True)
        want = apply_wy(ref_m, 0, pan.V, pan.T, padded, adjoint=adjoint)
        got = apply_wy_padded(got_m, 0, pan.V, pan.T, B, adjoint=adjoint)
        np.testing.assert_allclose(got, want, rtol=0, atol=50 * m * EPS * np.abs(B).max())
        assert got.shape == want.shape and got.dtype == want.dtype
        assert [(e.label, e.flops) for e in got_m.trace] == [(e.label, e.flops) for e in ref_m.trace]

    def test_symbolic_and_engine_charge_the_same_and_return_the_shape(self, rng):
        pan = local_geqrt(Machine(1), 0, rng.standard_normal((20, 4)))
        B = rng.standard_normal((4, 4))
        numeric = Machine(1)
        want = apply_wy_padded(numeric, 0, pan.V, pan.T, B)
        sym = Machine(1, backend="symbolic")
        meta = apply_wy_padded(
            sym, 0, SymbolicArray((20, 4)), SymbolicArray((4, 4)), SymbolicArray((4, 4))
        )
        assert meta.shape == (20, 4) and meta.dtype == np.float64
        par = Machine(1, backend="parallel", workers=1)
        lazy = apply_wy_padded(par, 0, *(par.ops.asarray(x) for x in (pan.V, pan.T, B)))
        np.testing.assert_array_equal(par.materialize(lazy), want)
        flops = numeric.report().total_flops
        assert sym.report().total_flops == par.report().total_flops == flops


class TestLapackBinding:
    """``repro.backend.lapack``: what is bound, and what is refused."""

    def test_capsules_are_bound_on_this_scipy(self):
        assert lapack.binding("dgeqrt") == "capsule"
        assert lapack.binding("dtrsm") == "capsule"

    def test_missing_or_foreign_capsule_falls_back_to_f2py(self):
        import scipy.linalg.cython_blas as cython_blas

        assert lapack.resolve("dgeqrt", {}) == (None, "f2py")
        assert lapack.resolve("dgeqrt", {"dgeqrt": object()}) == (None, "f2py")
        # a real capsule with another routine's signature is not trusted either
        wrong = {"dgeqrt": cython_blas.__pyx_capi__["dtrsm"]}
        assert lapack.resolve("dgeqrt", wrong) == (None, "f2py")
        fn, how = lapack.resolve("dtrsm", cython_blas.__pyx_capi__)
        assert how == "capsule" and callable(fn)

    def test_f2py_binding_returns_the_same_bits(self, rng, monkeypatch):
        A = np.asfortranarray(rng.standard_normal((40, 6)))
        U = np.asfortranarray(np.triu(rng.standard_normal((6, 6))) + 4 * np.eye(6))
        a1, b1 = A.copy(order="F"), A.copy(order="F")
        t1 = lapack.geqrt(a1)
        lapack.trsm(U, b1[3:])  # a row slice: leading dimension > rows
        monkeypatch.setattr(lapack, "_entry", lambda name: lapack.resolve(name, {}))
        assert lapack.binding("dgeqrt") == "f2py"
        a2, b2 = A.copy(order="F"), A.copy(order="F")
        t2 = lapack.geqrt(a2)
        lapack.trsm(U, b2[3:])
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(np.triu(t1), np.triu(t2))
        np.testing.assert_array_equal(b1, b2)
        np.testing.assert_array_equal(b1[:3], A[:3])

    def test_trsm_variants_equal_scipy(self, rng):
        from scipy.linalg import solve_triangular

        U = np.triu(rng.standard_normal((5, 5))) + 4 * np.eye(5)
        W = rng.standard_normal((30, 5))
        want = solve_triangular(U, W.T, trans="T", lower=False).T  # W U^-1
        for kwargs in (dict(u=np.asfortranarray(U)), dict(u=U.T, trans=True, lower=True)):
            got = np.asfortranarray(W)
            lapack.trsm(b=got, **kwargs)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_every_pointer_hand_off_is_checked_first(self, rng):
        good = np.asfortranarray(rng.standard_normal((6, 3)))
        U = np.asfortranarray(np.triu(rng.standard_normal((3, 3))) + 4 * np.eye(3))
        frozen = good.copy(order="F")
        frozen.setflags(write=False)
        for bad, err in (
            (good.astype(np.float32), TypeError), (np.ascontiguousarray(good), ValueError),
            (frozen, ValueError), (good[::2], ValueError), (good.ravel(), TypeError),
            (good.tolist(), TypeError), (good.T.copy(order="F"), ValueError),  # m < n
        ):
            with pytest.raises(err):
                lapack.geqrt(bad)
        for u, b, err in (
            (U, good.astype(np.float32), TypeError), (U, np.ascontiguousarray(good), ValueError),
            (U, frozen, ValueError), (U[:2, :2], good, ValueError),
            (np.ascontiguousarray(U), good, ValueError),
        ):
            with pytest.raises(err):
                lapack.trsm(u, b)
        assert lapack.geqrt(np.empty((4, 0), order="F")).shape == (0, 0)
        lapack.trsm(U, np.empty((0, 3), order="F"))  # nothing to solve, nothing raised

    def test_nonzero_info_raises(self, rng, monkeypatch):
        proto = lapack._ROUTINES["dgeqrt"][2]

        @proto
        def failing(m, n, nb, a, lda, t, ldt, work, info):
            info[0] = -4

        monkeypatch.setattr(lapack, "_entry", lambda name: (failing, "capsule"))
        with pytest.raises(ValueError, match="dgeqrt failed with info=-4"):
            lapack.geqrt(np.asfortranarray(rng.standard_normal((5, 2))))

    def test_resolution_is_lazy(self):
        # ``import repro`` must not pay for scipy.linalg: binding waits
        # for the first kernel call.
        code = ("import sys, repro, repro.backend.lapack; "
                "assert 'scipy.linalg.cython_lapack' not in sys.modules; "
                "assert 'scipy.linalg' not in sys.modules")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)

    @pytest.mark.parametrize("threads", [2, 4])
    def test_concurrent_leaves_equal_sequential_bit_for_bit(self, threads):
        # No clocks: 8 leaves factored at once must not see each other's
        # T or workspace (both are allocated per call).
        rng = np.random.default_rng(7)
        leaves = [rng.standard_normal((384, 24)) for _ in range(8)]
        want = [householder._geqrt_arrays(A, None) for A in leaves]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                for _ in range(5):
                    got = list(pool.map(lambda A: householder._geqrt_arrays(A, None), leaves))
                    for g, w in zip(got, want):
                        for x, y in zip(g, w):
                            np.testing.assert_array_equal(x, y)
        finally:
            sys.setswitchinterval(old)
