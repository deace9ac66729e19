"""Degenerate inputs get one answer on every backend.

An exactly zero column gives a ``tau = 0`` reflector.  The unblocked
Householder baselines (``house1d``, ``house2d``) leave such a column's
``V`` zero, and the Puglisi ``T`` from the Gram matrix gives it a zero
row and column (as LAPACK's ``dlarft`` does for ``tau = 0``).  Numeric
and parallel must return the same bits, and symbolic must meter like
parallel (both charge the generic-data closed forms).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import resolve_backend
from repro.qr.householder import t_from_gram
from repro.workloads import gaussian, run_qr
from repro.workloads.sweeps import build

#: (algorithm, m, n, P): the shapes the defect was reproduced on.
CASES = [("house1d", 256, 8, 4), ("house2d", 64, 16, 4)]


def _zero_column(m: int, n: int) -> np.ndarray:
    A = gaussian(m, n, seed=3)
    A[:, n // 2] = 0.0
    return A


INPUTS = {"zero column": _zero_column, "all zeros": lambda m, n: np.zeros((m, n))}


def _factors(alg: str, A: np.ndarray, P: int, backend: str):
    """The assembled ``(V, T, R)`` of one validating build, and its result."""
    impl = resolve_backend(backend)
    built, factors = build(alg, impl.coerce_global(A), P, {}, True, impl, workers=2)
    return factors, built.result(A, factors, True)


@pytest.mark.parametrize("kind", sorted(INPUTS))
@pytest.mark.parametrize("alg,m,n,P", CASES)
class TestZeroColumns:
    def test_numeric_and_parallel_agree_bit_for_bit(self, alg, m, n, P, kind):
        A = INPUTS[kind](m, n)
        num, num_res = _factors(alg, A, P, "numeric")
        par, par_res = _factors(alg, A, P, "parallel")
        for a, b in zip(num, par):
            assert np.array_equal(a, b)
        for res in (num_res, par_res):
            assert res.diagnostics.residual < 1e-13
            assert res.diagnostics.orthogonality < 1e-13

    def test_symbolic_meters_like_parallel(self, alg, m, n, P, kind):
        A = INPUTS[kind](m, n)
        par = run_qr(alg, A, P, backend="parallel", workers=2)
        sym = run_qr(alg, (m, n), P, backend="symbolic")
        assert sym.report == par.report


def test_t_from_gram_zero_diagonal_gives_zero_row_and_column():
    G = np.array([[2.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 2.0]])
    T = t_from_gram(G)
    assert np.array_equal(T[1], np.zeros(3)) and np.array_equal(T[:, 1], np.zeros(3))
    keep = [0, 2]
    assert np.array_equal(T[np.ix_(keep, keep)], t_from_gram(G[np.ix_(keep, keep)]))


def test_t_from_gram_generic_input_unchanged():
    from scipy.linalg import solve_triangular

    rng = np.random.default_rng(0)
    V = np.tril(rng.standard_normal((12, 5)))
    G = V.T @ V
    Tinv = np.triu(G, 1) + np.diag(np.diag(G).real) / 2.0
    expect = solve_triangular(Tinv, np.eye(5), lower=False)
    assert np.array_equal(t_from_gram(G), expect)
