"""Test-matrix generators for examples, tests, and benchmarks.

The paper's algorithms are direct (not iterative), so conditioning does
not change the cost; it *does* stress numerical claims -- the tsqr
reconstruction's stability is exactly why [BDG+15] exists.  The
generators cover the standard stress cases.

Paper anchor: Section 8 (test matrices).
"""

from __future__ import annotations

import numpy as np


def gaussian(m: int, n: int, seed: int = 0, complex_: bool = False) -> np.ndarray:
    """I.i.d. standard normal entries (well-conditioned with high probability)."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    if complex_:
        A = A + 1j * rng.standard_normal((m, n))
    return A


def graded(m: int, n: int, cond: float = 1e10, seed: int = 0) -> np.ndarray:
    """Geometrically graded singular values from 1 down to ``1/cond``.

    All ``min(m, n)`` singular values are graded, so wide shapes work too.

    >>> np.round(np.linalg.svd(graded(4, 6, cond=100.0), compute_uv=False), 6).tolist()
    [1.0, 0.215443, 0.046416, 0.01]
    """
    k = min(m, n)
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((m, k)))[0]
    V = np.linalg.qr(rng.standard_normal((n, k)))[0]
    s = np.logspace(0, -np.log10(cond), k)
    return (U * s) @ V.T


def near_rank_deficient(m: int, n: int, rank: int | None = None, noise: float = 1e-12, seed: int = 0) -> np.ndarray:
    """Rank-``rank`` matrix plus tiny noise (stresses the sign trick).

    ``rank`` defaults to half of ``min(m, n)`` (at least 1); a rank above
    ``min(m, n)`` cannot be built and is rejected.
    """
    r = rank if rank is not None else max(1, min(m, n) // 2)
    if r > min(m, n):
        raise ValueError(f"rank {r} exceeds min(m, n) of a {m} x {n} matrix")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    return A + noise * rng.standard_normal((m, n))


def column_scaled(m: int, n: int, span: float = 1e8, seed: int = 0) -> np.ndarray:
    """Columns scaled over ``span`` orders of magnitude."""
    rng = np.random.default_rng(seed)
    scales = np.logspace(0, np.log10(span), n)
    return rng.standard_normal((m, n)) * scales


def identity_tall(m: int, n: int) -> np.ndarray:
    """``[I; 0]`` -- already orthonormal; reflectors degenerate to tau=2.

    >>> identity_tall(3, 5)
    Traceback (most recent call last):
    ...
    ValueError: identity_tall needs m >= n, got a 3 x 5 shape
    """
    if m < n:
        raise ValueError(f"identity_tall needs m >= n, got a {m} x {n} shape")
    A = np.zeros((m, n))
    A[np.arange(n), np.arange(n)] = 1.0
    return A


GENERATORS = {
    "gaussian": gaussian,
    "graded": graded,
    "near_rank_deficient": near_rank_deficient,
    "column_scaled": column_scaled,
}
