"""Householder QR kernels (paper Section 2.3).

Reflector generation, panel factorization returning the Householder
representation ``(V, T, R)`` with ``V`` unit lower trapezoidal and ``T``
upper triangular, and metered application of block reflectors.  Every
operation is charged to the simulated machine and is a pure
``*_arrays`` kernel behind a driver that charges the flops and makes
one ``machine.kernel`` call: the backend, not this module, decides
whether it runs now, is recorded as a task, or is skipped.

Two implementations of the panel factorization share one metering:

* the **reference loop** (:func:`larfg` per column plus
  :func:`t_from_v_arrays`): from scratch, real and complex, the test
  oracle;
* the **LAPACK kernel** (:func:`_geqrt_blocked`, real panels of three or
  more columns): ``dgeqrt`` on one column-major copy of the panel --
  the recursive Elmroth-Gustavson QR, i.e. the sequential form of the
  recursion the paper's qr-eg parallelises, BLAS-3 at every width and
  compact-WY ``T`` included -- reached through
  :mod:`repro.backend.lapack`, which calls it without holding the GIL.
  Its output is patched to this library's always-reflect convention,
  and ``tests/test_householder.py`` holds it to the reference loop.

:func:`apply_wy_padded` is the downsweep form of :func:`apply_wy`: the
operand ``[B; 0]`` is never built and the product against its zero rows
never computed, for the same charged flops.

Conventions (verified by the test suite for float64 and complex128):

* reflectors are Hermitian: ``H_j = I - tau_j v_j v_j^H`` with
  ``v_j[0] = 1`` and *real* ``tau_j = 2/|v_j|^2``, annihilating with
  ``H_j x = beta e1`` where ``beta = -sgn(x[0]) |x|`` (complex ``beta``
  for complex data -- the classical Householder convention, identical
  to LAPACK's for real data);
* the panel factorization applies ``H_n ... H_1`` to A, so
  ``A = (H_1 ... H_n) [R; 0] = (I - V T V^H) [R; 0]``
  with ``T`` accumulated from the taus by the Schreiber-Van Loan
  recurrence (the compact WY form);
* ``Q = I - V T V^H`` is exactly unitary up to rounding, and ``T`` is
  reconstructable from ``V`` alone (real taus make the Puglisi formula
  exact), matching the paper's in-place storage claim.

Paper anchor: Section 2.3 (Householder kernels).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.backend import SymbolicArray, dtype_of, lapack
from repro.machine import Machine


def sgn(z) -> complex | float:
    """``z / |z|`` with ``sgn(0) = 1`` (the paper's convention, App. C.2)."""
    a = abs(z)
    if a == 0:
        return 1.0 if not np.iscomplexobj(np.asarray(z)) else 1.0 + 0.0j
    return z / a


def larfg(x: np.ndarray) -> tuple[np.ndarray, complex, complex]:
    """Generate a Householder reflector annihilating ``x[1:]``.

    Returns ``(v, tau, beta)`` with ``v[0] = 1`` such that
    ``H = I - tau v v^H`` is a *Hermitian* unitary reflector with
    ``H x = beta e1`` and ``beta = -sgn(x[0]) |x|`` (the classical
    Householder convention; for real data this coincides with LAPACK's
    dlarfg).  ``tau = 2 / |v|^2`` is always real, which is what makes
    the kernel ``T`` reconstructable from ``V`` alone (Section 2.3's
    in-place claim) -- the zlarfg convention's complex taus are not.
    ``tau = 0`` only for an exactly zero input column.
    """
    x = np.asarray(x)
    n = x.shape[0]
    v = np.zeros_like(x)
    v[0] = 1.0
    alpha = x[0]
    xnorm = float(np.linalg.norm(x[1:])) if n > 1 else 0.0
    if xnorm == 0.0 and alpha == 0.0:
        # Fully zero column: only the identity reflector works.  This is
        # the one case the Puglisi V->T reconstruction cannot represent
        # (documented limitation; requires an exactly-zero pivot column).
        return v, 0.0, alpha
    # Always reflect -- even when x[1:] is already zero -- so every tau is
    # nonzero and T stays reconstructable from V alone.
    beta = -sgn(alpha) * float(np.hypot(abs(alpha), xnorm))
    if np.iscomplexobj(x):
        denom = alpha - beta
    else:
        beta = float(np.real(beta))
        denom = alpha - beta
    if n > 1:
        v[1:] = x[1:] / denom
    tau = 2.0 / (1.0 + xnorm**2 / abs(denom) ** 2)
    return v, tau, beta


@dataclass
class PanelQR:
    """Householder representation of a panel factorization.

    ``V`` is ``m x n`` unit lower trapezoidal, ``T`` is ``n x n`` upper
    triangular, ``R`` is ``n x n`` upper triangular, and
    ``A = (I - V T V^H) [R; 0]``.
    """

    V: np.ndarray
    T: np.ndarray
    R: np.ndarray


#: Narrowest real panel routed to the LAPACK ``geqrt`` kernel; below
#: this the per-column reference loop runs.  Measured on the sizing host
#: (2 vCPU Xeon 2.6 GHz, BLAS pinned to 1, p10 of 200-300 calls, loop vs
#: kernel in ms): n = 1: 0.029 vs 0.042 at 64 rows, 0.033 vs 0.051 at
#: 1024; n = 2: 0.063 vs 0.050 at 64 rows but 0.055 vs 0.067 at 2 x 2;
#: n = 3: 0.088 vs 0.052 at 8 rows, 0.081 vs 0.070 at 3 x 3; n = 8:
#: 0.207 vs 0.059 at 32 rows.  The foreign call and the triangle
#: extraction cost ~0.04 ms whatever the size: one larfg is cheaper, two
#: tie, and from three columns on the kernel won at every shape tried.
_BLOCKED_MIN_N = 3

#: Narrowest kernel whose T accumulation uses the triangular-solve form;
#: below this the Schreiber-Van Loan recurrence loop has less overhead.
_T_SOLVE_MIN_N = 24

#: Rows per strip of :func:`_column_major_copy`: 64 rows x 8 B is one
#: 512 B run per destination column (32 and 128 measured no better).
_COPY_STRIP = 64


def _geqrt_factor_flops(m: int, n: int, update_mask: np.ndarray | None = None) -> float:
    """Flop count of the column-by-column factorization loop.

    Column ``j`` always pays ``3 (m-j)`` (larfg norm + scaling) and,
    when its reflector is nontrivial (``tau != 0``) and trailing columns
    remain, ``4 (m-j) c + 2 c`` with ``c = n-j-1`` for the ``v^H C`` and
    rank-1 update.  ``update_mask`` marks the ``tau != 0`` columns
    (default: all -- the generic-data assumption symbolic mode makes).
    All terms are exact integers in float64, so the vectorized sum is
    bit-identical to the sequential accumulation of the reference loop.
    """
    if n == 0:
        return 0.0
    # Closed form for the generic case (every relevant tau nonzero); all
    # quantities are exact integers, so this matches the sequential
    # accumulation bit for bit.
    if update_mask is None or n <= 1 or bool(update_mask[: n - 1].all()):
        K1 = (n - 1) * n // 2
        K2 = (n - 1) * n * (2 * n - 1) // 6
        total = 3 * (n * m - K1)
        if n > 1:
            # sum_{j<n-1} (n-1-j) (4 (m-j) + 2)  with k = n-1-j
            total += 4 * (m - n + 1) * K1 + 4 * K2 + 2 * K1
        return float(total)
    j = np.arange(n, dtype=np.float64)
    L = float(m) - j
    flops = float(np.sum(3.0 * L))
    c = float(n) - j - 1.0
    update = 4.0 * L * c + 2.0 * c
    mask = np.asarray(update_mask, dtype=bool).copy()
    mask[n - 1 :] = False  # no trailing columns to update
    flops += float(np.sum(update[mask]))
    return flops


def _t_from_v_flops(m: int, n: int, mask: np.ndarray | None = None) -> float:
    """Flop count of the T accumulation (columns with ``tau != 0``)."""
    if n <= 1:
        return 0.0
    if mask is None or bool(mask[1:].all()):
        K1 = (n - 1) * n // 2
        K2 = (n - 1) * n * (2 * n - 1) // 6
        return float(2 * m * K1 + K2 + K1)  # sum_{j>=1} 2mj + j^2 + j
    j = np.arange(n, dtype=np.float64)
    sel = np.asarray(mask, dtype=bool) & (np.arange(n) > 0)
    return float(np.sum((2.0 * m * j + j * j + j)[sel]))


def local_geqrt(
    machine: Machine, p: int, A: np.ndarray, blocked: bool | None = None
) -> PanelQR:
    """Householder QR of a local ``m x n`` (``m >= n``) panel.

    Charges the standard ``~2mn^2`` factorization flops plus the
    ``~mn^2 + n^3/3`` T-accumulation flops on processor ``p``; the
    factorization itself is one ``geqrt`` kernel (:func:`_geqrt_arrays`)
    dispatched through ``machine.kernel``, so the backend decides
    whether it runs now, is recorded as one rank-``p`` task, or is
    skipped (cost-only).  Where element values exist while recording
    (a *concrete* machine) the columns whose reflector is the identity
    (``tau = 0``) are discounted; elsewhere the generic-data closed
    forms are charged.

    ``blocked`` picks the kernel's implementation: LAPACK ``dgeqrt``
    (the default for real panels of width ``>= _BLOCKED_MIN_N``;
    :func:`_geqrt_blocked`) or the column-by-column reference loop (the
    test oracle, and the only path for complex panels, whose
    Hermitian-reflector convention LAPACK does not share).

    A panel holding a NaN or an infinity raises ``ValueError`` (on an
    engine: from inside the panel's task): a non-finite entry always
    reaches a ``tau``, so the ``n x n`` kernel ``T`` is what is checked.

    The same call meters identically on every backend:

    >>> A = np.arange(12.0).reshape(6, 2) ** 2
    >>> reports = []
    >>> for kwargs in ({}, {"backend": "symbolic"}, {"backend": "parallel", "workers": 1}):
    ...     machine = Machine(2, **kwargs)
    ...     pan = local_geqrt(machine, 1, machine.ops.asarray(A))
    ...     reports.append(machine.report())
    >>> reports[0] == reports[1] == reports[2]
    True
    >>> pan.V.shape, pan.T.shape, pan.R.shape
    ((6, 2), (2, 2), (2, 2))
    """
    m, n = A.shape
    if m < n:
        raise ValueError(f"local_geqrt requires m >= n, got {A.shape}")
    dtype = np.result_type(dtype_of(A), np.float64)
    if blocked and dtype != np.float64:
        raise TypeError(
            f"the LAPACK kernel (blocked=True) factors float64 panels only, got {dtype}"
        )
    nn = SymbolicArray((n, n), dtype)
    metas = (SymbolicArray((m, n), dtype), nn, nn, SymbolicArray((n,), np.bool_))
    V, T, R, reflected = machine.kernel(
        p, partial(_geqrt_arrays, blocked=blocked), (A,), metas, label="geqrt"
    )
    mask = reflected if machine.concrete else None  # tau = 0 columns, where known
    machine.compute(p, _geqrt_factor_flops(m, n, update_mask=mask), label="geqrt_factor")
    machine.compute(p, _t_from_v_flops(m, n, mask=mask), label="t_from_v")
    return PanelQR(V=V, T=T, R=R)


def _geqrt_arrays(
    A: np.ndarray, blocked: bool | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pure panel factorization ``(V, T, R, taus != 0)``: the ``geqrt`` kernel.

    ``blocked=None`` picks LAPACK for real panels of width
    ``>= _BLOCKED_MIN_N`` and the reference loop otherwise.
    """
    A = np.asarray(A)
    m, n = A.shape
    dtype = np.result_type(A.dtype, np.float64)
    if blocked is None:
        # LAPACK's kernel is float64 (every real input dtype the library
        # meets promotes to it); complex panels always take the
        # reference loop (Hermitian-reflector convention).
        blocked = dtype == np.float64 and n >= _BLOCKED_MIN_N
    if blocked:
        V, T, R, taus = _geqrt_blocked(A)
    else:
        work = A.astype(dtype, copy=True)
        V = np.zeros((m, n), dtype=dtype)
        taus = np.zeros(n, dtype=dtype)
        for j in range(n):
            v, tau, beta = larfg(work[j:, j])
            V[j:, j] = v
            taus[j] = tau
            work[j, j] = beta
            if j + 1 <= m - 1:
                work[j + 1 :, j] = 0.0
            if tau != 0 and j + 1 < n:
                w = v.conj() @ work[j:, j + 1 :]
                work[j:, j + 1 :] -= np.multiply.outer(tau * v, w)
        T = t_from_v_arrays(V, taus)
        R = np.triu(work[:n, :])
    if not np.isfinite(T).all():  # a non-finite entry always reaches a tau
        raise ValueError(f"array must not contain infs or NaNs (panel of shape {A.shape})")
    return V, T, R, taus != 0


def _column_major_copy(A: np.ndarray) -> np.ndarray:
    """``A`` as a fresh column-major float64 array.

    A tall row-major source is transposed strip by strip.  numpy's
    one-shot strided copy writes one element into each of the ``n``
    destination columns per source row; once those ``n`` lines, ``8m``
    bytes apart, outgrow a cache set it misses on every write (0.91 ms
    at 4096 x 64 on the sizing host, 1.9 ms at 2048 x 256).  Strips of
    ``_COPY_STRIP`` rows keep the destination lines resident (0.24 /
    0.62 ms); below 16 columns or 256 rows the one-shot copy is faster.
    """
    m, n = A.shape
    if n < 16 or m < 4 * _COPY_STRIP or not A.flags.c_contiguous:
        return np.array(A, dtype=np.float64, order="F")
    out = np.empty((m, n), dtype=np.float64, order="F")
    for i in range(0, m, _COPY_STRIP):
        out[i : i + _COPY_STRIP] = A[i : i + _COPY_STRIP]
    return out


def _geqrt_blocked(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """LAPACK-backed real panel factorization: ``(V, T, R, taus)``.

    One column-major copy of the panel, ``dgeqrt`` in place with a
    single block (``nb = n``, i.e. the recursive ``dgeqrt3``: BLAS-3 all
    the way down, where ``geqrf`` below its crossover ``NX = 128`` is
    the BLAS-2 ``geqr2`` sweep), and the copy *is* ``V`` once ``R`` has
    been taken out of its top triangle; ``T`` comes back with the
    factorization, so nothing is rebuilt from ``V``.

    The output is converted to the always-reflect convention of
    :func:`larfg`: LAPACK skips the reflection of an already-reduced
    column (``x[1:] = 0`` gives ``tau = 0``), whereas this library
    reflects with ``v = e1``, ``tau = 2``, negating the column's
    diagonal and its row of R.  The sign flip commutes with all later
    reflectors (they act strictly below row ``j``), so patching ``tau``
    and row ``j`` of R after the fact reproduces the reference
    factorization exactly.  In ``T`` only column ``j`` changes: it is
    :func:`t_from_v`'s recurrence with ``v_j = e_j``, i.e.
    ``T[:j, j] = -2 T[:j, :j] V[j, :j]^T``, and because every later
    ``v_k`` is zero in row ``j`` no other column sees it.  Columns that
    are entirely zero (``beta = 0``) keep ``tau = 0`` in both
    conventions.
    """
    n = A.shape[1]
    V = _column_major_copy(A)
    t = lapack.geqrt(V)
    top = V[:n]
    upper = ~np.tri(n, n, -1, dtype=bool)  # one mask for the three triangles
    T = np.where(upper, t, 0.0)
    R = np.where(upper, top, 0.0)
    np.copyto(top, 0.0, where=upper)
    np.fill_diagonal(top, 1.0)

    taus = np.diag(T).copy()
    if not taus.all():
        skipped = np.flatnonzero((taus == 0) & (np.diag(R) != 0))
        for j in skipped:  # already-reduced columns: flip, don't skip
            taus[j] = T[j, j] = 2.0
            R[j, j:] = -R[j, j:]
            T[:j, j] = -2.0 * (T[:j, :j] @ V[j, :j])
    return V, T, R, taus


def t_from_v_arrays(V: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Pure T accumulation: :func:`t_from_v`'s kernel.

    Solves the Schreiber-Van Loan recurrence ``T[:j, j] = -taus[j] *
    T[:j, :j] (V[:, :j]^H v_j)``, ``T[j, j] = taus[j]`` in blocked form:
    with ``G = V^H V``, ``S = triu(G, 1)`` and ``D = diag(taus)`` the
    recurrence is exactly ``T (I + S D) = D``, one gemm plus one
    triangular solve.
    """
    n = V.shape[1]
    taus = np.asarray(taus)
    if n < _T_SOLVE_MIN_N:  # tiny kernels: the recurrence beats the solver call
        T = np.zeros((n, n), dtype=V.dtype)
        for j in range(n):
            tau = taus[j]
            T[j, j] = tau
            if j > 0 and tau != 0:
                u = V[:, :j].conj().T @ V[:, j]
                T[:j, j] = -tau * (T[:j, :j] @ u)
        return T
    from scipy.linalg import solve_triangular

    G = V.conj().T @ V
    M = np.eye(n, dtype=V.dtype) + np.triu(G, 1) * taus[None, :]
    # T M = D  <=>  M^T T^T = D (plain transpose; taus are real).
    T = solve_triangular(M, np.diag(taus), trans="T", lower=False).T
    return np.ascontiguousarray(T)


def t_from_v(machine: Machine, p: int, V: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Accumulate the upper-triangular kernel ``T`` from reflectors.

    One :func:`t_from_v_arrays` kernel on ``p``, charged the reference
    loop's ``~mn^2 + n^3/3`` flops (columns with ``tau = 0`` discounted
    where the values exist while recording).
    """
    m, n = V.shape
    mask = np.asarray(taus) != 0 if machine.concrete else None
    machine.compute(p, _t_from_v_flops(m, n, mask=mask), label="t_from_v")
    meta = SymbolicArray((n, n), dtype_of(V))
    return machine.kernel(p, t_from_v_arrays, (V, taus), meta, label="t_from_v")


def t_from_gram(G: np.ndarray) -> np.ndarray:
    """``T = (triu(G, 1) + diag(diag(G)) / 2)^(-1)`` from the Gram matrix ``G = V^H V`` (Puglisi).

    >>> t_from_gram(np.array([[2.0, 1.0], [1.0, 2.0]])).tolist()
    [[1.0, -1.0], [0.0, 1.0]]
    """
    from scipy.linalg import solve_triangular

    Tinv = np.triu(G, 1) + np.diag(np.diag(G).real) / 2.0
    return solve_triangular(Tinv, np.eye(G.shape[0], dtype=G.dtype), lower=False)


def reconstruct_t_arrays(V: np.ndarray) -> np.ndarray:
    """:func:`reconstruct_t`'s kernel: :func:`t_from_gram` of ``V^H V``."""
    return t_from_gram(V.conj().T @ V)


def reconstruct_t(machine: Machine, p: int, V: np.ndarray) -> np.ndarray:
    """Rebuild ``T`` from ``V`` alone (Puglisi, Section 2.3).

    ``T = (triu(V^H V, 1) + diag(diag(V^H V)) / 2)^(-1)`` -- the unique
    upper-triangular kernel with ``T^{-1} + T^{-H} = V^H V``, which makes
    ``I - V T V^H`` unitary.  This is the paper's observation that ``T``
    need not be stored in-place.
    """
    m, n = V.shape
    meta = SymbolicArray((n, n), dtype_of(V))
    T = machine.kernel(p, reconstruct_t_arrays, (V,), meta, label="reconstruct_t")
    machine.compute(p, Machine.flops_gemm(n, n, m) + n**3 / 3.0, label="reconstruct_t")
    return T


def _apply_wy_flops(m: int, n: int, k: int) -> float:
    """Flops of Eq. 4 evaluated right to left on an ``m x k`` operand."""
    return (
        Machine.flops_gemm(n, k, m) + Machine.flops_gemm(n, k, n)
        + Machine.flops_gemm(m, k, n) + m * k
    )


def _apply_wy_arrays(V: np.ndarray, T: np.ndarray, C: np.ndarray, adjoint: bool) -> np.ndarray:
    """``C - V (T (V^H C))`` (``T^H`` when ``adjoint``): :func:`apply_wy`'s kernel."""
    M1 = V.conj().T @ C
    M2 = (T.conj().T if adjoint else T) @ M1
    return C - V @ M2


def apply_wy(
    machine: Machine,
    p: int,
    V: np.ndarray,
    T: np.ndarray,
    C: np.ndarray,
    adjoint: bool = False,
) -> np.ndarray:
    """Apply ``(I - V T V^H)`` (or its adjoint) to ``C`` on processor ``p``.

    Evaluated right-to-left as the paper prescribes for Eq. 4:
    ``M1 = V^H C``; ``M2 = T M1`` (or ``T^H M1``); ``C - V M2`` -- one
    ``apply_wy`` kernel on ``p``.
    """
    m, n = V.shape
    machine.compute(p, _apply_wy_flops(m, n, C.shape[1]), label="apply_wy")
    meta = SymbolicArray(C.shape, np.result_type(dtype_of(V), dtype_of(T), dtype_of(C)))
    return machine.kernel(
        p, partial(_apply_wy_arrays, adjoint=adjoint), (V, T, C), meta, label="apply_wy"
    )


def _apply_wy_padded_arrays(
    V: np.ndarray, T: np.ndarray, B: np.ndarray, adjoint: bool
) -> np.ndarray:
    """``(I - V T V^H) [B; 0]`` into one fresh array, zeros never formed.

    With ``k = B.shape[0]`` only ``V[:k]`` meets ``B``:
    ``out = -V (T (V[:k]^H B))``, then ``out[:k] += B``.  ``matmul``
    writes the product straight into ``out`` (and releases the GIL);
    ``out`` is column-major like the ``V`` LAPACK produced, which is the
    layout the in-place solve that follows in TSQR is fastest on.
    """
    k = B.shape[0]
    M = (T.conj().T if adjoint else T) @ (V[:k].conj().T @ B)
    np.negative(M, out=M)
    out = np.empty((V.shape[0], B.shape[1]), dtype=M.dtype, order="F")
    np.matmul(V, M, out=out)
    out[:k] += B
    return out


def apply_wy_padded(
    machine: Machine,
    p: int,
    V: np.ndarray,
    T: np.ndarray,
    B: np.ndarray,
    adjoint: bool = False,
) -> np.ndarray:
    """Apply ``(I - V T V^H)`` (or its adjoint) to ``[B; 0]`` on processor ``p``.

    ``B`` is the leading ``k x c`` block of an ``m x c`` operand whose
    other rows are zero -- TSQR's downsweep applies every tree node to
    such a block (Appendix C).  Equal to :func:`apply_wy` on the padded
    operand, and charged **the same flops** (Lemma 5 fixes no constant:
    a cheaper implementation is not a cheaper model), but the padding is
    never built and the ``m x n x c`` product against its zero rows is
    not computed.
    """
    m, n = V.shape
    c = B.shape[1]
    machine.compute(p, _apply_wy_flops(m, n, c), label="apply_wy")
    meta = SymbolicArray((m, c), np.result_type(dtype_of(V), dtype_of(T), dtype_of(B)))
    return machine.kernel(
        p, partial(_apply_wy_padded_arrays, adjoint=adjoint), (V, T, B), meta,
        label="apply_wy",
    )


def explicit_q(V: np.ndarray, T: np.ndarray, n_cols: int | None = None) -> np.ndarray:
    """Leading columns of ``Q = I - V T V^H`` (validation helper; free).

    Returns the ``m x n_cols`` matrix ``Q[:, :n_cols]`` (default: V's
    column count).  Not metered -- tests and examples only.
    """
    m, n = V.shape
    k = n_cols if n_cols is not None else n
    E = np.zeros((m, k), dtype=V.dtype)
    E[np.arange(k), np.arange(k)] = 1.0
    return E - V @ (T @ V[:k, :].conj().T)
