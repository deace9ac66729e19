"""TSQR with Householder reconstruction (paper Section 5 and Appendix C).

The [BDG+15] variant the paper's Lemma 5 depends on:

* **upsweep** -- every processor QR-decomposes its local rows, then a
  binomial reduce tree combines R-factors pairwise with local QRs of
  stacked triangles; only packed upper triangles (``n(n+1)/2`` words)
  travel.
* **downsweep** -- the tree of Q-factors is applied to ``n`` identity
  columns, reversing the reduce's communication pattern with ``n^2``-word
  blocks, leaving each processor its slice ``W_p`` of the orthonormal
  factor ``W``.
* **reconstruction** -- the root row-reduces ``X`` (the leading ``n x n``
  of ``W``) with the sign trick ``X + S = LU`` ([BDG+15, Lemma 6.2]; no
  pivoting needed), sets ``T = U S^H L^{-H}``, ``R <- -S^H R``, and
  broadcasts ``U`` so every processor recovers its Householder basis
  rows ``V_p = W_p U^{-1}``.

Costs (Lemma 5): ``gamma (max_p m_p n^2 + n^3 log P) + beta n^2 log P +
alpha log P``.

The ``max_p m_p n^2`` term is three local kernels per processor, and on
real data they stay in one memory order with one allocation each: the
leaf QR is LAPACK's ``dgeqrt`` on a column-major copy of the block
(:func:`repro.qr.householder.local_geqrt`), the downsweep applies each
node to ``[B; 0]`` without forming the zeros, into a column-major
``W_p`` (:func:`repro.qr.householder.apply_wy_padded`), and
``V_p = W_p U^{-1}`` is a right-side ``dtrsm`` in place on ``W_p``
(:func:`_solve_upper_inplace`).  The flops charged are those of the
straightforward formulation -- Lemma 5 fixes no constant.

Every local step -- the QRs, the free :func:`pack_triu` /
:func:`unpack_triu` around each upsweep message, the applications, the
root's reconstruction, the solves -- is a pure function of real arrays
dispatched through ``machine.kernel``; this module never asks which
backend runs it.

The algorithm iterates over ``layout.participants()`` only, so it runs
unchanged on a machine with extra idle ranks -- which is how the
fault-tolerance layer protects it: :func:`repro.faults.run_coded_qr`
parks XOR-checksum copies of the input blocks on spare ranks and
replays a dead rank's tasks from the reconstructed block (see
``docs/fault_tolerance.md``).

Paper anchor: Section 5, Appendix C (TSQR with Householder reconstruction).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from repro.backend import SymbolicArray, lapack
from repro.collectives.binomial import _split
from repro.dist import DistMatrix
from repro.machine import DistributionError
from repro.qr.householder import PanelQR, apply_wy_padded, local_geqrt, sgn


@dataclass
class TSQRResult:
    """Output of :func:`tsqr`: Householder representation ``(V, T, R)``.

    ``V`` (``m x n``, unit lower trapezoidal in its leading rows) is
    distributed like the input; ``T`` and ``R`` (``n x n``) live on the
    root processor only.
    """

    V: DistMatrix
    T: np.ndarray
    R: np.ndarray
    root: int


@lru_cache(maxsize=512)
def _triu_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Memoized ``np.triu_indices``: the tsqr tree packs/unpacks the same
    ``n x n`` triangle at every merge, so recomputing the index arrays
    per hop was a hot path at large ``P``."""
    return np.triu_indices(n)


def pack_triu(R: np.ndarray) -> np.ndarray:
    """Upper triangle of an ``n x n`` matrix as ``n(n+1)/2`` words."""
    return R[_triu_indices(R.shape[0])]


def unpack_triu(packed: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_triu` (free: local unpacking)."""
    R = np.zeros((n, n), dtype=packed.dtype)
    R[_triu_indices(n)] = packed
    return R


def _lu_flops(n: int) -> float:
    """Flops of the reconstruction's LU loop (unconditional per column).

    All terms are exact integers, so the vectorized sum is bit-identical
    to the sequential accumulation of the reference loop.
    """
    j = np.arange(n - 1, dtype=np.float64)
    return float(np.sum(3.0 * (n - j - 1.0) * (n - j)))


def _reconstruct_arrays(
    X: np.ndarray, R_tree: np.ndarray, n: int, dtype
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pure Householder reconstruction ([BDG+15]): ``(U, L, T, R)``.

    ``T = U S^H L^{-H}``;  ``R = -S R_tree``.

    Derivation (fixes a conjugation slip in the paper's App. C.2 for
    complex data): Householder QR of the orthonormal W gives
    ``W = Q_w [R_w; 0]`` with ``R_w = diag(d)`` unitary, so
    ``W + [S; 0] = V (T V_top^H S) =: L U`` with ``S = -R_w``, whence
    ``T = U S^H L^{-H}`` and ``A = Q_w [R_w R_tree; 0]``, i.e. the new
    R-factor is ``R_w R_tree = -S R_tree`` (not ``-S^H R_tree``; they
    agree in the real case the reference implementation targets).
    """
    from scipy.linalg import solve_triangular

    Xhat = X.astype(dtype, copy=True)
    S = np.zeros(n, dtype=dtype)
    Lfac = np.eye(n, dtype=dtype)
    for j in range(n):
        S[j] = sgn(Xhat[j, j])
        Xhat[j, j] += S[j]
        if j + 1 < n:
            Lfac[j + 1 :, j] = Xhat[j + 1 :, j] / Xhat[j, j]
            Xhat[j + 1 :, j + 1 :] -= np.multiply.outer(Lfac[j + 1 :, j], Xhat[j, j + 1 :])
            Xhat[j + 1 :, j] = 0.0
    U = np.triu(Xhat)
    M = solve_triangular(Lfac, np.diag(S), lower=True, unit_diagonal=True)
    T = U @ M.conj().T
    R = -S[:, None] * R_tree
    return U, Lfac, T, R


def _solve_upper_inplace(W: np.ndarray, U: np.ndarray) -> None:
    """``W <- W U^-1`` in place (``U`` upper triangular): the ``tsqr_V`` kernel.

    Real data: a right-side ``dtrsm`` on the column-major ``W`` the
    downsweep produced, against ``U^T`` read through the column-major
    view ``U.T`` of the row-major ``U`` -- no transposed copy going in,
    none coming out, GIL released.  Complex data keeps scipy's solver
    and writes its result back.
    """
    if W.dtype == np.float64 and U.dtype == np.float64:
        lapack.trsm(np.asfortranarray(U.T), W, trans=True, lower=True)
    else:
        from scipy.linalg import solve_triangular

        W[...] = solve_triangular(U, W.T, trans="T", lower=False).T


def check_tsqr_distribution(A: DistMatrix, root: int) -> list[int]:
    """Validate Section 5's distribution requirements; return participants.

    Every participating processor must own at least ``n`` rows (hence
    ``m/n >= P``) and the root must own the ``n`` leading rows.
    """
    n = A.n
    parts = A.layout.participants()
    if root not in parts:
        raise DistributionError(f"root {root} owns no rows of A")
    for p in parts:
        if A.layout.count(p) < n:
            raise DistributionError(
                f"tsqr requires every processor to own >= n={n} rows; "
                f"rank {p} owns {A.layout.count(p)} (need m/n >= P)"
            )
    head = A.layout.owners()[:n]
    if not bool((head == root).all()):
        raise DistributionError(f"root {root} must own the {n} leading rows of A")
    return parts


def tsqr(A: DistMatrix, root: int = 0) -> TSQRResult:
    """QR-decompose a tall-skinny distributed matrix (``m/n >= P``).

    Returns the Householder representation; see :class:`TSQRResult`.
    """
    machine = A.machine
    n = A.n
    parts = check_tsqr_distribution(A, root)
    dtype = np.result_type(A.dtype, np.float64)

    # ------------------------------------------------------------------
    # Upsweep: local QRs, then a binomial reduce tree of stacked-R QRs.
    # ------------------------------------------------------------------
    panels: dict[int, PanelQR] = {p: local_geqrt(machine, p, A.local(p)) for p in parts}
    Rcur: dict[int, np.ndarray] = {p: panels[p].R for p in parts}
    merges: list[tuple[int, int, PanelQR]] = []  # (receiver, sender, merge QR)
    nn = SymbolicArray((n, n), dtype)
    tri = SymbolicArray((n * (n + 1) // 2,), dtype)  # what travels: packed triangles

    def up(members: list[int], r: int) -> None:
        if len(members) == 1:
            return
        mine, other, r2 = _split(members, r)
        up(mine, r)
        up(other, r2)
        packed = machine.kernel(r2, pack_triu, (Rcur.pop(r2),), tri, label="pack_triu")
        packed = machine.transfer(r2, r, packed, label="tsqr_up")
        R2 = machine.kernel(r, partial(unpack_triu, n=n), (packed,), nn, label="unpack_triu")
        stacked = np.vstack([Rcur[r], R2])
        pan = local_geqrt(machine, r, stacked)
        merges.append((r, r2, pan))
        Rcur[r] = pan.R

    up(list(parts), root)
    R_tree = Rcur[root]

    # ------------------------------------------------------------------
    # Downsweep: apply the Q tree to identity columns, reversing the
    # reduce's communication pattern.
    # ------------------------------------------------------------------
    B: dict[int, np.ndarray] = {root: machine.ops.eye(n, dtype=dtype)}
    for r, r2, pan in reversed(merges):
        out = apply_wy_padded(machine, r, pan.V, pan.T, B[r])
        B[r] = out[:n]
        # A row slice of the column-major ``out`` is strided; what is
        # shipped is packed, so the receiver multiplies the same layout
        # on every backend (a process boundary would compact it anyway).
        B[r2] = machine.transfer(r, r2, out[n:].copy(), label="tsqr_down")

    W: dict[int, np.ndarray] = {
        p: apply_wy_padded(machine, p, panels[p].V, panels[p].T, B[p]) for p in parts
    }

    # ------------------------------------------------------------------
    # Householder reconstruction on the root ([BDG+15]).
    # ------------------------------------------------------------------
    X = W[root][:n]  # rows of W at global indices 0..n-1 (root owns them)
    # Closed-form charges (exact integers); the value-dependent LU loop
    # itself is one root kernel -- its branches run on concrete data.
    machine.compute(root, _lu_flops(n), label="tsqr_lu")
    machine.compute(root, float(n) ** 3, label="tsqr_T")
    machine.compute(root, float(n) * n, label="tsqr_R")
    reconstruct = partial(_reconstruct_arrays, n=n, dtype=dtype)
    U, Lfac, T, R = machine.kernel(
        root, reconstruct, (X, R_tree), (nn, nn, nn, nn), label="tsqr_reconstruct"
    )

    # ------------------------------------------------------------------
    # Broadcast U; every processor recovers V_p = W_p U^{-1} (the root's
    # leading n rows are L directly).
    # ------------------------------------------------------------------
    if len(parts) > 1:
        from repro.collectives import CommContext, broadcast_binomial

        ctx = CommContext(machine, parts)
        broadcast_binomial(ctx, parts.index(root), U)

    # The solve runs in place (``updates=``): a numeric machine writes
    # the buffer the downsweep allocated; an engine hands it over when it
    # is exclusively held and an order-preserving copy otherwise.  The
    # root solves only the rows below X, which stays as the
    # reconstruction read it.
    Vblocks: dict[int, np.ndarray] = {}
    for p in parts:
        rows = W[p][n:] if p == root else W[p]
        if rows.shape[0]:
            machine.kernel(
                p, _solve_upper_inplace, (rows, U), None, label="tsqr_V", updates=(0,)
            )
            machine.compute(p, float(rows.shape[0]) * n * n, label="tsqr_V")
        Vblocks[p] = rows
    below = Vblocks[root]
    Vblocks[root] = np.vstack([Lfac, below]) if below.shape[0] else Lfac

    V = DistMatrix(machine, A.layout, n, Vblocks, dtype=dtype)
    return TSQRResult(V=V, T=T, R=R, root=root)
