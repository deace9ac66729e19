"""Iterative (right-looking) qr-eg variants (paper Sections 2.4 and 8.4).

Two optimizations the paper describes but leaves out of its asymptotic
analysis:

* :func:`qr_eg_hybrid` -- the Elmroth-Gustavson hybrid (Section 2.4):
  an *iterative* outer loop over width-``nb`` column blocks, each block
  factored with the *recursive* qr-eg.  Same asymptotics, better
  constants: the right-looking outer updates touch each trailing column
  once per block instead of once per recursion level.

* :func:`qr_eg_rightlooking` -- Section 8.4's variant that "avoids ever
  computing superdiagonal blocks of T": the iterative outer loop keeps
  only the per-block kernels ``T_k``, never assembling the full
  ``n x n`` T.  Useful when Q is only ever *applied* (the panel kernels
  suffice), saving the ``n^3``-ish T-assembly arithmetic.  Returns the
  list of panel kernels.

* :func:`qr_1d_caqr_eg_rightlooking` -- the distributed version of the
  latter on the tsqr/1d layout, applying each panel's update with 1D
  multiplications (:func:`~repro.qr.applyq.apply_q`, the same Eq. 4 the
  recursive template uses); the basis for integrating into workflows
  that only need ``Q^H b`` (e.g. least squares).

Paper anchor: Sections 2.4 and 8.4 (iterative qr-eg variants).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import asarray as _backend_asarray
from repro.dist import DistMatrix
from repro.machine import Machine, ParameterError
from repro.qr.applyq import Products1D, apply_q
from repro.qr.caqr1d import qr_1d_caqr_eg
from repro.qr.householder import PanelQR, apply_wy
from repro.qr.qreg import qr_eg_sequential
from repro.qr.tsqr import check_tsqr_distribution


def qr_eg_hybrid(
    machine: Machine, p: int, A: np.ndarray, nb: int = 32, b: int = 8
) -> PanelQR:
    """Hybrid iterative/recursive Elmroth-Gustavson factorization.

    Outer loop over ``nb``-wide blocks (right-looking updates); each
    block factored by recursive qr-eg with inner threshold ``b``.
    Returns the same full ``(V, T, R)`` contract as
    :func:`~repro.qr.qreg.qr_eg_sequential` (T assembled via the
    standard merge formula, Eq. 5).
    """
    if nb < 1 or b < 1:
        raise ParameterError(f"block sizes must be >= 1, got nb={nb}, b={b}")
    A = _backend_asarray(A)
    m, n = A.shape
    if m < n:
        raise ParameterError(f"qr_eg_hybrid requires m >= n, got {A.shape}")
    dtype = np.result_type(A.dtype, np.float64)
    work = A.astype(dtype, copy=True)
    V = machine.ops.zeros((m, n), dtype=dtype)
    T = machine.ops.zeros((n, n), dtype=dtype)
    R = machine.ops.zeros((n, n), dtype=dtype)

    for j0 in range(0, n, nb):
        w = min(nb, n - j0)
        pan = qr_eg_sequential(machine, p, work[j0:, j0 : j0 + w], b)
        V[j0:, j0 : j0 + w] = pan.V
        T[j0 : j0 + w, j0 : j0 + w] = pan.T
        R[j0 : j0 + w, j0 : j0 + w] = pan.R
        if j0 + w < n:
            updated = apply_wy(machine, p, pan.V, pan.T, work[j0:, j0 + w :], adjoint=True)
            work[j0:, j0 + w :] = updated
            R[j0 : j0 + w, j0 + w :] = updated[:w]
        # Superdiagonal T block vs the already-factored prefix (Eq. 5):
        # T[0:j0, j0:j0+w] = -T_prefix (V_prefix^H V_block) T_block.
        if j0 > 0:
            M3 = V[:, :j0].conj().T @ V[:, j0 : j0 + w]
            machine.compute(p, Machine.flops_gemm(j0, w, m), label="hybrid_T")
            M4 = M3 @ pan.T
            T[:j0, j0 : j0 + w] = -(T[:j0, :j0] @ M4)
            machine.compute(p, 2 * Machine.flops_gemm(j0, w, j0) + float(j0) * w, label="hybrid_T")
    return PanelQR(V=V, T=T, R=R)


@dataclass
class RightLookingQR:
    """Output of the T-avoiding right-looking variants.

    ``panels`` holds one ``(j0, V_panel, T_panel)`` triple per column
    block; applying Q or Q^H multiplies the panel reflectors in the
    appropriate order -- no full T is ever formed (Section 8.4).
    """

    panels: list[tuple[int, np.ndarray, np.ndarray]]
    R: np.ndarray

    def apply_adjoint(self, machine: Machine, p: int, C: np.ndarray) -> np.ndarray:
        """``Q^H C`` using only the panel kernels (left-to-right)."""
        out = _backend_asarray(C).copy()
        for j0, Vp, Tp in self.panels:
            out[j0:] = apply_wy(machine, p, Vp, Tp, out[j0:], adjoint=True)
        return out

    def apply(self, machine: Machine, p: int, C: np.ndarray) -> np.ndarray:
        """``Q C`` using only the panel kernels (right-to-left)."""
        out = _backend_asarray(C).copy()
        for j0, Vp, Tp in reversed(self.panels):
            out[j0:] = apply_wy(machine, p, Vp, Tp, out[j0:])
        return out


def qr_eg_rightlooking(
    machine: Machine, p: int, A: np.ndarray, nb: int = 32, b: int = 8
) -> RightLookingQR:
    """Sequential right-looking qr-eg that never forms superdiagonal T."""
    if nb < 1 or b < 1:
        raise ParameterError(f"block sizes must be >= 1, got nb={nb}, b={b}")
    A = _backend_asarray(A)
    m, n = A.shape
    if m < n:
        raise ParameterError(f"requires m >= n, got {A.shape}")
    dtype = np.result_type(A.dtype, np.float64)
    work = A.astype(dtype, copy=True)
    R = machine.ops.zeros((n, n), dtype=dtype)
    panels: list[tuple[int, np.ndarray, np.ndarray]] = []

    for j0 in range(0, n, nb):
        w = min(nb, n - j0)
        pan = qr_eg_sequential(machine, p, work[j0:, j0 : j0 + w], b)
        panels.append((j0, pan.V, pan.T))
        R[j0 : j0 + w, j0 : j0 + w] = pan.R
        if j0 + w < n:
            updated = apply_wy(machine, p, pan.V, pan.T, work[j0:, j0 + w :], adjoint=True)
            work[j0:, j0 + w :] = updated
            R[j0 : j0 + w, j0 + w :] = updated[:w]
    return RightLookingQR(panels=panels, R=R)


@dataclass
class RightLooking1DResult:
    """Distributed right-looking output: per-panel (V, T) + root R.

    ``panels`` holds ``(j0, V_panel, T_panel, root)`` with ``V_panel``
    a DistMatrix over the trailing rows and ``T_panel`` on the root.
    """

    panels: list[tuple[int, DistMatrix, np.ndarray]]
    R: np.ndarray
    root: int


def qr_1d_caqr_eg_rightlooking(
    A: DistMatrix, root: int = 0, nb: int = 16, b: int | None = None
) -> RightLooking1DResult:
    """Distributed right-looking caqr-eg on the tsqr layout (Section 8.4).

    Iterates over ``nb``-wide column blocks: tsqr (or 1d-caqr-eg when
    ``b < nb``) factors the panel's trailing rows, then the trailing
    matrix is updated with two 1D multiplications.  Only per-panel
    kernels are kept; no global T is assembled -- the paper notes this
    "does, however, restrict the available parallelism" (updates
    serialize across panels), visible in the measured critical path.
    """
    machine = A.machine
    check_tsqr_distribution(A, root)
    m, n = A.shape
    if nb < 1:
        raise ParameterError(f"nb must be >= 1, got {nb}")

    cur = A
    panels: list[tuple[int, DistMatrix, np.ndarray]] = []
    R = machine.ops.zeros((n, n), dtype=np.result_type(A.dtype, np.float64))

    products = Products1D(machine, root, "rl_{}".format)
    j0 = 0
    while j0 < n:
        w = min(nb, n - j0)
        # b >= w *is* tsqr: the template's base case, reached at once.
        res = qr_1d_caqr_eg(cur.cols(0, w), root, b=w if b is None else min(b, w))
        panels.append((j0, res.V, res.T))
        R[j0 : j0 + w, j0 : j0 + w] = res.R

        if j0 + w < n:
            updated = apply_q(
                res.V, products.on_root(res.T), cur.cols(w, cur.n), products, adjoint=True
            )
            # The root holds the panel's w rows of R; the rest recurses.
            R12, cur = updated.split_rows(w)
            R[j0 : j0 + w, j0 + w :] = R12.local(root)
        j0 += w

    return RightLooking1DResult(panels=panels, R=R, root=root)
