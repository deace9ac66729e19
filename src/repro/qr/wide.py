"""QR decomposition of wide matrices (paper Section 2.1).

"When A has more columns than rows, we can obtain a QR decomposition
by splitting A = [A1 A2] with square A1, decomposing A1 = Q R1, and
computing R = [R1  Q^H A2]."  This module implements that reduction on
top of the tall/square algorithms, sequentially and distributed.

The result is ``A = Q [R1 R2]`` with ``Q = I - V T V^H`` square
(``m x m`` basis-kernel with ``V`` ``m x m``... in practice ``V`` is
``m x m`` unit lower triangular from the square factorization) and the
R-factor upper *trapezoidal* ``m x n``.

Paper anchor: Section 2.1 (wide-matrix QR).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dist import DistMatrix
from repro.machine import Machine, ParameterError
from repro.qr.applyq import apply_q_3d
from repro.qr.caqr3d import qr_3d_caqr_eg
from repro.qr.householder import PanelQR, apply_wy, local_geqrt


@dataclass
class WideQR:
    """``A = (I - V T V^H) R`` with ``R`` upper trapezoidal ``m x n``."""

    V: np.ndarray | DistMatrix
    T: np.ndarray
    R: np.ndarray


def qr_wide_sequential(machine: Machine, p: int, A: np.ndarray) -> WideQR:
    """Sequential wide QR: factor the left square block, update the rest.

    Backend-agnostic through ``machine.ops`` coercion: on a symbolic
    machine the input collapses to a shape stand-in (cost-only run); on
    a parallel machine a real input registers as a plan leaf and the
    factor/update kernels defer as rank-``p`` tasks.
    """
    A = machine.ops.asarray(A)
    m, n = A.shape
    if m > n:
        raise ParameterError(f"qr_wide handles m <= n; use a tall algorithm for {A.shape}")
    left: PanelQR = local_geqrt(machine, p, A[:, :m])
    R = machine.ops.zeros((m, n), dtype=left.R.dtype)
    R[:, :m] = left.R
    if n > m:
        R[:, m:] = apply_wy(machine, p, left.V, left.T, A[:, m:].astype(left.R.dtype), adjoint=True)
    return WideQR(V=left.V, T=left.T, R=R)


def qr_wide_3d(A: DistMatrix, **caqr3d_kwargs) -> WideQR:
    """Distributed wide QR: ``A = [A1 | A2]`` with square ``A1`` (Section 2.1).

    ``A`` is ``m x n`` with ``m < n``, row-distributed.  The square left
    block is factored with 3d-caqr-eg (the square case is exactly what
    that algorithm exists for); ``R2 = Q^H A2`` is formed with one
    distributed application of ``Q^H`` (three 3D multiplications).
    Returns ``V``/``T``/``R`` all distributed: ``V`` and ``R``
    (``m x n`` upper trapezoidal) like ``A``, ``T`` like ``A``'s rows.
    """
    m, n = A.shape
    if m > n:
        raise ParameterError(f"qr_wide_3d handles m <= n; got {A.shape}")
    res = qr_3d_caqr_eg(A.cols(0, m), **caqr3d_kwargs)
    # The trapezoid is assembled locally: R1 and R2 share A's row layout.
    pieces = [(res.R, 0, 0)]
    if n > m:
        pieces.append((apply_q_3d(res.V, res.T, A.cols(m, n), adjoint=True), 0, m))
    R = DistMatrix.from_pieces(A.layout, n, pieces)
    return WideQR(V=res.V, T=res.T, R=R)
