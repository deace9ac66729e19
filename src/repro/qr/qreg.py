"""Elmroth-Gustavson recursive QR (paper Algorithm 2, qr-eg), written once.

The paper presents qr-eg as a *template*: split the columns in half
until the panel is at most ``b`` wide, factor the left half, update the
right half through the compact representation (Eq. 4), recurse, and
assemble ``V``, ``T``, ``R`` (Eq. 5).  A base case and a way to multiply
turn the template into an algorithm:

* :func:`qr_eg` is the template over row-distributed operands.
  1d-caqr-eg (:mod:`repro.qr.caqr1d`) and 3d-caqr-eg
  (:mod:`repro.qr.caqr3d`) are its two instantiations and contain no
  recursion of their own; ``docs/architecture.md`` maps Algorithm 2's
  lines to its calls.
* :func:`qr_eg_sequential` is the single-processor algorithm, kept
  separate on purpose: it is the reference implementation the
  distributed algorithms are tested against.

Paper anchor: Section 2.4, Algorithm 2 (qr-eg), Eq. 4-5.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.backend import asarray as _backend_asarray
from repro.dist import DistMatrix, head_layout
from repro.machine import Machine, ParameterError
from repro.qr.applyq import Products1D, Products3D, apply_q
from repro.qr.householder import PanelQR, local_geqrt

Factors = tuple[DistMatrix, DistMatrix, DistMatrix]


def qr_eg(
    A: DistMatrix, b: int, base: Callable[[DistMatrix], Factors],
    products: Products1D | Products3D,
) -> Factors:
    """Algorithm 2 over a row-distributed ``A``: returns ``(V, T, R)``.

    ``V`` is distributed like ``A``; ``T`` and ``R`` (``n x n``) like
    ``A``'s leading ``n`` rows -- which is also what ``base`` must
    return for a panel at most ``b`` wide.  ``products`` computes the
    six multiplications (:mod:`repro.qr.applyq`); the template never
    asks which grid it is on.  Everything else is free local slicing
    and assembly, plus one charged flop per entry of ``T_12`` for the
    negation.

    The two instantiations on four processors (``b = n`` is the base
    case alone; halving ``b`` trades words for messages):

    >>> from repro.dist import BlockRowLayout, CyclicRowLayout
    >>> from repro.qr import qr_1d_caqr_eg, qr_3d_caqr_eg
    >>> A = np.random.default_rng(0).standard_normal((64, 8))
    >>> def messages(run, layout, **knobs):
    ...     machine = Machine(4)
    ...     run(DistMatrix.from_global(machine, A, layout), **knobs)
    ...     return machine.report().critical_messages
    >>> [messages(qr_1d_caqr_eg, BlockRowLayout([16] * 4), b=b) for b in (8, 4)]
    [10.0, 32.0]
    >>> [messages(qr_3d_caqr_eg, CyclicRowLayout(64, 4), b=b, bstar=4) for b in (8, 4)]
    [54.0, 168.0]
    """
    machine, n = A.machine, A.n
    if n <= b:
        return base(A)
    n2 = n // 2  # floor(n/2), the paper's A11 size
    small = head_layout(A.layout, n2)  # where the n2-row intermediates live

    # Lines 4-9: split, factor the left half, update the right half
    # through (I - V_L T_L V_L^H)^H, factor its rows below n2.
    VL, TL, RL = qr_eg(A.cols(0, n2), b, base, products)
    B12, B22 = apply_q(VL, TL, A.cols(n2, n), products, adjoint=True).split_rows(n2)
    VR, TR, RR = qr_eg(B22, b, base, products)

    # Lines 11-13: T12 = -T_L (M3 T_R), M3 = V_L^H [0; V_R] over the trailing rows.
    M3 = products.vh_x(VL.split_rows(n2)[1], VR, small)
    M4 = products.small(M3, TR, small, "M4")
    T12 = products.small(TL, M4, small, "T12")
    for p in small.participants():
        machine.compute(p, float(T12.local(p).size), label=products.label("negate"))
        T12.set_local(p, -T12.local(p))

    # Lines 10 and 14 (Eq. 5): every piece is already aligned row by row
    # with its place in the output, so assembly is local.
    top = head_layout(A.layout, n)
    V = DistMatrix.from_pieces(A.layout, n, [(VL, 0, 0), (VR, n2, n2)])
    T = DistMatrix.from_pieces(top, n, [(TL, 0, 0), (T12, 0, n2), (TR, n2, n2)])
    R = DistMatrix.from_pieces(top, n, [(RL, 0, 0), (B12, 0, n2), (RR, n2, n2)])
    return V, T, R


def qr_eg_sequential(machine: Machine, p: int, A: np.ndarray, b: int = 8) -> PanelQR:
    """qr-eg on processor ``p`` with recursion threshold ``b >= 1``.

    Returns the Householder representation ``(V, T, R)`` with
    ``A = (I - V T V^H) [R; 0]``.
    """
    if b < 1:
        raise ParameterError(f"recursion threshold must be >= 1, got b={b}")
    A = _backend_asarray(A)
    m, n = A.shape
    if m < n:
        raise ParameterError(f"qr-eg requires m >= n, got {A.shape}")

    if n <= b:
        return local_geqrt(machine, p, A)

    n2 = n // 2  # floor(n/2), the paper's A11 size
    left = qr_eg_sequential(machine, p, A[:, :n2], b)

    # Lines 6-8: update the right panel through (I - V T V^H)^H.
    X = A[:, n2:]
    nr = n - n2
    M1 = left.V.conj().T @ X
    M2 = left.T.conj().T @ M1
    B = X - left.V @ M2
    machine.compute(
        p,
        Machine.flops_gemm(n2, nr, m) + Machine.flops_gemm(n2, nr, n2)
        + Machine.flops_gemm(m, nr, n2) + float(m) * nr,
        label="qreg_update",
    )
    B12, B22 = B[:n2, :], B[n2:, :]

    right = qr_eg_sequential(machine, p, B22, b)

    # Line 10: V = [V_L  [0; V_R]].
    V = machine.ops.zeros((m, n), dtype=left.V.dtype)
    V[:, :n2] = left.V
    V[n2:, n2:] = right.V

    # Lines 11-13: T = [[T_L, -T_L M3 T_R], [0, T_R]],  M3 = V_L^H [0; V_R].
    M3 = left.V[n2:, :].conj().T @ right.V
    M4 = M3 @ right.T
    T12 = -left.T @ M4
    machine.compute(
        p,
        Machine.flops_gemm(n2, nr, m - n2) + 2 * Machine.flops_gemm(n2, nr, nr) + float(n2) * nr,
        label="qreg_T",
    )
    T = machine.ops.zeros((n, n), dtype=left.T.dtype)
    T[:n2, :n2] = left.T
    T[:n2, n2:] = T12
    T[n2:, n2:] = right.T

    # Line 14: R = [[R_L, B12], [0, R_R]].
    R = machine.ops.zeros((n, n), dtype=left.R.dtype)
    R[:n2, :n2] = left.R
    R[:n2, n2:] = B12
    R[n2:, n2:] = right.R
    return PanelQR(V=V, T=T, R=R)
