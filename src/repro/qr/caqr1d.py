"""1d-caqr-eg (paper Section 6): qr-eg with a tsqr base case on a 1D layout.

For tall-skinny matrices (``m/n >= P``) this algorithm removes the
``log P`` factor from tsqr's bandwidth at the cost of a matching factor
in latency.  The recursion threshold ``b = Theta(n/(log P)^eps)``
navigates the tradeoff; ``b = n`` *is* tsqr.

Data distribution (same as tsqr, Section 5): each participating
processor owns at least ``n`` rows and the root owns the ``n`` leading
rows.  Output: ``V`` distributed like ``A``; ``T`` and ``R`` on the root.

This module is one instantiation of the qr-eg template
(:func:`repro.qr.qreg.qr_eg`) and holds no recursion of its own: the
base case is :func:`~repro.qr.tsqr.tsqr`, and Algorithm 2's six
multiplications are the 1D dmm of Lemma 3 (Section 6.2,
:class:`~repro.qr.applyq.Products1D`) -- ``V^H X`` on a 1D grid with
``K = m``, ``V M`` on one with ``I = m``, the rest local to the root.
The template keeps ``T`` and ``R`` distributed like the leading ``n``
rows, which Section 5's distribution puts on the root alone; the result
hands them back as plain root-held arrays.

Like tsqr, the recursion touches only ``layout.participants()``, so
spare ranks sit idle and :func:`repro.faults.run_coded_qr` can protect
a run with XOR-checksum blocks (see ``docs/fault_tolerance.md``).

Paper anchor: Section 6, Lemma 6, Eq. 10-11, Theorem 2 (1d-caqr-eg).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dist import DistMatrix
from repro.machine import ParameterError
from repro.qr.applyq import Products1D
from repro.qr.params import choose_b_1d
from repro.qr.qreg import Factors, qr_eg
from repro.qr.tsqr import check_tsqr_distribution, tsqr


@dataclass
class CAQR1DResult:
    """Householder-form output of 1d-caqr-eg (same contract as tsqr)."""

    V: DistMatrix
    T: np.ndarray
    R: np.ndarray
    root: int
    b: int


def qr_1d_caqr_eg(
    A: DistMatrix, root: int = 0, b: int | None = None, eps: float = 1.0
) -> CAQR1DResult:
    """QR-decompose a tall-skinny distributed matrix with 1d-caqr-eg.

    ``b`` overrides the Eq. 10 policy ``b = Theta(n/(log P)^eps)``.
    ``b >= n`` reduces to a single tsqr call.
    """
    n = A.n
    parts = check_tsqr_distribution(A, root)
    if b is None:
        b = choose_b_1d(n, len(parts), eps)
    if b < 1:
        raise ParameterError(f"recursion threshold must be >= 1, got b={b}")
    products = Products1D(A.machine, root, "caqr1d_{}".format)

    def base(panel: DistMatrix) -> Factors:
        # Section 5's requirements hold for every panel: the root owns
        # rows n2..n-1 of the parent panel as the right half's leading rows.
        res = tsqr(panel, root)
        return res.V, products.on_root(res.T), products.on_root(res.R)

    V, T, R = qr_eg(A, b, base, products)
    return CAQR1DResult(V=V, T=T.local(root), R=R.local(root), root=root, b=b)
