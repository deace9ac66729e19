"""d-house on a 1D layout: unblocked distributed Householder QR.

The first row of the paper's Table 3: Householder's original
(right-looking, b = 1) algorithm with the matrix distributed by rows.
Each column step performs two small all-reduces -- one to form the
reflector, one for the trailing-matrix update row ``w = v^H A`` -- so
the algorithm moves ``Theta(n^2 log P)`` words in ``Theta(n log P)``
messages: latency *linear in n*, the cost tsqr and 1d-caqr-eg remove.

Same I/O contract as tsqr: each participant owns at least ``n`` rows,
the root owns the leading ``n`` rows; ``V`` comes back distributed,
``T`` and ``R`` on the root.

Each column is one
:func:`~repro.qr.baselines.panel2d.householder_column` step -- the body
shared with the d-house-2d panel factorization -- whose per-rank stages
are pure array kernels dispatched through
:meth:`~repro.machine.Machine.kernel`, so the algorithm records one
task per stage per rank and runs on every backend -- numeric, symbolic,
and the engines -- with identical metering.

Paper anchor: Section 8.1 (d-house-1d); Table 3 row 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import SymbolicArray
from repro.collectives import CommContext
from repro.dist import DistMatrix
from repro.matmul import mm1d_reduce
from repro.qr.baselines.panel2d import householder_column
from repro.qr.householder import t_from_gram
from repro.qr.tsqr import check_tsqr_distribution


@dataclass
class House1DResult:
    """Householder-form output of 1D unblocked Householder QR."""

    V: DistMatrix
    T: np.ndarray
    R: np.ndarray
    root: int


def qr_house_1d(A: DistMatrix, root: int = 0) -> House1DResult:
    """Unblocked 1D Householder QR of a tall-skinny distributed matrix."""
    machine = A.machine
    n = A.n
    parts = check_tsqr_distribution(A, root)
    ctx = CommContext(machine, parts)
    dtype = np.result_type(A.dtype, np.float64)

    work = {p: A.local(p).astype(dtype, copy=True) for p in parts}
    V = {p: machine.ops.zeros((A.layout.count(p), n), dtype=dtype) for p in parts}

    locs = [(p, work[p], V[p], A.layout.rows_of(p)) for p in parts]
    for j in range(n):
        householder_column(machine, ctx, locs, j, j, n, dtype, "house1d")

    Vd = DistMatrix(machine, A.layout, n, V, dtype=dtype)

    # T on the root from the Gram matrix (one reduce, Puglisi formula).
    G = mm1d_reduce(Vd, Vd, root, conj_a=True)
    T = machine.kernel(root, t_from_gram, (G,), SymbolicArray((n, n), dtype), label="house1d_T")
    machine.compute(root, float(n) ** 3 / 3.0, label="house1d_T")

    # Gather R's rows (all held within the leading n rows, on the root
    # already by the distribution requirement).
    R = np.triu(work[root][:n, :])
    return House1DResult(V=Vd, T=T, R=R, root=root)
