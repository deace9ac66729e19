"""d-house on a 2D block-cyclic layout: blocked right-looking Householder.

The first row of the paper's Table 2: the ScaLAPACK-style pdgeqrf
pattern.  Panels are factored column-by-column *within* a processor
column via small all-reduces (the unblocked d-house pattern restricted
to ``pr`` processors), then the block reflector is broadcast row-wise
and applied to the trailing matrix with column-group reductions.

With the Section 8.1 grid ``c = Theta((nP/m)^(1/2))`` and ``b = Theta(1)``
this attains (up to log factors) ``mn^2/P`` flops,
``n^2/(nP/m)^(1/2)`` words -- and ``Theta(n log P)`` messages, the
linear-in-``n`` latency that caqr and 3d-caqr-eg remove.

Paper anchor: Section 8.1 (d-house-2d); Table 2 row 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.collectives import CommContext
from repro.dist.blockcyclic import BlockCyclic2D, choose_grid_2d
from repro.machine import ParameterError
from repro.qr.baselines.panel2d import (
    collect_vrow,
    gram_t_panel,
    householder_column,
    row_broadcast_panel,
    update_trailing,
)


#: Default distribution/algorithmic block size (``b = Theta(1)``,
#: Section 8.1); shared by :func:`qr_house_2d` and the run harness.
HOUSE2D_DEFAULT_BB = 4


@dataclass
class House2DResult:
    """Blocked 2D Householder output.

    ``V`` and the reduced matrix (whose upper triangle is ``R``) stay
    block-cyclic; ``panel_ts`` records each panel's kernel ``(j0, w, T)``.
    """

    V: BlockCyclic2D
    R: BlockCyclic2D
    panel_ts: list[tuple[int, int, np.ndarray]]

    def R_global(self) -> np.ndarray:
        """Upper-triangular ``n x n`` R factor (debug/validation; free)."""
        full = self.R.to_global()
        return np.triu(full[: self.R.n, :])

    def V_global(self) -> np.ndarray:
        """Global unit-lower-trapezoidal basis (debug/validation; free)."""
        return self.V.to_global()


def _panel_factor_house(
    A_bc: BlockCyclic2D, V_bc: BlockCyclic2D, j0: int, w: int
) -> None:
    """Factor panel columns ``[j0, j0+w)`` with per-column all-reduces.

    Works for any distribution of rows over the processor column
    (processors with no rows below the diagonal simply contribute
    zeros), which is why blocked d-house has no corner cases.  Each
    column is one :func:`~repro.qr.baselines.panel2d.householder_column`
    step over the processor column, so the loop records identically on
    every backend.
    """
    machine = A_bc.machine
    jcol = A_bc.pcol_of(j0)
    ctx = CommContext(machine, A_bc.col_group(jcol)) if A_bc.pr > 1 else None
    col0 = int(np.searchsorted(A_bc.cols_of(jcol), j0))
    locs = [
        (A_bc.rank(i, jcol), A_bc.blocks[(i, jcol)], V_bc.blocks[(i, jcol)], A_bc.rows_of(i))
        for i in range(A_bc.pr)
    ]
    for c in range(w):
        householder_column(
            machine, ctx, locs, j0 + c, col0 + c, col0 + w, A_bc.dtype, "house2d"
        )


def qr_house_2d(
    A: BlockCyclic2D | None = None,
    machine=None,
    A_global: np.ndarray | None = None,
    pr: int | None = None,
    pc: int | None = None,
    bb: int = HOUSE2D_DEFAULT_BB,
) -> House2DResult:
    """Blocked 2D block-cyclic Householder QR.

    Pass either a distributed ``A`` or ``(machine, A_global)`` plus an
    optional grid; the Section 8.1 grid ``c = (nP/m)^(1/2)`` is chosen
    automatically with ``bb`` as both the distribution and algorithmic
    block size.
    """
    if A is None:
        if machine is None or A_global is None:
            raise ParameterError("provide a BlockCyclic2D or (machine, A_global)")
        m, n = np.shape(A_global)
        if pr is None or pc is None:
            pr, pc = choose_grid_2d(m, n, machine.P)
        A = BlockCyclic2D.from_global(machine, A_global, pr, pc, bb)
    m, n = A.m, A.n
    if m < n:
        raise ParameterError(f"qr_house_2d requires m >= n, got ({m}, {n})")
    machine = A.machine

    work = BlockCyclic2D(
        machine, m, n, A.pr, A.pc, A.bb,
        blocks={k: v.astype(np.result_type(A.dtype, np.float64), copy=True) for k, v in A.blocks.items()},
        dtype=np.result_type(A.dtype, np.float64), ranks=A.ranks,
    )
    V = BlockCyclic2D(machine, m, n, A.pr, A.pc, A.bb, dtype=work.dtype, ranks=A.ranks)

    panel_ts: list[tuple[int, int, np.ndarray]] = []
    for j0 in range(0, n, A.bb):
        w = min(A.bb, n - j0)
        jcol = A.pcol_of(j0)
        _panel_factor_house(work, V, j0, w)
        Vrow = collect_vrow(V, j0, w, jcol)
        T = gram_t_panel(work, jcol, Vrow, machine)
        panel_ts.append((j0, w, T))
        row_broadcast_panel(work, Vrow, T, jcol)
        update_trailing(work, j0, w, Vrow, T)

    return House2DResult(V=V, R=work, panel_ts=panel_ts)
