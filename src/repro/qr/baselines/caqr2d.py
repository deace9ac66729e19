"""caqr (paper [DGHL12], Section 8.1): d-house with tsqr panels.

The second row of the paper's Table 2: identical trailing-matrix update
to blocked d-house (row broadcasts + column reductions), but each panel
is factored with tsqr over its processor column, cutting the latency
from ``Theta(n log P)`` to ``Theta((nP/m)^(1/2) (log P)^2)`` messages.

Panel corner case: tsqr needs every participant to own at least ``w``
panel rows.  Near the bottom-right of the matrix some processors own
fewer; their rows are lent to the panel root for the factorization and
the matching reflector rows are returned afterwards -- an
asymptotically negligible fixup confined to the last ``O(pr)`` panels.

Paper anchor: Section 8.1 ([DGHL12] CAQR baseline); Table 2 row 2.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.dist import DistMatrix, ExplicitRowLayout
from repro.dist.blockcyclic import BlockCyclic2D, choose_grid_2d
from repro.machine import ParameterError
from repro.qr.baselines.house2d import House2DResult
from repro.qr.baselines.panel2d import collect_vrow, row_broadcast_panel, update_trailing
from repro.qr.tsqr import tsqr


def _write_on_holder(machine, rank: int, block, idx, piece) -> None:
    """``block[idx] = piece`` on ``rank``, the block's holder.

    ``piece`` arrived by message; a message is an edge, not a task, so
    an operator write would take its rank from the sender.
    """
    machine.kernel(rank, operator.setitem, (block, idx, piece), None,
                   label="setitem", updates=(0,))


def _panel_factor_tsqr(
    A_bc: BlockCyclic2D, V_bc: BlockCyclic2D, j0: int, w: int
) -> np.ndarray:
    """Factor panel ``[j0, j0+w)`` with tsqr over the processor column.

    Writes reflectors into ``V_bc`` and the ``R`` block into the panel;
    returns the panel kernel ``T`` (held by the panel root; the row
    broadcast distributes it).
    """
    machine = A_bc.machine
    jcol = A_bc.pcol_of(j0)
    col_idx = int(np.searchsorted(A_bc.cols_of(jcol), j0))
    root_i = A_bc.prow_of(j0)
    root_rank = A_bc.rank(root_i, jcol)

    # Panel rows per grid row, in panel-relative indices (global - j0).
    rows_by_i = {i: A_bc.rows_of(i, start=j0) - j0 for i in range(A_bc.pr)}
    counts = {i: rows_by_i[i].size for i in range(A_bc.pr)}

    # Processors with fewer than w panel rows lend them to the root.
    owners = np.empty(A_bc.m - j0, dtype=np.int64)
    lent: dict[int, np.ndarray] = {}
    for i in range(A_bc.pr):
        rank = A_bc.rank(i, jcol)
        if counts[i] == 0:
            continue
        if rank != root_rank and counts[i] < w:
            owners[rows_by_i[i]] = root_rank
            piece = A_bc.blocks[(i, jcol)][A_bc.rows_of(i) >= j0, col_idx : col_idx + w]
            lent[i] = machine.transfer(rank, root_rank, piece, label="caqr_panel_lend")
        else:
            owners[rows_by_i[i]] = rank

    blocks: dict[int, np.ndarray] = {}
    lay = ExplicitRowLayout(owners)
    for rank in lay.participants():
        rows = lay.rows_of(rank)
        blk = machine.ops.empty((rows.size, w), dtype=A_bc.dtype)
        for i in range(A_bc.pr):
            src_rank = root_rank if (A_bc.rank(i, jcol) != root_rank and counts[i] < w) else A_bc.rank(i, jcol)
            if src_rank != rank or counts[i] == 0:
                continue
            at = np.searchsorted(rows, rows_by_i[i])
            if i in lent:
                _write_on_holder(machine, rank, blk, (at, slice(None)), lent[i])
            else:
                blk[at, :] = A_bc.blocks[(i, jcol)][A_bc.rows_of(i) >= j0, col_idx : col_idx + w]
        blocks[rank] = blk
    panel = DistMatrix(machine, lay, w, blocks, dtype=A_bc.dtype)

    res = tsqr(panel, root=root_rank)

    # Scatter reflector rows back into block-cyclic storage (lent rows
    # return to their owners; everything else is already in place).
    for i in range(A_bc.pr):
        if counts[i] == 0:
            continue
        rank = A_bc.rank(i, jcol)
        sel_rows = rows_by_i[i]
        at = (A_bc.rows_of(i) >= j0, slice(col_idx, col_idx + w))
        if i in lent:
            src = res.V.local(root_rank)
            take = np.isin(lay.rows_of(root_rank), sel_rows)
            piece = machine.transfer(root_rank, rank, src[take, :], label="caqr_panel_return")
            _write_on_holder(machine, rank, V_bc.blocks[(i, jcol)], at, piece)
            continue
        if rank == root_rank:
            # The root's V block interleaves its own rows with lent ones.
            src = res.V.local(root_rank)
            piece = src[np.isin(lay.rows_of(root_rank), sel_rows), :]
        else:
            piece = res.V.local(rank)
        V_bc.blocks[(i, jcol)][at] = piece

    # Write R into the panel's leading block (root owns those rows) and
    # zero the annihilated part.
    for i in range(A_bc.pr):
        rows = A_bc.rows_of(i)
        below = rows >= j0
        A_bc.blocks[(i, jcol)][below, col_idx : col_idx + w] = 0.0
    root_rows = A_bc.rows_of(root_i)
    head = (root_rows >= j0) & (root_rows < j0 + w)
    A_bc.blocks[(root_i, jcol)][head, col_idx : col_idx + w] = res.R[
        np.searchsorted(lay.rows_of(root_rank) + j0, root_rows[head]), :
    ]
    return res.T


def caqr2d_default_bb(m: int, n: int, P: int) -> int:
    """Section 8.1's default block size ``b = Theta(n/(nP/m)^(1/2))``.

    The single authority for caqr's algorithmic/distribution block
    default -- :func:`qr_caqr_2d` and the run harness both use it, so
    tuning it here retunes every entry point consistently.
    """
    return max(1, min(n, round(n / max((n * P / m) ** 0.5, 1.0))))


def qr_caqr_2d(
    A: BlockCyclic2D | None = None,
    machine=None,
    A_global: np.ndarray | None = None,
    pr: int | None = None,
    pc: int | None = None,
    bb: int | None = None,
) -> House2DResult:
    """caqr: 2D block-cyclic QR with tsqr panel factorizations.

    Same calling convention and result type as :func:`qr_house_2d`.
    The default block size follows Section 8.1's
    ``b = Theta(n/(nP/m)^(1/2))`` (:func:`caqr2d_default_bb`).
    """
    if A is None:
        if machine is None or A_global is None:
            raise ParameterError("provide a BlockCyclic2D or (machine, A_global)")
        m, n = np.shape(A_global)
        if pr is None or pc is None:
            pr, pc = choose_grid_2d(m, n, machine.P)
        if bb is None:
            bb = caqr2d_default_bb(m, n, machine.P)
        A = BlockCyclic2D.from_global(machine, A_global, pr, pc, bb)
    m, n = A.m, A.n
    if m < n:
        raise ParameterError(f"qr_caqr_2d requires m >= n, got ({m}, {n})")
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
        T = _panel_factor_tsqr(work, V, j0, w)
        panel_ts.append((j0, w, T))
        Vrow = collect_vrow(V, j0, w, jcol)
        row_broadcast_panel(work, Vrow, T, jcol)
        update_trailing(work, j0, w, Vrow, T)

    return House2DResult(V=V, R=work, panel_ts=panel_ts)
