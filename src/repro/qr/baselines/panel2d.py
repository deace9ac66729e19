"""Shared panel/update machinery for the 2D block-cyclic baselines.

Both d-house (blocked) and caqr factor a width-``b`` panel, broadcast
the panel's reflectors row-wise, and apply the block reflector to the
trailing matrix with column-group reductions -- the classic
right-looking ScaLAPACK pdgeqrf communication pattern (paper
Section 8.1).  They differ only in how the panel is factored, so the
broadcast and update live here -- together with the pure array kernels
every per-(column, grid-row) stage of the Householder loops (1D and 2D)
dispatches through :meth:`~repro.machine.Machine.kernel`: one kernel
per stage per owner rank, which keeps the data-dependent scalar logic
recordable on the engine backends and the recorded plan at BLAS
granularity instead of one task per numpy operation.

Kernel conventions: a rank's local rows at or below global row ``g``
are always a *suffix* of its ascending local rows, so kernels take the
suffix start ``r0`` (and ``nd``, 1 when the rank owns the diagonal
entry, else 0) and work on strided views of the local block, never on
boolean-mask copies.  Kernels that write a block mutate it in place and
are dispatched with ``updates=`` (see ``Machine.kernel``); every loop
index is bound when the kernel is recorded (``functools.partial``),
never read from an enclosing scope at execution time.

Paper anchor: Section 8.1 (2D panel/update machinery).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.backend import SymbolicArray
from repro.collectives import CommContext, all_reduce, all_reduce_binomial, broadcast
from repro.dist.blockcyclic import BlockCyclic2D
from repro.machine import Counted, Machine
from repro.qr.householder import t_from_gram


def suffix_start(rows: np.ndarray, g: int) -> tuple[int, int]:
    """``(r0, nd)``: first local row ``>= g``, and whether it *is* ``g``.

    >>> suffix_start(np.array([0, 1, 4, 5]), 4)
    (2, 1)
    >>> suffix_start(np.array([0, 1, 4, 5]), 2)
    (2, 0)
    >>> suffix_start(np.array([0, 1]), 7)
    (2, 0)
    """
    r0 = int(np.searchsorted(rows, g))
    return r0, int(r0 < rows.size and rows[r0] == g)


# ----------------------------------------------------------------------
# Reflector kernels (pure array functions; dispatched via machine.kernel)
# ----------------------------------------------------------------------

def reflector_stats_arrays(x, diag, dtype) -> np.ndarray:
    """One rank's all-reduce contribution ``[alpha, ||x below||^2]``.

    ``x`` is the rank's slice of the pivot column at and below the
    diagonal; ``diag`` the (zero- or one-element) diagonal entry it
    owns.  Pure array kernel: on a parallel machine it runs deferred on
    concrete data, bit-identical to the eager numeric path.
    """
    alpha = diag[0] if diag.shape[0] else 0.0
    normsq = np.vdot(x, x).real - (np.vdot(diag, diag).real if diag.shape[0] else 0.0)
    return np.array([alpha, normsq], dtype=dtype)


def reflector_coeffs_arrays(stat, dtype) -> np.ndarray:
    """``[alpha - beta, beta, tau]`` from the reduced ``[alpha, ||x||^2]``.

    The classical Householder convention of :func:`repro.qr.householder.larfg`:
    ``beta = -sgn(alpha) |x|`` with real ``tau``; an exactly zero column
    yields ``tau = 0`` (identity reflector) with a unit divisor so the
    downstream scaling stays finite.

    >>> reflector_coeffs_arrays(np.array([3.0, 16.0]), np.float64)
    array([ 8. , -5. ,  1.6])
    """
    from repro.qr.householder import sgn

    alpha = stat[0]
    xnorm = float(np.sqrt(max(stat[1].real, 0.0)))
    if xnorm == 0.0 and alpha == 0.0:
        return np.array([1.0, 0.0, 0.0], dtype=dtype)
    beta = -sgn(alpha) * float(np.hypot(abs(alpha), xnorm))
    tau = 2.0 / (1.0 + xnorm**2 / abs(alpha - beta) ** 2)
    return np.array([alpha - beta, beta, tau], dtype=dtype)


def column_stats(blk, r0, nd, c, dtype) -> np.ndarray:
    """:func:`reflector_stats_arrays` of column ``c`` of a local block.

    >>> blk = np.array([[9.0, 9.0], [3.0, 9.0], [4.0, 9.0]])
    >>> column_stats(blk, 1, 1, 0, np.float64)     # owns the diagonal (row 1)
    array([ 3., 16.])
    >>> column_stats(blk, 1, 0, 0, np.float64)     # diagonal lives elsewhere
    array([ 0., 25.])
    """
    return reflector_stats_arrays(blk[r0:, c], blk[r0 : r0 + nd, c], dtype)


def column_scale(blk, Vblk, coeffs, r0, nd, c) -> np.ndarray:
    """Form column ``c``'s reflector rows; write ``V``, ``beta`` and zeros.

    Updates ``blk`` and ``Vblk`` in place (``updates=(0, 1)``) and
    returns the rank's slice ``v`` of the reflector, unit on the
    diagonal.  A ``tau = 0`` column (exactly zero) is left as it is,
    with ``V``'s column zero, and ``v`` is zero: the identity reflector
    a concrete machine never forms.

    >>> blk = np.array([[3.0, 1.0], [4.0, 1.0]])
    >>> Vblk = np.zeros((2, 2))
    >>> column_scale(blk, Vblk, np.array([8.0, -5.0, 1.6]), 0, 1, 0)
    array([1. , 0.5])
    >>> blk[:, 0].tolist(), Vblk[:, 0].tolist()
    ([-5.0, 0.0], [1.0, 0.5])
    """
    if coeffs[2] == 0:
        return np.zeros(blk.shape[0] - r0, dtype=np.result_type(blk, coeffs))
    v = blk[r0:, c] / coeffs[0]
    v[:nd] = 1.0
    Vblk[r0:, c] = v
    blk[r0 : r0 + nd, c] = coeffs[1]
    blk[r0 + nd :, c] = 0.0
    return v


def column_dot(blk, v, r0, c0, c1) -> np.ndarray:
    """One rank's share of ``w = v^H A[:, c0:c1]`` (rows ``r0:``).

    >>> column_dot(np.array([[9.0, 9.0], [1.0, 2.0], [3.0, 4.0]]),
    ...            np.array([1.0, 0.5]), 1, 0, 2)
    array([2.5, 4. ])
    """
    return v.conj() @ blk[r0:, c0:c1]


def column_rank1(blk, v, w, coeffs, r0, c0, c1) -> None:
    """``A[r0:, c0:c1] -= tau v w`` in place (``updates=(0,)``).

    Nothing at all for ``tau = 0``: subtracting a zero product could
    still flip the sign of a zero entry.

    >>> blk = np.ones((2, 2))
    >>> column_rank1(blk, np.array([1.0]), np.array([2.0, 3.0]),
    ...              np.array([0.0, 0.0, 0.5]), 1, 0, 2)
    >>> blk.tolist()
    [[1.0, 1.0], [0.0, -0.5]]
    """
    if coeffs[2] != 0:
        blk[r0:, c0:c1] -= np.multiply.outer(coeffs[2] * v, w)


def panel_rows(Vblk, r0, c0, c1) -> np.ndarray:
    """A contiguous copy of the panel's reflector rows ``V[r0:, c0:c1]``.

    >>> panel_rows(np.arange(6.0).reshape(3, 2), 1, 1, 2).tolist()
    [[3.0], [5.0]]
    """
    return Vblk[r0:, c0:c1].copy()


def panel_vh(blk, V, r0, c0) -> np.ndarray:
    """One rank's share of ``V^H A[r0:, c0:]``.

    The trailing update's ``W = V^H A_trail`` and, with ``blk = V``,
    the panel's Gram matrix ``V^H V``.

    >>> panel_vh(np.array([[9.0, 1.0], [9.0, 2.0]]), np.array([[1.0], [1.0]]), 0, 1)
    array([[3.]])
    """
    return V.conj().T @ blk[r0:, c0:]


def trailing_apply(blk, V, T, W, r0, c0) -> None:
    """``A_trail -= V (T^H W)`` on one rank, in place (``updates=(0,)``).

    >>> blk = np.array([[9.0, 1.0], [9.0, 2.0]])
    >>> trailing_apply(blk, np.array([[1.0], [1.0]]), np.array([[0.5]]),
    ...                np.array([[3.0]]), 0, 1)
    >>> blk.tolist()
    [[9.0, -0.5], [9.0, 0.5]]
    """
    blk[r0:, c0:] -= V @ (T.conj().T @ W)


# ----------------------------------------------------------------------
# Drivers: metering and communication; the arithmetic is in the kernels
# ----------------------------------------------------------------------

def householder_column(machine, ctx, locs, g, c, c1, dtype, tag) -> None:
    """One unblocked Householder step on global column ``g``.

    The per-column body shared by d-house-1d and the d-house-2d panel
    factorization: all-reduce the reflector statistics, scale ``v``,
    all-reduce ``w = v^H A[:, c+1:c1]`` and apply the rank-1 update.
    ``locs`` lists ``(rank, A block, V block, ascending global rows)``
    per participating processor; ``c`` is the column's local index and
    ``c1`` the local end of the columns this step updates.  ``ctx`` is
    the participants' context (``None`` for a single processor) and
    ``tag`` prefixes the trace labels.
    """
    # Per processor: rank, blocks, suffix start, diagonal flag, rows below.
    procs = []
    for rank, blk, Vblk, rows in locs:
        r0, nd = suffix_start(rows, g)
        procs.append((rank, blk, Vblk, r0, nd, rows.size - r0))

    contribs = []
    for rank, blk, _Vblk, r0, nd, nb in procs:
        contribs.append(machine.kernel(
            rank, partial(column_stats, r0=r0, nd=nd, c=c, dtype=dtype),
            (blk,), SymbolicArray((2,), dtype), label=f"{tag}_stats",
        ))
        machine.compute(rank, 2.0 * nb, label=f"{tag}_norm")
    stat = all_reduce_binomial(ctx, contribs) if ctx else contribs[0]
    # Scalar coefficients [alpha - beta, beta, tau]: simulator-side
    # (every rank holds stat after the all-reduce; recomputing the
    # three scalars is free by convention).
    coeffs = machine.kernel(
        None, partial(reflector_coeffs_arrays, dtype=dtype),
        (stat,), SymbolicArray((3,), dtype), label=f"{tag}_coeffs",
    )
    if machine.concrete and coeffs[2] == 0.0:
        # Exactly-zero column: identity reflector, nothing to update.
        # Non-concrete backends record (and charge) the generic-data
        # path; its kernels leave a tau = 0 column exactly as this
        # branch does, so every backend returns the same bits.
        return

    # Scale v locally; the diagonal owner writes beta into the column.
    vs = []
    for rank, blk, Vblk, r0, nd, nb in procs:
        vs.append(machine.kernel(
            rank, partial(column_scale, r0=r0, nd=nd, c=c),
            (blk, Vblk, coeffs), SymbolicArray((nb,), dtype),
            label=f"{tag}_scale", updates=(0, 1),
        ))
        machine.compute(rank, float(nb), label=f"{tag}_scale")

    # Update the remaining columns: w = v^H A[:, c+1:c1], A -= tau v w.
    nc = c1 - c - 1
    if nc <= 0:
        return
    partials = []
    for (rank, blk, _Vblk, r0, _nd, nb), v in zip(procs, vs):
        partials.append(machine.kernel(
            rank, partial(column_dot, r0=r0, c0=c + 1, c1=c1),
            (blk, v), SymbolicArray((nc,), dtype), label=f"{tag}_w",
        ))
        machine.compute(rank, 2.0 * nb * nc, label=f"{tag}_w")
    wv = all_reduce_binomial(ctx, partials) if ctx else partials[0]
    for (rank, blk, _Vblk, r0, _nd, nb), v in zip(procs, vs):
        machine.kernel(
            rank, partial(column_rank1, r0=r0, c0=c + 1, c1=c1),
            (blk, v, wv, coeffs), None, label=f"{tag}_upd", updates=(0,),
        )
        machine.compute(rank, 2.0 * nb * nc, label=f"{tag}_upd")


def row_broadcast_panel(
    A_bc: BlockCyclic2D,
    Vrow: dict[int, np.ndarray],
    T: np.ndarray,
    jcol: int,
) -> None:
    """Broadcast each grid row's panel reflector rows (plus ``T``) row-wise.

    ``Vrow[i]`` is grid row ``i``'s slice of the panel's ``V`` (trailing
    rows x panel width), held by processor ``(i, jcol)``.  After the
    call every processor in grid row ``i`` holds ``Vrow[i]`` and ``T``
    (the simulator shares the arrays; receivers treat them read-only).
    """
    machine = A_bc.machine
    if A_bc.pc == 1:
        return
    for i in range(A_bc.pr):
        group = A_bc.row_group(i)
        ctx = CommContext(machine, group)
        broadcast(ctx, group.index(A_bc.rank(i, jcol)), Counted(Vrow[i].size + T.size))


def update_trailing(
    A_bc: BlockCyclic2D,
    j0: int,
    w: int,
    Vrow: dict[int, np.ndarray],
    T: np.ndarray,
) -> None:
    """Apply ``(I - V T V^H)^H`` to the trailing matrix (columns > j0+w-1).

    For each processor column ``j``: every grid row computes its local
    contribution to ``W = V^H A_trail``, the column group all-reduces
    ``W``, then each processor forms ``M = T^H W`` redundantly and
    updates its local rows ``A -= V M``.  Row layouts never change, so
    no data moves besides the reductions.
    """
    machine = A_bc.machine
    first_col = j0 + w
    if first_col >= A_bc.n:
        return
    r0s = [int(np.searchsorted(A_bc.rows_of(i), j0)) for i in range(A_bc.pr)]
    for j in range(A_bc.pc):
        cols = A_bc.cols_of(j)
        c0 = int(np.searchsorted(cols, first_col))
        nc = cols.size - c0
        if nc == 0:
            continue
        partials = []
        for i, r0 in enumerate(r0s):
            rank, blk = A_bc.rank(i, j), A_bc.blocks[(i, j)]
            machine.compute(rank, Machine.flops_gemm(w, nc, blk.shape[0] - r0), label="panel_W")
            partials.append(machine.kernel(
                rank, partial(panel_vh, r0=r0, c0=c0), (blk, Vrow[i]),
                SymbolicArray((w, nc), A_bc.dtype), label="panel_W",
            ))
        if A_bc.pr > 1:
            ctx = CommContext(machine, A_bc.col_group(j))
            W = all_reduce(ctx, partials)
        else:
            W = partials[0]
        for i, r0 in enumerate(r0s):
            rank, blk = A_bc.rank(i, j), A_bc.blocks[(i, j)]
            nr = blk.shape[0] - r0
            machine.compute(rank, Machine.flops_gemm(w, nc, w), label="panel_M")
            machine.compute(rank, Machine.flops_gemm(nr, nc, w), label="panel_apply")
            machine.compute(rank, float(nr * nc), label="panel_sub")
            machine.kernel(
                rank, partial(trailing_apply, r0=r0, c0=c0), (blk, Vrow[i], T, W),
                None, label="panel_apply", updates=(0,),
            )


def collect_vrow(
    V_bc: BlockCyclic2D, j0: int, w: int, jcol: int
) -> dict[int, np.ndarray]:
    """Each grid row's trailing slice of the panel's reflector columns.

    Copies out of grid column ``jcol``'s local V storage; free (local
    slicing -- no flops, no words).
    """
    machine = V_bc.machine
    c0 = int(np.searchsorted(V_bc.cols_of(jcol), j0))
    out: dict[int, np.ndarray] = {}
    for i in range(V_bc.pr):
        rows = V_bc.rows_of(i)
        r0 = int(np.searchsorted(rows, j0))
        out[i] = machine.kernel(
            V_bc.rank(i, jcol), partial(panel_rows, r0=r0, c0=c0, c1=c0 + w),
            (V_bc.blocks[(i, jcol)],), SymbolicArray((rows.size - r0, w), V_bc.dtype),
            label="panel_vrow",
        )
    return out


def gram_t_panel(
    A_bc: BlockCyclic2D, jcol: int, Vrow: dict[int, np.ndarray], machine: Machine
) -> np.ndarray:
    """Panel kernel ``T`` from the Gram matrix, redundantly on the column.

    Column procs all-reduce ``V^H V`` (``w x w``) and each inverts the
    Puglisi formula locally -- ``O(w^2 log pr)`` words, ``O(w^3)``
    redundant flops, the standard trade for avoiding a later broadcast.
    """
    w = next(iter(Vrow.values())).shape[1]
    partials = []
    for i in range(A_bc.pr):
        rank, V = A_bc.rank(i, jcol), Vrow[i]
        machine.compute(rank, Machine.flops_gemm(w, w, V.shape[0]), label="panel_gram")
        partials.append(machine.kernel(
            rank, partial(panel_vh, r0=0, c0=0), (V, V),
            SymbolicArray((w, w), V.dtype), label="panel_gram",
        ))
    if A_bc.pr > 1:
        ctx = CommContext(machine, A_bc.col_group(jcol))
        G = all_reduce(ctx, partials)
    else:
        G = partials[0]
    T = machine.kernel(None, t_from_gram, (G,), SymbolicArray((w, w), G.dtype), label="panel_T")
    for i in range(A_bc.pr):
        machine.compute(A_bc.rank(i, jcol), float(w) ** 3 / 3.0, label="panel_T")
    return T
