"""3D parallel matrix multiplication (paper Section 4 and Appendix B).

The algorithm of [ABG+95] as the paper states it, end to end:

1. an all-to-all redistributes both input operands from their row
   layouts into the *dmm layout*: grid processor ``(q, r, s)`` receives
   the ``r``-th part of ``A[Iq, Ks]`` and the ``q``-th part of
   ``B[Ks, Jr]`` (balanced entrywise partitions of brick faces);
2. all-gathers along R-fibers (for A) and Q-fibers (for B) replicate
   the face blocks so every grid processor holds ``A[Iq, Ks]`` and
   ``B[Ks, Jr]`` in full;
3. a local mm computes ``Z(q,r,s) = A[Iq, Ks] @ B[Ks, Jr]``;
4. reduce-scatters along S-fibers sum the ``Z`` slices into ``C[Iq, Jr]``,
   leaving each grid processor the ``s``-th part;
5. a second all-to-all delivers ``C`` into the requested output row
   layout.

Steps 1 and 5 are what 3d-caqr-eg pays for around each of its six
multiplications (Section 7.2); this module always performs them because
the paper's analysis charges them.  Cost shape for cube-ish multiplies
(Lemma 4): ``gamma IJK/P + beta (IJK/P)^(2/3) + alpha log P`` plus the
all-to-all terms.

Steps 1 and 5 are each split in two.  *What moves* is a route: pure
index arithmetic on the layouts
(:func:`~repro.matmul.operands.route_faces`), which touches no array
and yields, per piece, a source, a destination and two compact
descriptors.  *Moving it* is two pure kernels dispatched through
:meth:`~repro.machine.Machine.kernel` -- :func:`pack` on the source
rank, :func:`assemble` per destination buffer -- around one all-to-all
that meters the traffic and delivers the pieces
(:func:`_redistribute`).  One code path serves every backend: numeric
runs the kernels now, the engines record one task per kernel
(``alltoall_pack`` / ``alltoall_assemble``), and the symbolic backend
returns their metas, so a cost-only run never builds a position
vector.  Values otherwise only flow through the fiber collectives and
:func:`~repro.matmul.local_mm`.  The pipeline is exposed as the
``"mm3d"`` harness algorithm, pinned bit-identical across backends by
``tests/test_engine.py``; ``tests/test_mm3d_route.py`` pins the route,
the kernels and the metering.

Paper anchor: Section 4, Lemma 4, Appendix B (3D brick multiplication).
"""

from __future__ import annotations

from functools import partial
from typing import Any, NamedTuple

import numpy as np

from repro.backend import SymbolicArray
from repro.collectives import CommContext, all_gather, reduce_scatter
from repro.collectives.alltoall import Item, all_to_all_index, all_to_all_two_phase
from repro.dist import DistMatrix, RowLayout
from repro.machine import DistributionError
from repro.matmul.grid import Grid3D, make_grid
from repro.matmul.local import local_mm
from repro.matmul.operands import BlockRange, Lattice, Operand, check_conformable, route_faces
from repro.util import balanced_partition, balanced_sizes

_ALLTOALL = {"two_phase": all_to_all_two_phase, "index": all_to_all_index}


# ----------------------------------------------------------------------
# Moving the data: pack / assemble kernels behind one all-to-all
# ----------------------------------------------------------------------

def pack(*buffers, takes) -> tuple:
    """One flat piece per ``(buffer slot, descriptor)``, read on the source.

    A piece that is a view of its buffer is copied: kernel results share
    memory with no argument (:meth:`~repro.machine.Machine.kernel`).

    >>> from repro.matmul.operands import BlockRange
    >>> blk = np.arange(6.0).reshape(3, 2)
    >>> pieces = pack(blk, takes=(
    ...     (0, BlockRange(1, 3, 0, 2, "N", 1, 4)), (0, BlockRange(0, 3, 1, 2, "T", 0, 2))))
    >>> [p.tolist() for p in pieces], any(np.shares_memory(p, blk) for p in pieces)
    ([[3.0, 4.0, 5.0], [1.0, 3.0]], False)
    """
    pieces = (take.read(buffers[k]) for k, take in takes)
    return tuple(p if p.base is None else p.copy() for p in pieces)


def assemble(*pieces, puts, shape, dtype) -> np.ndarray:
    """A destination buffer from the pieces delivered for it.

    >>> from repro.matmul.operands import Lattice
    >>> assemble(np.array([7.0, 8.0]), puts=(
    ...     Lattice(np.array([1]), np.arange(2), 2, 0, 2, 1),), shape=(3,), dtype=float).tolist()
    [0.0, 7.0, 8.0]
    """
    out = np.zeros(shape, dtype=dtype)
    for piece, put in zip(pieces, puts):
        put.write(out, piece)
    return out


class Move(NamedTuple):
    """One routed piece: where it is read, where it is written."""

    src: int        # machine rank holding buffer ``source``
    dest: int       # machine rank assembling buffer ``target``
    source: Any     # key of the buffer ``take`` reads
    target: Any     # key of the buffer ``put`` writes
    take: BlockRange | Lattice
    put: BlockRange | Lattice


def _redistribute(
    machine, ctx: CommContext, alltoall, moves: list[Move],
    sources: dict, targets: dict[Any, tuple[int, tuple[int, ...]]], dtype,
) -> dict:
    """Carry out a route: pack, one all-to-all, assemble.

    ``sources`` maps buffer keys to the arrays the moves read;
    ``targets`` maps buffer keys to ``(owning rank, shape)`` of the
    buffers to build (in ``dtype``).  One ``pack`` kernel runs per
    source rank, with one output per move, and one ``assemble`` kernel
    per target buffer.  (A pack per (source, destination) pair ships
    less on the process engine, whose cross-worker edges carry a
    task's whole value, but costs four times the edges at ``P = 8``;
    measured on ``squarish3d``, the per-source pack is the faster one
    on every backend.)  The all-to-all sees one item per move, in
    ``moves`` order per source; it meters the traffic and hands each
    destination the pieces addressed to it.  Returns
    ``{target key: buffer}``.
    """
    by_src: dict[int, list[int]] = {}
    for i, mv in enumerate(moves):
        by_src.setdefault(mv.src, []).append(i)
    g = ctx.group_rank
    items: list[list[Item]] = [[] for _ in range(ctx.size)]
    flat: dict[tuple, SymbolicArray] = {}  # metas are immutable: share them
    for src, members in by_src.items():
        keys = list(dict.fromkeys(moves[i].source for i in members))
        takes, metas = [], []
        for i in members:
            mv = moves[i]
            takes.append((keys.index(mv.source), mv.take))
            sig = (mv.take.hi - mv.take.lo, sources[mv.source].dtype)
            meta = flat.get(sig)
            if meta is None:
                meta = flat[sig] = SymbolicArray(sig[:1], sig[1])
            metas.append(meta)
        pieces = machine.kernel(
            src, partial(pack, takes=tuple(takes)), tuple(sources[k] for k in keys),
            tuple(metas), label="alltoall_pack",
        )
        items[g(src)] = [(g(moves[i].dest), i, piece) for i, piece in zip(members, pieces)]

    arrived: dict[Any, list] = {}
    for got in alltoall(ctx, items):
        for i, piece in got:
            arrived.setdefault(moves[i].target, []).append((piece, moves[i].put))

    out = {}
    for key, (rank, shape) in targets.items():
        got = arrived.get(key, ())
        out[key] = machine.kernel(
            rank,
            partial(assemble, puts=tuple(put for _, put in got), shape=shape, dtype=dtype),
            tuple(piece for piece, _ in got), SymbolicArray(shape, dtype),
            label="alltoall_assemble",
        )
    return out


def mm3d(
    A: Operand | DistMatrix,
    B: Operand | DistMatrix,
    out_layout: RowLayout,
    grid: Grid3D | None = None,
    dims: tuple[int, int, int] | None = None,
    method: str = "two_phase",
) -> DistMatrix:
    """``C = A @ B`` on a 3D processor grid, ``C`` in ``out_layout``.

    ``A``/``B`` are row-distributed matrices or :class:`Operand` views of
    them (to multiply by a transpose).  ``grid`` overrides the Lemma 4
    automatic choice; ``dims`` overrides only the grid dimensions.
    ``method`` selects the redistribution all-to-all variant.
    """
    if method not in _ALLTOALL:
        raise ValueError(f"unknown all-to-all method {method!r}")
    alltoall = _ALLTOALL[method]
    if isinstance(A, DistMatrix):
        A = Operand(A)
    if isinstance(B, DistMatrix):
        B = Operand(B)
    machine = A.dm.machine
    if B.dm.machine is not machine:
        raise DistributionError("operands live on different machines")
    I, J, K = check_conformable(A, B)
    if out_layout.m != I:
        raise DistributionError(f"output layout has m={out_layout.m}, expected {I}")
    dtype = np.result_type(A.dm.dtype, B.dm.dtype)

    if grid is None:
        grid = make_grid(I, J, K, list(range(machine.P)), dims=dims)
    Q, R, S = grid.Q, grid.R, grid.S

    Iparts = balanced_partition(I, Q)
    Jparts = balanced_partition(J, R)
    Kparts = balanced_partition(K, S)

    all_ranks = sorted(set(A.sources()) | set(B.sources()) | set(grid.ranks) | set(out_layout.participants()))
    ctx = CommContext(machine, all_ranks)

    # ------------------------------------------------------------------
    # Phase 1: both operands -> dmm layout, in ONE all-to-all.
    # ------------------------------------------------------------------
    # Face part keys: ("A", q, s, r) and ("B", s, r, q) -> flat buffer.
    moves = [
        Move(p.owner, grid.rank(p.a, p.way, p.b), ("A", p.owner), ("A", p.a, p.b, p.way), p.block, p.part)
        for p in route_faces(A.dm.layout, A.op, Iparts, Kparts, R)
    ] + [
        Move(p.owner, grid.rank(p.way, p.b, p.a), ("B", p.owner), ("B", p.a, p.b, p.way), p.block, p.part)
        for p in route_faces(B.dm.layout, B.op, Kparts, Jparts, Q)
    ]
    sources = {("A", p): A.dm.local(p) for p in A.sources()}
    sources.update({("B", p): B.dm.local(p) for p in B.sources()})
    targets = {}
    for q in range(Q):
        for s in range(S):
            for r, size in enumerate(balanced_sizes(len(Iparts[q]) * len(Kparts[s]), R)):
                targets[("A", q, s, r)] = (grid.rank(q, r, s), (size,))
    for s in range(S):
        for r in range(R):
            for q, size in enumerate(balanced_sizes(len(Kparts[s]) * len(Jparts[r]), Q)):
                targets[("B", s, r, q)] = (grid.rank(q, r, s), (size,))
    buffers = _redistribute(machine, ctx, alltoall, moves, sources, targets, dtype)

    # ------------------------------------------------------------------
    # Phase 2: all-gathers along fibers replicate the face blocks.
    # ------------------------------------------------------------------
    Ablocks: dict[tuple[int, int, int], np.ndarray] = {}
    for q in range(Q):
        for s in range(S):
            fiber = grid.fiber_r(q, s)
            parts = [buffers[("A", q, s, r)] for r in range(R)]
            if R > 1:
                fx = CommContext(machine, fiber)
                everywhere = all_gather(fx, parts)
                full = {r: np.concatenate(everywhere[r]) for r in range(R)}
            else:
                full = {0: parts[0]}
            for r in range(R):
                Ablocks[(q, r, s)] = full[r].reshape(len(Iparts[q]), len(Kparts[s]))
    Bblocks: dict[tuple[int, int, int], np.ndarray] = {}
    for s in range(S):
        for r in range(R):
            fiber = grid.fiber_q(r, s)
            parts = [buffers[("B", s, r, q)] for q in range(Q)]
            if Q > 1:
                fx = CommContext(machine, fiber)
                everywhere = all_gather(fx, parts)
                full = {q: np.concatenate(everywhere[q]) for q in range(Q)}
            else:
                full = {0: parts[0]}
            for q in range(Q):
                Bblocks[(q, r, s)] = full[q].reshape(len(Kparts[s]), len(Jparts[r]))

    # ------------------------------------------------------------------
    # Phase 3: local multiplications.
    # ------------------------------------------------------------------
    Z: dict[tuple[int, int, int], np.ndarray] = {}
    for q in range(Q):
        for r in range(R):
            for s in range(S):
                Z[(q, r, s)] = local_mm(
                    machine, grid.rank(q, r, s), Ablocks[(q, r, s)], Bblocks[(q, r, s)], label="mm3d_local"
                )

    # ------------------------------------------------------------------
    # Phase 4: reduce-scatters along S-fibers sum C[Iq, Jr].
    # ------------------------------------------------------------------
    Cparts: dict[tuple[int, int, int], np.ndarray] = {}
    for q in range(Q):
        for r in range(R):
            L = len(Iparts[q]) * len(Jparts[r])
            splits = balanced_partition(L, S)
            if S > 1:
                fiber = grid.fiber_s(q, r)
                fx = CommContext(machine, fiber)
                flats = [Z[(q, r, s)].reshape(-1) for s in range(S)]
                per_rank = [
                    [flat[sp.start : sp.stop] for sp in splits] for flat in flats
                ]
                summed = reduce_scatter(fx, per_rank)
                for s in range(S):
                    Cparts[(q, r, s)] = summed[s]
            else:
                Cparts[(q, r, 0)] = Z[(q, r, 0)].reshape(-1)

    # ------------------------------------------------------------------
    # Phase 5: C -> requested row layout, in ONE all-to-all.
    # ------------------------------------------------------------------
    moves = [
        Move(grid.rank(p.a, p.b, p.way), p.owner, (p.a, p.b, p.way), p.owner, p.part, p.block)
        for p in route_faces(out_layout, "N", Iparts, Jparts, S)
    ]
    targets = {t: (t, (out_layout.count(t), J)) for t in out_layout.participants()}
    out_blocks = _redistribute(machine, ctx, alltoall, moves, Cparts, targets, dtype)
    return DistMatrix(machine, out_layout, J, out_blocks, dtype=dtype)
