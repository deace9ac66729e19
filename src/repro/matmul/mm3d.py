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
that meters the traffic (:func:`_redistribute`).  One code path serves
every backend: numeric runs the kernels now, the engines record one
task per kernel (``alltoall_pack`` / ``alltoall_assemble``), and the
symbolic backend returns their metas, so a cost-only run never builds
a position vector.  Values otherwise only flow through the fiber
collectives and :func:`~repro.matmul.local_mm`.  The pipeline is
exposed as the ``"mm3d"`` harness algorithm, pinned bit-identical
across backends by ``tests/test_engine.py``; ``tests/test_mm3d_route.py``
pins the route, the kernels, the metering and the memo below.

**Each distinct multiply routes once.**  The route of both
redistributions, their pack and assemble kernels (with their takes,
puts and shared metas) and the all-to-all's round schedule are a pure
function of the multiply's *shape*, so they are built once into an
immutable :class:`_Route` and kept in :data:`route_memo`.  The key is
everything that determines the entry: the ownership vectors of ``A``'s,
``B``'s and ``out_layout``'s layouts (looked up by digest, compared
exactly on a hit), both ops, ``(I, J, K)``, the grid, the context's
ranks, the source and result dtypes, and ``method``.  A miss builds the
entry; there is no other path.  What still runs on every call is
everything that touches values or clocks: the kernels, every
round's :meth:`~repro.machine.Machine.charge`, the fiber collectives and the local
multiplications -- so reports, ``words_by_label``, factors and recorded
plans are the same whether the entry was just built or found.  The
memo is a :class:`~repro.util.memo.Memo` (an LRU, guarded by a lock
because ``run_many`` callers record concurrently) under one byte budget,
:data:`ROUTE_MEMO_BYTES`, which counts everything an entry keeps alive,
including the :class:`~repro.matmul.operands.Lattice` index vectors
kernels expand after it was stored.  ``clear_plan_cache`` leaves it alone.

Paper anchor: Section 4, Lemma 4, Appendix B (3D brick multiplication).
"""

from __future__ import annotations

import hashlib
from functools import partial
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.backend import SymbolicArray
from repro.collectives import CommContext, all_gather, reduce_scatter
from repro.collectives.alltoall import Round, charge_rounds, index_rounds, two_phase_rounds
from repro.dist import DistMatrix, RowLayout
from repro.machine import DistributionError
from repro.matmul.grid import Grid3D, make_grid
from repro.matmul.local import local_mm
from repro.matmul.operands import BlockRange, Lattice, Operand, check_conformable, route_faces
from repro.util import balanced_partition, balanced_sizes
from repro.util.memo import Memo

#: method -> pure ``(P, source, dest, size) -> rounds`` schedule.
_ALLTOALL = {"two_phase": two_phase_rounds, "index": index_rounds}

#: Byte budget of :data:`route_memo` (its initial ``budget``): what all
#: its entries keep alive.
#: ``squarish3d`` needs ~16.5 MB (numeric and symbolic sibling); a larger
#: budget makes runs that never repeat a shape pay more cyclic-GC time
#: for the objects kept.
ROUTE_MEMO_BYTES = 32 << 20


# ----------------------------------------------------------------------
# Moving the data: pack / assemble kernels behind one all-to-all
# ----------------------------------------------------------------------

def pack(*buffers, takes) -> tuple:
    """One flat piece per descriptor, read on the source.

    ``takes[k]`` lists the descriptors read from ``buffers[k]``; pieces
    come out in that order.  A piece that is a view of its buffer is
    copied: kernel results share memory with no argument
    (:meth:`~repro.machine.Machine.kernel`).

    >>> from repro.matmul.operands import BlockRange
    >>> blk = np.arange(6.0).reshape(3, 2)
    >>> pieces = pack(blk, takes=(
    ...     (BlockRange(1, 3, 0, 2, "N", 1, 4), BlockRange(0, 3, 1, 2, "T", 0, 2)),))
    >>> [p.tolist() for p in pieces], any(np.shares_memory(p, blk) for p in pieces)
    ([[3.0, 4.0, 5.0], [1.0, 3.0]], False)
    """
    pieces = (take.read(buf) for buf, group in zip(buffers, takes) for take in group)
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


class _Pack(NamedTuple):
    """One ``pack`` kernel: a source rank's pieces, one output per move."""

    src: int
    keys: tuple             # source buffer keys, in argument order
    kernel: partial         # pack with its takes
    metas: tuple            # one shared SymbolicArray per output
    members: tuple          # the move index of each output


class _Assemble(NamedTuple):
    """One ``assemble`` kernel: a destination buffer from its pieces."""

    target: Any
    rank: int
    kernel: partial         # assemble with its puts, shape and dtype
    meta: SymbolicArray
    members: tuple          # the move index of each piece, in delivery order


class _Phase(NamedTuple):
    """One redistribution: its moves, kernels and all-to-all schedule."""

    moves: tuple
    packs: tuple
    rounds: tuple[Round, ...]
    assembles: tuple


def _phase(
    ctx: CommContext, schedule, moves: list[Move], dtype_of: Callable[[Any], Any],
    targets: dict[Any, tuple[int, tuple[int, ...]]], dtype,
) -> _Phase:
    """Plan one redistribution of ``moves``.

    ``dtype_of`` gives the dtype of a source buffer key; ``targets``
    maps buffer keys to ``(owning rank, shape)`` of the buffers to
    build (in ``dtype``).  One ``pack`` kernel runs per source rank,
    with one output per move, and one ``assemble`` kernel per target
    buffer.  (A pack per (source, destination) pair ships less on the
    process engine, whose cross-worker edges carry a task's whole
    value, but costs four times the edges at ``P = 8``; measured on
    ``squarish3d``, the per-source pack is the faster one on every
    backend.)  The all-to-all sees one block per move, sources in
    group-rank order and each source's moves in ``moves`` order, and
    delivers them in that order.
    """
    by_src: dict[int, list[int]] = {}
    for i, mv in enumerate(moves):
        by_src.setdefault(mv.src, []).append(i)
    flat: dict[tuple, SymbolicArray] = {}  # metas are immutable: share them
    packs = []
    for src, members in by_src.items():
        keys = list(dict.fromkeys(moves[i].source for i in members))
        members.sort(key=lambda i: keys.index(moves[i].source))  # one run per buffer (mm3d's are)
        takes = tuple(tuple(moves[i].take for i in members if moves[i].source == k) for k in keys)
        metas = []
        for i in members:
            mv = moves[i]
            sig = (mv.take.hi - mv.take.lo, dtype_of(mv.source))
            meta = flat.get(sig)
            if meta is None:
                meta = flat[sig] = SymbolicArray(sig[:1], sig[1])
            metas.append(meta)
        packs.append(_Pack(src, tuple(keys), partial(pack, takes=takes), tuple(metas), tuple(members)))

    g = ctx.group_rank
    order = [i for src in sorted(by_src, key=g) for i in by_src[src]]
    rounds = tuple(schedule(
        ctx.size,
        np.array([g(moves[i].src) for i in order], dtype=np.int64),
        np.array([g(moves[i].dest) for i in order], dtype=np.int64),
        np.array([moves[i].take.hi - moves[i].take.lo for i in order], dtype=np.int64),
    ))
    delivered: dict[Any, list[int]] = {}
    for i in order:
        delivered.setdefault(moves[i].target, []).append(i)
    assembles = []
    for key, (rank, shape) in targets.items():
        members = tuple(delivered.get(key, ()))
        kernel = partial(assemble, puts=tuple(moves[i].put for i in members), shape=shape, dtype=dtype)
        assembles.append(_Assemble(key, rank, kernel, SymbolicArray(shape, dtype), members))
    return _Phase(tuple(moves), tuple(packs), rounds, tuple(assembles))


def _redistribute(machine, ctx: CommContext, phase: _Phase, sources: dict) -> dict:
    """Carry out a planned redistribution: pack, one all-to-all, assemble.

    ``sources`` maps buffer keys to the arrays the moves read.  The
    all-to-all hands each destination the source's piece objects (the
    simulator's buffer-sharing convention), so only its schedule is
    charged.  Returns ``{target key: buffer}``.
    """
    pieces: list[Any] = [None] * len(phase.moves)
    for src, keys, kernel, metas, members in phase.packs:
        got = machine.kernel(
            src, kernel, tuple(sources[k] for k in keys), metas, label="alltoall_pack",
        )
        for i, piece in zip(members, got):
            pieces[i] = piece
    charge_rounds(ctx, phase.rounds)
    return {
        a.target: machine.kernel(
            a.rank, a.kernel, tuple(pieces[i] for i in a.members), a.meta, label="alltoall_assemble",
        )
        for a in phase.assembles
    }


# ----------------------------------------------------------------------
# The route memo
# ----------------------------------------------------------------------

#: Python objects a memo entry keeps alive per entry, per move (its Move,
#: BlockRange and Lattice, their keys and ints), per kernel (its partial,
#: descriptors and meta), per metered send and per expanded index vector
#: (two array headers): upper estimates, 1.2-1.6x what ``tracemalloc``
#: measures on CPython 3.11, held against it by
#: ``tests/test_mm3d_route.py``.
_ENTRY_BYTES, _MOVE_BYTES, _KERNEL_BYTES, _SEND_BYTES, _INDEX_BYTES = 6144, 896, 768, 192, 384


class _Route:
    """Both redistributions of one multiply shape; only its byte meter changes.

    ``nbytes()`` is what the entry keeps alive: its ownership vectors, an
    estimate per move, kernel and send, and the index arrays its route
    shares plus every index vector a kernel expanded since (both report
    their bytes to ``grown``).
    """

    __slots__ = ("owners", "phase1", "phase5", "grown", "_bytes", "_seen")

    def __init__(self, owners: tuple, phase1: _Phase, phase5: _Phase, grown: list[int]) -> None:
        self.owners = owners
        self.phase1 = phase1
        self.phase5 = phase5
        self.grown = grown
        phases = (phase1, phase5)
        moves = sum(len(ph.moves) for ph in phases)
        kernels = sum(len(ph.packs) + len(ph.assembles) for ph in phases)
        sends = sum(len(sends) for ph in phases for _, sends in ph.rounds)
        self._bytes = (
            sum(o.nbytes for o in owners) + _ENTRY_BYTES + _MOVE_BYTES * moves
            + _KERNEL_BYTES * kernels + _SEND_BYTES * sends
        )
        self._seen = 0

    def matches(self, owners: tuple) -> bool:
        return all(a is b or np.array_equal(a, b) for a, b in zip(self.owners, owners))

    def nbytes(self) -> int:
        n = len(self.grown)
        if n != self._seen:
            self._bytes += sum(self.grown[self._seen : n]) + _INDEX_BYTES * (n - self._seen)
            self._seen = n
        return self._bytes


#: The process's route memo (see the module docstring).  An entry counts
#: its :meth:`_Route.nbytes`, re-read whenever the memo totals its
#: entries, since kernels expand index vectors into it after it is stored.
route_memo = Memo(ROUTE_MEMO_BYTES)


def _digest(owners: np.ndarray) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(owners), digest_size=16).digest()


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

    owners = (A.dm.layout.owners(), B.dm.layout.owners(), out_layout.owners())
    key = (
        tuple(_digest(o) for o in owners), A.op, B.op, (I, J, K),
        (Q, R, S, grid.ranks), tuple(all_ranks), A.dm.dtype, B.dm.dtype, dtype, method,
    )
    route = route_memo.get(key)
    if route is None or not route.matches(owners):
        route = _route(
            ctx, _ALLTOALL[method], A, B, out_layout, grid, Iparts, Jparts, Kparts, dtype, owners,
        )
    # Put on a hit too: the memo trims its other entries, every size
    # re-read, so it holds at most the budget plus the entry in use.
    route_memo.put(key, route, route.nbytes)

    # ------------------------------------------------------------------
    # Phase 1: both operands -> dmm layout, in ONE all-to-all.
    # ------------------------------------------------------------------
    sources = {("A", p): A.dm.local(p) for p in A.sources()}
    sources.update({("B", p): B.dm.local(p) for p in B.sources()})
    buffers = _redistribute(machine, ctx, route.phase1, sources)

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
    out_blocks = _redistribute(machine, ctx, route.phase5, Cparts)
    return DistMatrix(machine, out_layout, J, out_blocks, dtype=dtype)


def _route(
    ctx: CommContext, schedule, A: Operand, B: Operand, out_layout: RowLayout, grid: Grid3D,
    Iparts: list[range], Jparts: list[range], Kparts: list[range], dtype, owners: tuple,
) -> _Route:
    """Build the memo entry of one multiply shape: both phases, planned."""
    Q, R, S = grid.Q, grid.R, grid.S
    grown: list[int] = []
    # Face part keys: ("A", q, s, r) and ("B", s, r, q) -> flat buffer.
    moves = [
        Move(p.owner, grid.rank(p.a, p.way, p.b), ("A", p.owner), ("A", p.a, p.b, p.way), p.block, p.part)
        for p in route_faces(A.dm.layout, A.op, Iparts, Kparts, R, grown)
    ] + [
        Move(p.owner, grid.rank(p.way, p.b, p.a), ("B", p.owner), ("B", p.a, p.b, p.way), p.block, p.part)
        for p in route_faces(B.dm.layout, B.op, Kparts, Jparts, Q, grown)
    ]
    targets = {}
    for q in range(Q):
        for s in range(S):
            for r, size in enumerate(balanced_sizes(len(Iparts[q]) * len(Kparts[s]), R)):
                targets[("A", q, s, r)] = (grid.rank(q, r, s), (size,))
    for s in range(S):
        for r in range(R):
            for q, size in enumerate(balanced_sizes(len(Kparts[s]) * len(Jparts[r]), Q)):
                targets[("B", s, r, q)] = (grid.rank(q, r, s), (size,))
    dtypes = {"A": A.dm.dtype, "B": B.dm.dtype}
    phase1 = _phase(ctx, schedule, moves, lambda key: dtypes[key[0]], targets, dtype)

    moves = [
        Move(grid.rank(p.a, p.b, p.way), p.owner, (p.a, p.b, p.way), p.owner, p.part, p.block)
        for p in route_faces(out_layout, "N", Iparts, Jparts, S, grown)
    ]
    J = B.shape[1]
    targets = {t: (t, (out_layout.count(t), J)) for t in out_layout.participants()}
    phase5 = _phase(ctx, schedule, moves, lambda key: dtype, targets, dtype)
    return _Route(owners, phase1, phase5, grown)
