"""All-to-all: radix-2 index algorithm and the two-phase variant.

The index algorithm [BHK+97] runs ``d = ceil(log2 P)`` rounds; in round
``i`` each processor forwards to ``(p + 2^i) mod P`` every block it
currently holds whose remaining distance to its destination has bit ``i``
set.  Every block reaches its destination after ``d`` rounds, giving
``log P`` messages but up to ``B P/2`` words per round.

The two-phase variant [HBJ96] first *deals* each block's elements
cyclically across intermediate processors, runs two index all-to-alls
(to intermediates, then to true destinations), and reassembles.  This
bounds the bandwidth by ``(B* + P^2) log P`` where ``B*`` is the maximum
number of words any processor holds before/after -- the bound Section 7
relies on (and the source of the ``P^2`` term in Eq. 13).

:func:`all_to_all_index` moves tagged bundles hop by hop.  The
two-phase variant never ships elements (reassembly is exact), so it
only *accounts*: the chunk traffic of both phases comes from the
``(source, destination, size)`` vectors of all blocks at once
(:func:`_dealt_chunks`, sparse difference events rather than a
``P x P`` matrix) and is charged by a per-round numpy walk over
``(holder, destination, words)`` triplets (:func:`_route_costs`) --
the same rounds, messages and words as routing every chunk, at
paper-scale ``P``.

Deciding the rounds and charging them are two steps.
:func:`two_phase_rounds` and :func:`index_rounds` are pure functions
``(P, source, dest, size) -> rounds``: a round is its label and its
``(src, dst, words)`` sends, in group ranks.
:func:`charge_rounds` meters a schedule on a context, one
``exchange_round`` per round.  :func:`all_to_all_two_phase` is the two
steps back to back.  :func:`~repro.matmul.mm3d` keeps the schedule of
each distinct multiply in its route memo (keyed on the layouts, grid,
dtypes and method that determine it) and only charges it on a repeat;
:func:`~repro.dist.redistribute_rows` derives it on every call.

Paper anchor: Table 1 ([HBJ96] index and [BHK+97] two-phase all-to-all).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.backend import asarray
from repro.collectives.context import CommContext
from repro.machine import Counted, MachineError, words_of
from repro.util import ilog2

#: An item is (dest_group_rank, tag, array).  Tags are opaque to routing.
Item = tuple[int, Any, np.ndarray]
#: One metered round: its label and its ``(src, dst, words)`` sends, in
#: group ranks -- plain ints, so a kept schedule holds no GC-tracked object.
Round = tuple[str, tuple[tuple[int, int, int], ...]]


def _route_bundles(ctx: CommContext, holding: list[list[list]], deliver) -> None:
    """Radix-2 index routing of tagged per-destination bundles.

    ``holding[p]`` lists bundles ``[dest, tags, arrays, words]`` at group
    rank ``p``.  Each round ``i`` forwards to ``(p + 2^i) mod P`` every
    bundle whose remaining distance has bit ``i`` set, one coalesced
    message per sender per round; ``deliver(rank, bundle)`` fires when a
    bundle reaches its destination.  Because all bundles for one
    destination travel together, the charged messages, words, and
    rounds are identical to routing the underlying items one by one.
    """
    P = ctx.size
    for i in range(ilog2(P)):
        bit = 1 << i
        # Decide every processor's outgoing set against the start-of-round
        # state, then deliver the whole round simultaneously.
        outgoing: list[list[list]] = []
        for p in range(P):
            go: list[list] = []
            stay: list[list] = []
            for b in holding[p]:
                if ((b[0] - p) % P) & bit:
                    go.append(b)
                else:
                    stay.append(b)
            outgoing.append(go)
            holding[p] = stay
        round_plan = [
            (p, (p + bit) % P, Counted(sum(b[3] for b in outgoing[p])))
            for p in range(P)
            if outgoing[p]
        ]
        ctx.exchange_round(round_plan, label=f"alltoall_round{i}")
        for p in range(P):
            if not outgoing[p]:
                continue
            nxt = (p + bit) % P
            for b in outgoing[p]:
                if b[0] != nxt:
                    holding[nxt].append(b)
                else:
                    deliver(nxt, b)
    for p in range(P):
        if holding[p]:
            raise MachineError("index all-to-all left undelivered bundles (internal error)")


def all_to_all_index(
    ctx: CommContext, items_by_rank: Sequence[Sequence[Item]]
) -> list[list[tuple[Any, np.ndarray]]]:
    """Route tagged blocks with the radix-2 index algorithm.

    ``items_by_rank[p]`` is the list of ``(dest, tag, array)`` items
    initially held by group rank ``p``.  Returns ``received[q]``: the
    ``(tag, array)`` pairs delivered to ``q`` (self-addressed items are
    delivered without cost, in-place).

    Items sharing a (current holder, destination) pair follow the exact
    same route, so they are bundled once up front -- tags, arrays, and a
    precomputed word count -- and every hop moves whole bundles
    (:func:`_route_bundles`); only the per-hop Python bookkeeping
    shrinks from O(blocks) to O(bundles).
    """
    P = ctx.size
    if len(items_by_rank) != P:
        raise MachineError(f"all_to_all needs {P} item lists, got {len(items_by_rank)}")
    received: list[list[tuple[Any, np.ndarray]]] = [[] for _ in range(P)]
    # holding[p]: bundles [dest, tags, arrays, words] at p, not yet home.
    holding: list[list[list]] = []
    for p in range(P):
        buckets: dict[int, list] = {}
        for dest, tag, arr in items_by_rank[p]:
            if not (0 <= dest < P):
                raise MachineError(f"destination {dest} out of range for group of size {P}")
            if dest == p:
                received[p].append((tag, arr))
                continue
            b = buckets.get(dest)
            if b is None:
                b = buckets[dest] = [dest, [], [], 0]
            b[1].append(tag)
            b[2].append(arr)
            b[3] += words_of(arr)
        holding.append(list(buckets.values()))

    if P == 1:
        return received

    _route_bundles(ctx, holding, lambda nxt, b: received[nxt].extend(zip(b[1], b[2])))
    return received


def _dealt_chunks(
    P: int, rows: np.ndarray, base: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chunks of cyclically dealt blocks, summed per ``(row, column)``.

    Block ``k`` (``sizes[k]`` words) belongs to traffic-matrix row
    ``rows[k]`` and is dealt one word at a time over the columns
    ``base[k], base[k] + 1, ...`` (mod ``P``): every column gets
    ``sizes[k] // P`` words and the first ``sizes[k] % P`` one more.
    Returns the vectors ``(row, column, words)`` of the nonempty chunks
    -- each ``(row, column)`` once, words summed over the row's blocks
    -- plus, for a row with a block of ``P`` words or more, every
    column (such a block deals every column a chunk).

    Sparse throughout: the ``+1`` words a row deals form a sum of cyclic
    intervals, held as difference events (``+1`` where an interval
    starts, ``-1`` where it stops; the wrapped-around part of an
    interval is counted on the row's column-0 and column-``P`` anchors)
    and expanded only where a chunk exists -- never a dense ``P x P``
    matrix.
    """
    active, ridx = np.unique(rows, return_inverse=True)
    n_rows = active.size
    quo, rem = np.divmod(sizes, P)
    stop = base + rem
    wraps = stop > P
    row_quo = np.bincount(ridx, weights=quo, minlength=n_rows).astype(np.int64)
    row_wraps = np.bincount(ridx, weights=wraps, minlength=n_rows).astype(np.int64)

    stride = P + 1  # column P closes every row
    anchor = np.arange(n_rows) * stride
    ones = np.ones(ridx.size, dtype=np.int64)
    keys = np.concatenate(
        [ridx * stride + base, ridx * stride + np.where(wraps, stop - P, stop), anchor, anchor + P]
    )
    steps = np.concatenate([ones, -ones, row_wraps, -row_wraps])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # The running sum after the last event at a key is the +1 count on
    # the column segment from that key up to the next key of the row.
    last = np.flatnonzero(np.append(keys[1:] != keys[:-1], True))
    seg_row, seg_col = np.divmod(keys[last], stride)
    seg_ones = np.cumsum(steps[order])[last]
    keep = np.flatnonzero((seg_col < P) & ((row_quo[seg_row] > 0) | (seg_ones > 0)))
    length = seg_col[keep + 1] - seg_col[keep]
    first = np.cumsum(length) - length
    return (
        np.repeat(active[seg_row[keep]], length),
        np.repeat(seg_col[keep] - first, length) + np.arange(int(length.sum())),
        np.repeat(seg_ones[keep] + row_quo[seg_row[keep]], length),
    )


def _route_costs(P: int, holder: np.ndarray, dest: np.ndarray, words: np.ndarray) -> list[Round]:
    """Cost-only index all-to-all over ``(holder, dest, words)`` bundles.

    The rounds, messages and words the tagged :func:`all_to_all_index`
    charges for the same traffic: in round ``i`` every bundle whose
    remaining distance has bit ``i`` set hops ``2^i`` ranks on, one
    coalesced message per sender -- sent even when all its bundles are
    empty.  Self-addressed bundles do not travel, and a round in which
    nothing travels is left out (it would charge nothing).
    """
    rounds: list[Round] = []
    for i in range(ilog2(P)):
        bit = 1 << i
        away = holder != dest
        holder, dest, words = holder[away], dest[away], words[away]
        go = (((dest - holder) % P) & bit) != 0
        sent = np.bincount(holder[go], weights=words[go], minlength=P)
        senders = np.flatnonzero(np.bincount(holder[go], minlength=P))
        if senders.size:
            sends = zip(senders.tolist(), ((senders + bit) % P).tolist(),
                        sent[senders].astype(np.int64).tolist())
            rounds.append((f"alltoall_round{i}", tuple(sends)))
        holder = np.where(go, (holder + bit) % P, holder)
    if (holder != dest).any():
        raise MachineError("index all-to-all left undelivered bundles (internal error)")
    return rounds


def index_rounds(P: int, source: np.ndarray, dest: np.ndarray, size: np.ndarray) -> list[Round]:
    """The rounds :func:`all_to_all_index` charges for blocks ``(source, dest, size)``.

    Pure: the vectors hold one entry per block, in group ranks.

    >>> index_rounds(4, np.array([0, 0, 3]), np.array([1, 3, 3]), np.array([5, 2, 9]))
    [('alltoall_round0', ((0, 1, 7),)), ('alltoall_round1', ((1, 3, 2),))]
    """
    return _route_costs(P, source, dest, size)


def two_phase_rounds(P: int, source: np.ndarray, dest: np.ndarray, size: np.ndarray) -> list[Round]:
    """The rounds :func:`all_to_all_two_phase` charges for blocks ``(source, dest, size)``.

    Pure: the vectors hold one entry per block, in group ranks.  Phase
    1 moves the chunks of traffic-matrix row ``p`` to the intermediates
    and phase 2 moves the chunks of column ``q`` home, each phase one
    cost-only index all-to-all (:func:`_route_costs`).  An empty chunk
    still costs a message when it travels alone, and one does travel in
    phase 1: a block too short to reach its destination's own chunk
    (element ``-p mod P``) sends that chunk empty.
    """
    if P == 1 or not source.size:
        return []
    base = (source + dest) % P
    holder, mid, words = _dealt_chunks(P, source, base, size)
    short = (-source) % P >= size  # the destination's own chunk is empty
    empty = np.setdiff1d(source[short] * P + dest[short], holder * P + mid)
    rounds = _route_costs(
        P,
        np.concatenate([holder, empty // P]),
        np.concatenate([mid, empty % P]),
        np.concatenate([words, np.zeros_like(empty)]),
    )
    home, mid, words = _dealt_chunks(P, dest, base, size)
    return rounds + _route_costs(P, mid, home, words)


def charge_rounds(ctx: CommContext, rounds: Sequence[Round]) -> None:
    """Meter a round schedule on ``ctx``: one ``exchange_round`` per round."""
    for label, sends in rounds:
        ctx.exchange_round([(p, q, Counted(w)) for p, q, w in sends], label=label)


def all_to_all_two_phase(
    ctx: CommContext, items_by_rank: Sequence[Sequence[Item]]
) -> list[list[tuple[Any, np.ndarray]]]:
    """Two-phase load-balanced all-to-all ([HBJ96], paper Appendix A.3).

    Each source deals the elements of its block for destination ``q``
    cyclically over intermediate processors starting at ``(p + q) mod P``
    -- the chunk for intermediate ``t`` holds elements ``e`` with
    ``(p + q + e) % P == t`` -- then two index all-to-alls route chunks
    to intermediates and home, where blocks are reassembled elementwise.
    Balancing makes the per-round message sizes depend on ``B*``
    (row/column sums of the traffic matrix) rather than on the largest
    single block.

    The reassembly reconstructs each block exactly (every dealt element
    returns to its original flat position), so the simulation never
    ships elements: each destination receives the source's array object
    directly (the simulator's buffer-sharing convention), in
    deterministic (source rank, position in the source's list) order,
    and only the chunk *sizes* are routed: :func:`two_phase_rounds`
    derives the schedule from the vectors ``(source, destination,
    size)`` of all blocks, and :func:`charge_rounds` meters it.  The
    metered rounds, messages, and words are identical to routing every
    chunk individually.
    """
    P = ctx.size
    if len(items_by_rank) != P:
        raise MachineError(f"all_to_all needs {P} item lists, got {len(items_by_rank)}")
    received: list[list[tuple[Any, np.ndarray]]] = [[] for _ in range(P)]
    source: list[int] = []
    dest: list[int] = []
    size: list[int] = []
    for p, items in enumerate(items_by_rank):
        for q, tag, arr in items:
            if not (0 <= q < P):
                raise MachineError(f"destination {q} out of range for group of size {P}")
            arr = asarray(arr)
            received[q].append((tag, arr))
            dest.append(q)
            size.append(arr.size)
        source += [p] * len(items)
    source, dest, size = (np.asarray(v, dtype=np.int64) for v in (source, dest, size))
    charge_rounds(ctx, two_phase_rounds(P, source, dest, size))
    return received


def all_to_all_blocks(
    ctx: CommContext,
    blocks: Sequence[Sequence[np.ndarray | None]],
    method: str = "two_phase",
) -> list[list[np.ndarray | None]]:
    """Dense personalized exchange: ``out[q][p] = blocks[p][q]``.

    Convenience wrapper over the tagged item interface.  ``method`` is
    ``"two_phase"`` (default, the paper's choice) or ``"index"``.

    >>> import numpy as np
    >>> from repro.collectives.context import CommContext
    >>> from repro.machine import Machine
    >>> ctx = CommContext.world(Machine(2))
    >>> blocks = [[np.array([10.0 * p + q]) for q in range(2)] for p in range(2)]
    >>> out = all_to_all_blocks(ctx, blocks)
    >>> out[1][0].tolist()      # rank 1 received rank 0's block for it
    [1.0]
    """
    P = ctx.size
    items: list[list[Item]] = [[] for _ in range(P)]
    for p in range(P):
        if len(blocks[p]) != P:
            raise MachineError(f"blocks[{p}] has length {len(blocks[p])}, expected {P}")
        for q in range(P):
            if blocks[p][q] is not None:
                items[p].append((q, p, asarray(blocks[p][q])))
    if method == "two_phase":
        received = all_to_all_two_phase(ctx, items)
    elif method == "index":
        received = all_to_all_index(ctx, items)
    else:
        raise ValueError(f"unknown all-to-all method {method!r}")
    out: list[list[np.ndarray | None]] = [[None] * P for _ in range(P)]
    for q in range(P):
        for src, arr in received[q]:
            out[q][src] = arr
    return out
