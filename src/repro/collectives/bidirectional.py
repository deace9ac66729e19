"""Bidirectional-exchange collectives (paper Appendix A.2).

reduce-scatter and all-gather via recursive halving with pairwise
exchanges, plus the large-block broadcast / reduce / all-reduce built
from them (scatter+all-gather and reduce-scatter+gather/all-gather).

The point of these algorithms -- and the reason 1d-caqr-eg exists -- is
that for block size ``B`` large relative to ``P`` they move ``O(B)``
words instead of the binomial tree's ``O(B log P)``.  Their exchange
rounds, and a reduce-scatter's combine orders, are schedules built once
per group size (:mod:`~repro.collectives.schedule`); a call prices them
off its word counts and charges them in one machine call.

>>> import numpy as np
>>> from repro.collectives.context import CommContext
>>> from repro.machine import Machine
>>> ctx = CommContext.world(Machine(3))
>>> everywhere = all_gather(ctx, [np.full(2, float(p)) for p in range(3)])
>>> [b.tolist() for b in everywhere[1]]    # rank 1 now holds all blocks
[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]

Paper anchor: Appendix A.2, Table 1 (bidirectional-exchange collectives).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Sequence

import numpy as np

from repro.collectives import binomial, schedule
from repro.collectives.context import CommContext
from repro.machine import Counted, MachineError, words_of
from repro.util import balanced_partition


def reduce_scatter(
    ctx: CommContext,
    contributions: Sequence[Sequence[np.ndarray | None]],
) -> list[np.ndarray | None]:
    """Reduce-scatter: ``out[q] = sum_p contributions[p][q]``, held at ``q``.

    ``contributions[p][q]`` is the block processor ``p`` contributes for
    destination ``q`` (``None`` means no contribution).  Shapes for a
    fixed ``q`` must agree across contributing ``p``.  Cost: ``(P-1)B``
    words and flops, ``log P`` messages, ``B`` the largest block.  Each
    destination sums its contributions in one ``reduce_scatter_add``
    kernel (none for a single contributor).  Recursive halving: every
    member of one half sends the other half's partial sums to its
    partner and adds what it receives after what it holds
    (:func:`~repro.collectives.schedule.reduce_scatter_rounds`).
    """
    P = ctx.size
    if len(contributions) != P:
        raise MachineError(f"reduce_scatter needs {P} contribution lists, got {len(contributions)}")
    for p, row in enumerate(contributions):
        if len(row) != P:
            raise MachineError(f"contribution list of rank {p} has length {len(row)}, expected {P}")
    columns = [[row[q] for row in contributions] for q in range(P)]
    words = [max(words_of(blk) for blk in column) for column in columns]
    pattern = bytes(blk is not None for row in contributions for blk in row)
    rounds = schedule.reduce_scatter_rounds(P, None if all(pattern) else pattern)
    schedule.charge(ctx, rounds, words, "reduce_scatter", "reduce_scatter_add")
    return [
        binomial.combine(ctx, q, partial(binomial.combine_arrays, order), columns[q],
                         "reduce_scatter_add")
        for q, order in enumerate(rounds.orders)
    ]


def all_gather(ctx: CommContext, blocks: Sequence[Any]) -> list[list[Any]]:
    """All-gather: every rank ends with ``[blocks[0], ..., blocks[P-1]]``.

    Head recursion reversing reduce-scatter's pattern
    (:func:`~repro.collectives.schedule.all_gather_rounds`): each
    message carries the sender's half, a word count off a prefix sum.
    Cost: ``(P-1)B`` words in ``log P`` messages.
    """
    P = ctx.size
    if len(blocks) != P:
        raise MachineError(f"all_gather needs {P} blocks, got {len(blocks)}")
    words = [words_of(blk) for blk in blocks]
    schedule.charge(ctx, schedule.all_gather_rounds(P), words, "all_gather")
    return [list(blocks) for _ in range(P)]


# ----------------------------------------------------------------------
# Large-block broadcast / reduce / all-reduce built from the above
# ----------------------------------------------------------------------

def combine_pieces(pieces, *blocks):
    """Sum each flat piece ``(start, stop, order)`` of ``blocks``; reassemble.

    The combine kernel of the bidirectional reduce / all-reduce: piece
    ``q`` of the result is :func:`~repro.collectives.binomial.combine_arrays`
    of the contributions' flat ``[start:stop]`` slices in ``order``.

    >>> combine_pieces([(0, 1, (0, 1)), (1, 2, (1, 0))], np.ones(2), np.full(2, 2.0)).tolist()
    [3.0, 3.0]
    """
    flats = [blk.reshape(-1) for blk in blocks]
    sums = [binomial.combine_arrays(order, *(f[start:stop] for f in flats))
            for start, stop, order in pieces]
    return np.concatenate(sums).reshape(blocks[0].shape)


def _reduce_pieces(ctx: CommContext, contributions: Sequence[np.ndarray]):
    """Charge the reduce-scatter of balanced flat pieces of ``contributions``.

    Returns the summed pieces' word counts and the ``combine_pieces``
    kernel that computes the whole result.
    """
    P = ctx.size
    binomial.check_count(ctx, contributions, "reduce")
    parts = balanced_partition(words_of(contributions[0]), P)
    words = [len(part) for part in parts]
    rounds = schedule.reduce_scatter_rounds(P, None)
    schedule.charge(ctx, rounds, words, "reduce_scatter", "reduce_scatter_add")
    pieces = [(part.start, part.stop, order) for part, order in zip(parts, rounds.orders)]
    return [Counted(w) for w in words], partial(combine_pieces, pieces)


def broadcast_bidirectional(ctx: CommContext, root: int, value: Any) -> Any:
    """Broadcast = scatter + all-gather (paper Eq. 20).

    Moves ``O((P-1) ceil(B/P))`` words per endpoint -- asymptotically
    ``2B`` for ``B >> P`` -- in ``2 log P`` messages.  The pieces are
    word counts, so any payload can travel; every rank ends up holding
    ``value`` itself.
    """
    pieces = [Counted(len(part)) for part in balanced_partition(words_of(value), ctx.size)]
    all_gather(ctx, binomial.scatter(ctx, root, pieces))
    return value


def reduce_bidirectional(
    ctx: CommContext, root: int, contributions: Sequence[np.ndarray]
) -> np.ndarray:
    """Reduce = reduce-scatter + gather (paper Eq. 21)."""
    binomial.check_root(ctx, root)
    pieces, kernel = _reduce_pieces(ctx, contributions)
    binomial.gather(ctx, root, pieces)
    return binomial.combine(ctx, root, kernel, contributions, "reduce_scatter_add")


def all_reduce_bidirectional(
    ctx: CommContext, contributions: Sequence[np.ndarray]
) -> np.ndarray:
    """All-reduce = reduce-scatter + all-gather (paper Eq. 21)."""
    pieces, kernel = _reduce_pieces(ctx, contributions)
    all_gather(ctx, pieces)
    return binomial.combine(ctx, 0, kernel, contributions, "reduce_scatter_add")
