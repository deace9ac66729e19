"""Binomial-tree collectives (paper Appendix A.1).

scatter / gather / broadcast / reduce / all-reduce via recursive halving
over an arbitrary processor group.  At each level the group splits into
two halves of sizes ``ceil(P/2)`` and ``floor(P/2)``; the current root
exchanges with a representative of the opposite half and both halves
recurse in parallel.

Cost shapes (Table 1): scatter/gather move ``(P-1)B`` words in ``log P``
messages along the critical path; broadcast/reduce move ``B log P``
words in ``log P`` messages (reduce also adds ``B log P`` flops).

>>> import numpy as np
>>> from repro.collectives.context import CommContext
>>> from repro.machine import Machine
>>> ctx = CommContext.world(Machine(4))
>>> out = scatter(ctx, 0, [np.full(3, float(q)) for q in range(4)])
>>> out[2].tolist()
[2.0, 2.0, 2.0]
>>> total = reduce_binomial(ctx, 0, [np.ones(3) for _ in range(4)])
>>> total.tolist()
[4.0, 4.0, 4.0]

Paper anchor: Appendix A.1, Table 1 (binomial-tree collectives).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Sequence

import numpy as np

from repro.backend import SymbolicArray
from repro.collectives.context import CommContext
from repro.machine import Counted, MachineError, Meta, words_of
from repro.util import ceil_div


def _split(members: list[int], r: int) -> tuple[list[int], list[int], int]:
    """Split ``members`` into halves; return (r's half, other half, peer root).

    The peer root is the lowest-ranked member of the opposite half,
    matching the deterministic tree shape assumed in the cost analysis.
    """
    h = ceil_div(len(members), 2)
    s1, s2 = members[:h], members[h:]
    if r in s1:
        mine, other = s1, s2
    else:
        mine, other = s2, s1
    return mine, other, other[0]


def _check_root(ctx: CommContext, root: int) -> None:
    if not (0 <= root < ctx.size):
        raise MachineError(f"root {root} out of range for group of size {ctx.size}")


def scatter(ctx: CommContext, root: int, blocks: Sequence[Any]) -> list[Any]:
    """Scatter ``blocks[q]`` from ``root`` to each group rank ``q``.

    ``blocks`` need only be meaningful at the root.  Returns a list whose
    entry ``q`` is the payload now held by group rank ``q``.
    """
    _check_root(ctx, root)
    if len(blocks) != ctx.size:
        raise MachineError(f"scatter needs {ctx.size} blocks, got {len(blocks)}")
    out: list[Any] = [None] * ctx.size

    def rec(members: list[int], r: int, blockmap: dict[int, Any]) -> None:
        if len(members) == 1:
            out[r] = blockmap.get(r)
            return
        mine, other, r2 = _split(members, r)
        send = {q: blockmap[q] for q in other if q in blockmap}
        ctx.transfer(r, r2, [Meta(sorted(send))] + [send[q] for q in sorted(send)], label="scatter")
        rec(mine, r, {q: blockmap[q] for q in mine if q in blockmap})
        rec(other, r2, send)

    rec(list(range(ctx.size)), root, {q: b for q, b in enumerate(blocks) if b is not None})
    return out


def gather(ctx: CommContext, root: int, contributions: Sequence[Any]) -> list[Any]:
    """Gather each rank's contribution to ``root``.

    Returns the list (indexed by group rank) assembled at the root; a
    ``None`` contribution travels for free.
    """
    _check_root(ctx, root)
    if len(contributions) != ctx.size:
        raise MachineError(f"gather needs {ctx.size} contributions, got {len(contributions)}")

    def rec(members: list[int], r: int) -> dict[int, Any]:
        if len(members) == 1:
            return {r: contributions[r]}
        mine, other, r2 = _split(members, r)
        held = rec(mine, r)
        remote = rec(other, r2)
        keys = sorted(remote)
        ctx.transfer(r2, r, [Meta(keys)] + [remote[q] for q in keys], label="gather")
        held.update(remote)
        return held

    got = rec(list(range(ctx.size)), root)
    return [got.get(q) for q in range(ctx.size)]


def broadcast_binomial(ctx: CommContext, root: int, value: Any) -> Any:
    """Binomial-tree broadcast of ``value`` from ``root`` to the whole group.

    After the call every group member holds ``value``; receivers must
    treat it as read-only (the simulator shares the object rather than
    deep-copying).  Cost: ``B log P`` words, ``log P`` messages.
    """
    _check_root(ctx, root)

    def rec(members: list[int], r: int) -> None:
        if len(members) == 1:
            return
        mine, other, r2 = _split(members, r)
        ctx.transfer(r, r2, value, label="bcast_binomial")
        rec(mine, r)
        rec(other, r2)

    rec(list(range(ctx.size)), root)
    return value


def combine_arrays(order, *blocks):
    """Sum ``blocks`` in ``order``: nested pairs of indices into ``blocks``.

    The combine kernel of every reduction (dispatched by :func:`combine`):
    the schedule decides the pairing, this evaluates it.

    >>> combine_arrays((0, (2, 1)), np.ones(2), np.full(2, 2.0), np.full(2, 4.0)).tolist()
    [7.0, 7.0]
    """

    def total(o):
        return total(o[0]) + total(o[1]) if isinstance(o, tuple) else blocks[o]

    return total(order)


def combine(ctx: CommContext, p: int, kernel, blocks: Sequence[Any], label: str) -> Any:
    """Run ``kernel(*blocks)``, a sum of the non-``None`` ``blocks``, on group rank ``p``.

    One ``machine.kernel`` call; a lone contribution is returned as is
    and none at all as ``None``, with no kernel.
    """
    present = [b for b in blocks if b is not None]
    if len(present) <= 1:
        return present[0] if present else None
    meta = SymbolicArray(present[0].shape, np.result_type(*{b.dtype for b in present}))
    return ctx.machine.kernel(ctx.ranks[p], kernel, tuple(blocks), meta, label=label)


def reduce_binomial(ctx: CommContext, root: int, contributions: Sequence[np.ndarray]) -> np.ndarray:
    """Binomial-tree reduction of per-rank arrays to ``root``.

    Blocks are combined as soon as they are received, so each tree edge
    carries exactly one block: ``B log P`` words and flops, ``log P``
    messages.  The schedule moves word counts; one ``reduce_combine``
    kernel on the root sums the contributions in the tree's order.
    """
    _check_root(ctx, root)
    if len(contributions) != ctx.size:
        raise MachineError(f"reduce needs {ctx.size} contributions, got {len(contributions)}")

    def rec(members: list[int], r: int):
        if len(members) == 1:
            return r
        mine, other, r2 = _split(members, r)
        a = rec(mine, r)
        b = rec(other, r2)
        words = words_of(contributions[r2])
        ctx.transfer(r2, r, Counted(words), label="reduce_binomial")
        ctx.compute(r, float(words), label="reduce_combine")
        return a, b

    order = rec(list(range(ctx.size)), root)
    return combine(ctx, root, partial(combine_arrays, order), contributions, "reduce_combine")


def all_reduce_binomial(ctx: CommContext, contributions: Sequence[np.ndarray]) -> np.ndarray:
    """Reduce-then-broadcast all-reduce (binomial tree both ways)."""
    return broadcast_binomial(ctx, 0, reduce_binomial(ctx, 0, contributions))
