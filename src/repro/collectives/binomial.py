"""Binomial-tree collectives (paper Appendix A.1).

scatter / gather / broadcast / reduce / all-reduce via recursive halving
over an arbitrary processor group.  At each level the group splits into
two halves of sizes ``ceil(P/2)`` and ``floor(P/2)``; the current root
exchanges with a representative of the opposite half and both halves
recurse in parallel.  That tree is a schedule built once per ``(size,
root)`` (:mod:`~repro.collectives.schedule`); a call prices its edges
off the payloads' word counts and charges them in one machine call.

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
from repro.collectives import schedule
from repro.collectives.context import CommContext
from repro.machine import MachineError, words_of


def check_root(ctx: CommContext, root: int) -> None:
    if not (0 <= root < ctx.size):
        raise MachineError(f"root {root} out of range for group of size {ctx.size}")


def check_count(ctx: CommContext, items: Sequence[Any], what: str) -> None:
    if len(items) != ctx.size:
        raise MachineError(f"{what} needs {ctx.size} contributions, got {len(items)}")


def scatter(ctx: CommContext, root: int, blocks: Sequence[Any]) -> list[Any]:
    """Scatter ``blocks[q]`` from ``root`` to each group rank ``q``.

    ``blocks`` need only be meaningful at the root.  Returns a list whose
    entry ``q`` is the payload now held by group rank ``q``.
    """
    check_root(ctx, root)
    if len(blocks) != ctx.size:
        raise MachineError(f"scatter needs {ctx.size} blocks, got {len(blocks)}")
    words = [words_of(b) for b in blocks]
    schedule.charge(ctx, schedule.scatter_tree(ctx.size, root), words, "scatter")
    return list(blocks)


def gather(ctx: CommContext, root: int, contributions: Sequence[Any]) -> list[Any]:
    """Gather each rank's contribution to ``root``.

    Returns the list (indexed by group rank) assembled at the root; a
    ``None`` contribution travels for free.
    """
    check_root(ctx, root)
    check_count(ctx, contributions, "gather")
    words = [words_of(c) for c in contributions]
    schedule.charge(ctx, schedule.gather_tree(ctx.size, root), words, "gather")
    return list(contributions)


def broadcast_binomial(ctx: CommContext, root: int, value: Any) -> Any:
    """Binomial-tree broadcast of ``value`` from ``root`` to the whole group.

    After the call every group member holds ``value``; receivers must
    treat it as read-only (the simulator shares the object rather than
    deep-copying).  Cost: ``B log P`` words, ``log P`` messages.
    """
    check_root(ctx, root)
    schedule.charge(ctx, schedule.broadcast_tree(ctx.size, root), [words_of(value)], "bcast_binomial")
    return value


def combine_arrays(order, *blocks):
    """Sum ``blocks`` in ``order``: nested pairs of indices into ``blocks``.

    The combine kernel of every reduction (dispatched by :func:`combine`):
    the schedule decides the pairing, this evaluates it.

    >>> combine_arrays((0, (2, 1)), np.ones(2), np.full(2, 2.0), np.full(2, 4.0)).tolist()
    [7.0, 7.0]
    """

    return _total(order, blocks)


def _total(order, blocks):
    if isinstance(order, tuple):
        return _total(order[0], blocks) + _total(order[1], blocks)
    return blocks[order]


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
    check_root(ctx, root)
    check_count(ctx, contributions, "reduce")
    tree = schedule.reduce_tree(ctx.size, root)
    words = [words_of(c) for c in contributions]
    schedule.charge(ctx, tree, words, "reduce_binomial", "reduce_combine")
    return combine(ctx, root, partial(combine_arrays, tree.orders), contributions, "reduce_combine")


def all_reduce_binomial(ctx: CommContext, contributions: Sequence[np.ndarray]) -> np.ndarray:
    """Reduce-then-broadcast all-reduce (binomial tree both ways)."""
    return broadcast_binomial(ctx, 0, reduce_binomial(ctx, 0, contributions))
