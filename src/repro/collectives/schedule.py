"""Collective schedules, built once per group shape (paper Appendix A).

A collective's *schedule* -- who sends to whom in which round, which
destinations each message covers, and in which order a reduction
combines what it receives -- depends only on the group size and the
root (for a reduce-scatter, on which contributions are present).  What
a call adds is the words.  Every message covers a contiguous run of
per-destination word counts, so one prefix sum over the call's counts
prices all of them.

So the two are separate: the builders below are pure functions of
``(size, root)``, memoized in :data:`schedule_memo`, and :func:`charge`
maps a schedule onto a context's machine ranks and a call's word counts
and meters it with **one** :meth:`~repro.machine.Machine.charge`.  The
recursive halving the builders walk (paper Appendix A.1 / A.2) runs
once per shape, not once per call.

>>> broadcast_tree(4, 0).rounds
((((0, 2, 0, 1),), ()), (((0, 1, 0, 1),), ()), (((2, 3, 0, 1),), ()))
>>> reduce_tree(3, 0).orders
((0, 1), 2)

The memo is a :class:`~repro.util.memo.Memo` (an LRU, guarded by a lock
because ``run_many`` callers record concurrently) under one byte budget,
:data:`SCHEDULE_MEMO_BYTES`, that counts every object an entry keeps
alive.  It is process-global, like
:data:`repro.matmul.mm3d.route_memo`, and ``clear_plan_cache`` leaves it
alone.

Paper anchor: Appendix A.1 / A.2 (binomial-tree and bidirectional-exchange schedules).
"""

from __future__ import annotations

import sys
from itertools import accumulate
from typing import Any, Callable, NamedTuple, Sequence

from repro.collectives.context import CommContext
from repro.util.memo import Memo

#: Byte budget of :data:`schedule_memo` (its initial ``budget``).  Its
#: largest entry at a group of 512 is a full reduce-scatter's (1.1 MB; a
#: binomial tree's is 0.1-0.2 MB); the benchmark's three workloads and
#: their symbolic siblings keep 40 entries, 0.33 MB, alive.
SCHEDULE_MEMO_BYTES = 8 << 20


class Schedule(NamedTuple):
    """A collective's schedule in group ranks, independent of any call's words.

    ``rounds`` are ``(sends, combines)`` pairs: the sends of a round are
    simultaneous, and its combines follow them.  A send ``(src, dst, lo,
    hi)`` carries ``upto[hi] - upto[lo]`` words and a combine ``(rank,
    lo, hi)`` charges as many flops, where ``upto`` is the prefix sum of
    the call's word counts -- taken through ``index`` when it is not
    ``None`` (a reduce-scatter with absent contributions, whose messages
    cover scattered destinations).  ``orders`` is what a reduction's
    combine kernel sums in: nested pairs of group ranks (per destination
    for a reduce-scatter, ``None`` where nothing contributes).
    """

    rounds: tuple
    orders: Any = None
    index: tuple | None = None


# ----------------------------------------------------------------------
# The memo
# ----------------------------------------------------------------------

def nbytes(obj: Any) -> int:
    """Bytes of ``obj`` and every tuple, list and number it reaches, each once."""
    seen: set[int] = set()
    stack = [obj]
    total = 0
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)
        if isinstance(o, (tuple, list)):
            stack.extend(o)
    return total


#: The process's schedule memo (see the module docstring), keyed by
#: ``(builder, *arguments)``; an entry counts :func:`nbytes` of its
#: schedule.
schedule_memo = Memo(SCHEDULE_MEMO_BYTES)


def _memoized(build: Callable[..., Schedule]) -> Callable[..., Schedule]:
    """``build`` looked up in :data:`schedule_memo` by its arguments.

    A miss builds outside the memo's lock: builders are pure, so two
    callers racing on one key build equal schedules, and the later
    ``put`` replaces the earlier one.
    """

    def get(*args) -> Schedule:
        key = (build, *args)
        schedule = schedule_memo.get(key)
        if schedule is None:
            schedule = build(*args)
            schedule_memo.put(key, schedule, nbytes(schedule))
        return schedule

    get.__name__ = build.__name__
    get.__doc__ = build.__doc__
    get.build = build
    return get


# ----------------------------------------------------------------------
# Binomial trees (Appendix A.1)
# ----------------------------------------------------------------------

def tree_edges(lo: int, hi: int, r: int, post: bool):
    """The tree edges ``(r, r2, other half)`` of group ``[lo, hi)`` rooted at ``r``.

    The group splits into halves of ``ceil`` and ``floor`` its size; the
    root's peer ``r2`` is the lowest rank of the opposite half, and both
    halves recurse (``r``'s first).  An edge comes before its subtrees
    (``post=False``: a broadcast's or scatter's order) or after them
    (``post=True``: a gather's or reduce's).
    """
    if hi - lo == 1:
        return
    mid = lo + (hi - lo + 1) // 2
    mine, other, r2 = ((lo, mid), (mid, hi), mid) if r < mid else ((mid, hi), (lo, mid), lo)
    if not post:
        yield r, r2, other
    yield from tree_edges(*mine, r, post)
    yield from tree_edges(*other, r2, post)
    if post:
        yield r, r2, other


@_memoized
def broadcast_tree(size: int, root: int) -> Schedule:
    """Binomial broadcast: each edge sends the whole value (the call's one word count)."""
    return Schedule(tuple((((r, r2, 0, 1),), ()) for r, r2, _ in tree_edges(0, size, root, False)))


@_memoized
def scatter_tree(size: int, root: int) -> Schedule:
    """Binomial scatter: each edge carries the blocks of the peer's half."""
    return Schedule(tuple((((r, r2, *other),), ()) for r, r2, other in tree_edges(0, size, root, False)))


@_memoized
def gather_tree(size: int, root: int) -> Schedule:
    """Binomial gather: each edge brings the peer's half home, after both halves gathered."""
    return Schedule(tuple((((r2, r, *other),), ()) for r, r2, other in tree_edges(0, size, root, True)))


@_memoized
def reduce_tree(size: int, root: int) -> Schedule:
    """Binomial reduce: each edge carries the peer's own block, added on arrival.

    Its combine order nests the root's subtree before its peer's.
    """
    order: list[Any] = list(range(size))
    rounds = []
    for r, r2, _ in tree_edges(0, size, root, True):
        order[r] = (order[r], order[r2])
        rounds.append((((r2, r, r2, r2 + 1),), ((r, r2, r2 + 1),)))
    return Schedule(tuple(rounds), order[root])


# ----------------------------------------------------------------------
# Bidirectional exchange (Appendix A.2)
# ----------------------------------------------------------------------

def _pairs(lo: int, mid: int, hi: int):
    return zip(range(lo, mid), range(mid, hi))


@_memoized
def all_gather_rounds(size: int) -> Schedule:
    """Bidirectional all-gather: one exchange round per group, after both halves.

    Once both halves are done every member holds its whole half, so each
    message carries the sender's half.  In the unbalanced case the extra
    larger-half member stays silent while ``s2[0]`` "sends to both of q,
    q' but receives from one".
    """
    rounds: list = []
    _all_gather(0, size, rounds)
    return Schedule(tuple(rounds))


def _all_gather(lo: int, hi: int, rounds: list) -> None:
    """Append group ``[lo, hi)``'s rounds to ``rounds``, its halves' first."""
    if hi - lo == 1:
        return
    mid = lo + (hi - lo + 1) // 2
    _all_gather(lo, mid, rounds)
    _all_gather(mid, hi, rounds)
    sends = [m for a, b in _pairs(lo, mid, hi) for m in ((a, b, lo, mid), (b, a, mid, hi))]
    if mid - lo > hi - mid:
        sends.append((mid, mid - 1, mid, hi))
    rounds.append((tuple(sends), ()))


@_memoized
def reduce_scatter_rounds(size: int, pattern: bytes | None) -> Schedule:
    """Bidirectional reduce-scatter: one exchange round per group, before its halves.

    Every member of one half sends the other half's partial sums to its
    partner (in the unbalanced case ``s2[0]`` also receives from the
    extra ``s1`` member), and a received partial is added after the held
    one.  ``pattern[p * size + q]`` says whether group rank ``p``
    contributes for destination ``q``; ``None`` means every one does.
    """
    if pattern is not None:
        return _sparse_reduce_scatter(size, pattern)
    rounds: list = []
    # Every member of a full group holds one partial sum for each of
    # the group's destinations, all in the same order: one per rank.
    order: list[Any] = list(range(size))
    _reduce_scatter(0, size, order, rounds)
    return Schedule(tuple(rounds), tuple(order))


def _reduce_scatter(lo: int, hi: int, order: list, rounds: list) -> None:
    """Append group ``[lo, hi)``'s rounds, its halves' after; nest ``order``."""
    if hi - lo == 1:
        return
    mid = lo + (hi - lo + 1) // 2
    sends = [m for a, b in _pairs(lo, mid, hi) for m in ((a, b, mid, hi), (b, a, lo, mid))]
    if mid - lo > hi - mid:
        sends.append((mid - 1, mid, mid, hi))
    before = order[lo:hi]
    for s, d, _, _ in sends:
        order[d] = (order[d], before[s - lo])
    rounds.append((tuple(sends), tuple((d, l, h) for _, d, l, h in sends)))
    _reduce_scatter(lo, mid, order, rounds)
    _reduce_scatter(mid, hi, order, rounds)


def _sparse_reduce_scatter(size: int, pattern: bytes) -> Schedule:
    """:func:`reduce_scatter_rounds` with absent contributions.

    A message covers the destinations its sender holds a partial for, and
    a combine the ones its receiver held already; both are runs of
    ``index``.  Destinations nobody contributes to have order ``None``.
    """
    held = [{q: p for q in range(size) if pattern[p * size + q]} for p in range(size)]
    index: list[int] = []
    rounds: list = []
    _sparse(0, size, held, index, rounds)
    return Schedule(tuple(rounds), tuple(held[q].get(q) for q in range(size)), tuple(index))


def _run(index: list, qs) -> tuple[int, int]:
    """Append ``qs`` to ``index``; the run they occupy."""
    lo = len(index)
    index.extend(qs)
    return lo, len(index)


def _shed(mine: dict, dests: range) -> dict[int, Any]:
    """Take the partials for ``dests`` out of ``mine``."""
    return {q: mine.pop(q) for q in dests if q in mine}


def _sparse(lo: int, hi: int, held: list, index: list, rounds: list) -> None:
    """:func:`_reduce_scatter` over the partials each rank ``held``."""
    if hi - lo == 1:
        return
    mid = lo + (hi - lo + 1) // 2
    s1, s2 = range(lo, mid), range(mid, hi)
    plan = [m for a, b in zip(s1, s2)
            for m in ((a, b, _shed(held[a], s2)), (b, a, _shed(held[b], s1)))]
    if len(s1) > len(s2):
        plan.append((s1[-1], s2[0], _shed(held[s1[-1]], s2)))
    sends = tuple((s, d, *_run(index, send)) for s, d, send in plan)
    combines = []
    for _s, d, send in plan:
        mine, added = held[d], []
        for q, order in send.items():
            if q in mine:
                mine[q] = (mine[q], order)
                added.append(q)
            else:
                mine[q] = order
        combines.append((d, *_run(index, added)))
    rounds.append((sends, tuple(combines)))
    _sparse(lo, mid, held, index, rounds)
    _sparse(mid, hi, held, index, rounds)


# ----------------------------------------------------------------------
# Charging a schedule
# ----------------------------------------------------------------------

def charge(
    ctx: CommContext, schedule: Schedule, words: Sequence[int], label: str, combine_label: str = ""
) -> None:
    """Meter ``schedule`` on ``ctx`` for per-destination word counts ``words``.

    Maps group ranks to machine ranks, prices each message and combine
    off one prefix sum, and makes one :meth:`~repro.machine.Machine.charge`.
    """
    if schedule.index is not None:
        words = [words[q] for q in schedule.index]
    upto = [0, *accumulate(words)]
    g = ctx.ranks
    ctx.machine.charge(
        [
            ([(g[s], g[d], upto[h] - upto[l]) for s, d, l, h in sends],
             [(g[p], upto[h] - upto[l]) for p, l, h in combines] if combines else ())
            for sends, combines in schedule.rounds
        ],
        label,
        combine_label,
    )
