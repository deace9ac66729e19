"""The schedule-charged collectives against the implementations they replaced.

``reduce_binomial``, ``reduce_scatter`` and the bidirectional broadcast /
reduce / all-reduce used to push every payload piece through numpy:
slice, add, concatenate, reshape.  The binomial broadcast / scatter /
gather and the all-gather re-derived their trees by recursion on every
call and charged one ``transfer`` (or ``exchange_round``) per message.
Every collective is now a schedule memoized per group shape
(:mod:`repro.collectives.schedule`), priced off the call's word counts
and charged in one ``Machine.charge`` loop, plus at most one combine
kernel per reduction result.  The old implementations live on below as
the oracle -- recursive, array-moving, and metered message by message
through the machine's scalar ``ClockSet.send`` / ``recv`` path -- and a
hypothesis property holds the new ones to them on every backend:

* values **bit for bit** (numeric and parallel; shape and dtype on
  symbolic, which has no values);
* the ``CostReport``, ``words_by_label``, all four per-processor clock
  vectors and, traced, the event sequence ``(kind, proc, peer, flops,
  words, label)`` -- every case runs both traced and untraced, since the
  charge loop only appends events when a trace is on;
* on the parallel backend, the only recorded tasks are the combine
  kernels, on the result's rank;
* a collective called twice on one machine (the second call charges the
  memoized schedule) meters like the oracle called twice.

Covered: P = 1 ... 17 (odd sizes included), every root, groups that are
a shuffled subset of the machine, zero-size blocks, blocks smaller than
P (empty pieces), ``None`` patterns in ``reduce_scatter`` / ``scatter``
/ ``gather``, and float64 / float32 / complex128.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import SymbolicArray, asarray
from repro.collectives import (
    CommContext,
    all_gather,
    all_reduce_bidirectional,
    all_reduce_binomial,
    broadcast_bidirectional,
    broadcast_binomial,
    gather,
    reduce_bidirectional,
    reduce_binomial,
    reduce_scatter,
    scatter,
)
from repro.machine import METRICS, Counted, Machine, MachineError, Meta, words_of
from repro.util import balanced_partition, ceil_div

# ----------------------------------------------------------------------
# The oracle's primitives: one message at a time, in group ranks
# ----------------------------------------------------------------------


def _transfer(ctx: CommContext, src: int, dst: int, payload, label: str) -> None:
    ctx.machine.transfer(ctx.ranks[src], ctx.ranks[dst], payload, label=label)


def _compute(ctx: CommContext, p: int, flops: float, label: str) -> None:
    ctx.machine.compute(ctx.ranks[p], flops, label=label)


def _exchange(ctx: CommContext, plan, label: str) -> None:
    """One simultaneous round through ``ClockSet.send`` / ``recv``, message by message.

    The per-message ``Machine.exchange_round`` as it was before the
    machine charged whole schedules in one loop.
    """
    machine = ctx.machine
    clocks, trace = machine.clocks, machine.trace
    staged = []
    for s, d, payload in plan:
        src, dst = ctx.ranks[s], ctx.ranks[d]
        if src == dst:
            continue
        w = words_of(payload)
        snap = clocks.send(src, w)
        idx = trace.append("send", src, peer=dst, words=w, label=label) if trace is not None else -1
        staged.append((dst, src, w, snap, idx))
    for dst, src, w, snap, idx in staged:
        clocks.recv(dst, w, snap)
        if trace is not None:
            trace.append("recv", dst, peer=src, words=w, match=idx, label=label)
    machine.total_words_sent += sum(w for _, _, w, _, _ in staged)
    machine.total_messages_sent += len(staged)
    if staged:
        key = label or "unlabeled"
        words = machine.words_by_label.get(key, 0) + sum(w for _, _, w, _, _ in staged)
        machine.words_by_label[key] = words


def _split(members: list[int], r: int) -> tuple[list[int], list[int], int]:
    """Split ``members`` into halves; return (r's half, other half, peer root)."""
    h = ceil_div(len(members), 2)
    s1, s2 = members[:h], members[h:]
    mine, other = (s1, s2) if r in s1 else (s2, s1)
    return mine, other, other[0]


# ----------------------------------------------------------------------
# The oracle: the recursive, array-moving implementations, as they were
# ----------------------------------------------------------------------


def _oracle_scatter(ctx: CommContext, root: int, blocks) -> list:
    out: list = [None] * ctx.size

    def rec(members: list[int], r: int, blockmap: dict) -> None:
        if len(members) == 1:
            out[r] = blockmap.get(r)
            return
        mine, other, r2 = _split(members, r)
        send = {q: blockmap[q] for q in other if q in blockmap}
        _transfer(ctx, r, r2, [Meta(sorted(send))] + [send[q] for q in sorted(send)], "scatter")
        rec(mine, r, {q: blockmap[q] for q in mine if q in blockmap})
        rec(other, r2, send)

    rec(list(range(ctx.size)), root, {q: b for q, b in enumerate(blocks) if b is not None})
    return out


def _oracle_gather(ctx: CommContext, root: int, contributions) -> list:
    def rec(members: list[int], r: int) -> dict:
        if len(members) == 1:
            return {r: contributions[r]}
        mine, other, r2 = _split(members, r)
        held = rec(mine, r)
        remote = rec(other, r2)
        keys = sorted(remote)
        _transfer(ctx, r2, r, [Meta(keys)] + [remote[q] for q in keys], "gather")
        held.update(remote)
        return held

    got = rec(list(range(ctx.size)), root)
    return [got.get(q) for q in range(ctx.size)]


def _oracle_broadcast_binomial(ctx: CommContext, root: int, value):
    def rec(members: list[int], r: int) -> None:
        if len(members) == 1:
            return
        mine, other, r2 = _split(members, r)
        _transfer(ctx, r, r2, value, "bcast_binomial")
        rec(mine, r)
        rec(other, r2)

    rec(list(range(ctx.size)), root)
    return value


def _oracle_reduce_binomial(ctx: CommContext, root: int, contributions) -> np.ndarray:
    def rec(members: list[int], r: int) -> np.ndarray:
        if len(members) == 1:
            return contributions[r]
        mine, other, r2 = _split(members, r)
        a = rec(mine, r)
        b = rec(other, r2)
        _transfer(ctx, r2, r, b, "reduce_binomial")
        _compute(ctx, r, float(words_of(b)), "reduce_combine")
        return np.add(a, b)

    return rec(list(range(ctx.size)), root)


def _oracle_all_reduce_binomial(ctx: CommContext, contributions) -> np.ndarray:
    return _oracle_broadcast_binomial(ctx, 0, _oracle_reduce_binomial(ctx, 0, contributions))


def _pairings(s1: list[int], s2: list[int]) -> list[tuple[int, int]]:
    if not (0 <= len(s1) - len(s2) <= 1):
        raise MachineError("halves must differ in size by at most one")
    pairs = [(s1[i], s2[i]) for i in range(len(s2))]
    if len(s1) > len(s2):
        pairs.append((s1[-1], s2[0]))
    return pairs


def _oracle_reduce_scatter(ctx: CommContext, contributions) -> list:
    P = ctx.size
    state: list[dict[int, np.ndarray]] = []
    for p in range(P):
        row = contributions[p]
        state.append({q: row[q] for q in range(P) if row[q] is not None})

    def rec(members: list[int]) -> None:
        if len(members) == 1:
            return
        h = ceil_div(len(members), 2)
        s1, s2 = members[:h], members[h:]
        set1, set2 = set(s1), set(s2)
        plan: list[tuple[int, int, dict[int, np.ndarray]]] = []
        seen_small: set[int] = set()
        for a, b in _pairings(s1, s2):
            plan.append((a, b, {q: state[a].pop(q) for q in sorted(set2) if q in state[a]}))
            if b not in seen_small:
                plan.append((b, a, {q: state[b].pop(q) for q in sorted(set1) if q in state[b]}))
                seen_small.add(b)
        _exchange(
            ctx,
            [(s, d, Counted(sum(words_of(blk) for blk in send.values()))) for s, d, send in plan],
            "reduce_scatter",
        )
        for _s, d, send in plan:
            flops = 0
            for q, blk in send.items():
                if q in state[d]:
                    state[d][q] = state[d][q] + blk
                    flops += blk.size
                else:
                    state[d][q] = blk
            if flops:
                _compute(ctx, d, float(flops), "reduce_scatter_add")
        rec(s1)
        rec(s2)

    rec(list(range(P)))
    return [state[q].get(q) for q in range(P)]


def _oracle_all_gather(ctx: CommContext, blocks) -> list[list]:
    P = ctx.size
    state: list[dict] = [{p: blocks[p]} for p in range(P)]

    def rec(members: list[int]) -> None:
        if len(members) == 1:
            return
        h = ceil_div(len(members), 2)
        s1, s2 = members[:h], members[h:]
        rec(s1)
        rec(s2)
        plan: list[tuple[int, int]] = []
        seen_small: set[int] = set()
        for a, b in _pairings(s1, s2):
            if b not in seen_small:
                plan.append((a, b))
                plan.append((b, a))
                seen_small.add(b)
            else:
                plan.append((b, a))
        snap = {m: dict(state[m]) for m in members}
        words = {s: sum(words_of(blk) for blk in snap[s].values()) for s in {s for s, _d in plan}}
        _exchange(ctx, [(s, d, Counted(words[s])) for s, d in plan], "all_gather")
        for s, d in plan:
            state[d].update(snap[s])

    rec(list(range(P)))
    return [[state[p][q] for q in range(P)] for p in range(P)]


def _split_array(value, P: int) -> list:
    flat = value.reshape(-1)
    return [flat[part.start : part.stop] for part in balanced_partition(flat.size, P)]


def _reassemble(pieces, shape, dtype):
    out = np.concatenate([asarray(p).reshape(-1) for p in pieces]) if pieces else np.empty(0, dtype)
    return out.reshape(shape)


def _oracle_broadcast_bidirectional(ctx: CommContext, root: int, value):
    value = asarray(value)
    pieces = _split_array(value, ctx.size)
    everywhere = _oracle_all_gather(ctx, _oracle_scatter(ctx, root, pieces))
    return _reassemble(everywhere[0], value.shape, value.dtype)


def _oracle_reduce_bidirectional(ctx: CommContext, root: int, contributions):
    P = ctx.size
    first = asarray(contributions[0])
    per_rank = [_split_array(asarray(contributions[p]), P) for p in range(P)]
    pieces = _oracle_gather(ctx, root, _oracle_reduce_scatter(ctx, per_rank))
    return _reassemble(pieces, first.shape, first.dtype)


def _oracle_all_reduce_bidirectional(ctx: CommContext, contributions):
    P = ctx.size
    first = asarray(contributions[0])
    per_rank = [_split_array(asarray(contributions[p]), P) for p in range(P)]
    everywhere = _oracle_all_gather(ctx, _oracle_reduce_scatter(ctx, per_rank))
    return _reassemble(everywhere[0], first.shape, first.dtype)


# ----------------------------------------------------------------------
# The property
# ----------------------------------------------------------------------

#: name -> (current, oracle, argument kind)
COLLECTIVES = {
    "broadcast_binomial": (broadcast_binomial, _oracle_broadcast_binomial, "value"),
    "scatter": (scatter, _oracle_scatter, "sparse"),
    "gather": (gather, _oracle_gather, "sparse"),
    "all_gather": (all_gather, _oracle_all_gather, "all"),
    "reduce_binomial": (reduce_binomial, _oracle_reduce_binomial, "rooted"),
    "all_reduce_binomial": (all_reduce_binomial, _oracle_all_reduce_binomial, "all"),
    "reduce_scatter": (reduce_scatter, _oracle_reduce_scatter, "matrix"),
    "broadcast_bidirectional": (broadcast_bidirectional, _oracle_broadcast_bidirectional, "value"),
    "reduce_bidirectional": (reduce_bidirectional, _oracle_reduce_bidirectional, "rooted"),
    "all_reduce_bidirectional": (all_reduce_bidirectional, _oracle_all_reduce_bidirectional, "all"),
}
#: Collectives that move blocks without combining them: no recorded task.
MOVERS = {"broadcast_binomial", "scatter", "gather", "all_gather", "broadcast_bidirectional"}


@st.composite
def cases(draw):
    P = draw(st.integers(1, 17))
    name = draw(st.sampled_from(sorted(COLLECTIVES)))
    extra = draw(st.integers(0, 2))
    ranks = draw(st.permutations(range(P + extra)))[:P]
    root = draw(st.integers(0, P - 1))
    dtype = draw(st.sampled_from(["float64", "float32", "complex128"]))
    shape = draw(st.sampled_from([(0,), (1,), (max(P - 1, 1),), (2, 0), (3, 5), (17,), (4, 9)]))
    sizes = draw(st.lists(st.integers(0, 5), min_size=P, max_size=P))
    row = st.lists(st.booleans(), min_size=P, max_size=P)
    present = draw(st.lists(row, min_size=P, max_size=P))
    seed = draw(st.integers(0, 2**16))
    return name, P + extra, ranks, root, dtype, shape, sizes, present, seed


def _block(shape, dtype, rng, backend, machine):
    if backend == "symbolic":
        return SymbolicArray(shape, dtype)
    x = rng.standard_normal(shape)
    if dtype == "complex128":
        x = x + 1j * rng.standard_normal(shape)
    return machine.ops.asarray(x.astype(dtype))


def _args(case, backend, machine, ctx):
    name, _size, _ranks, root, dtype, shape, sizes, present, seed = case
    rng = np.random.default_rng(seed)
    P = ctx.size
    kind = COLLECTIVES[name][2]
    if kind == "matrix":
        return ([[_block((sizes[q],), dtype, rng, backend, machine) if present[p][q] else None
                  for q in range(P)] for p in range(P)],)
    if kind == "value":
        return root, _block(shape, dtype, rng, backend, machine)
    if kind == "sparse":
        return root, [_block((sizes[q],), dtype, rng, backend, machine) if present[0][q] else None
                      for q in range(P)]
    blocks = [_block(shape, dtype, rng, backend, machine) for _ in range(P)]
    return (root, blocks) if kind == "rooted" else (blocks,)


def _run(fn, case, backend, trace=True, calls=1):
    """Call ``fn`` ``calls`` times on one machine; what it computed and metered."""
    name, size, ranks = case[:3]
    machine = Machine(size, backend=backend, trace=trace, workers=1)
    ctx = CommContext(machine, ranks)
    args = _args(case, backend, machine, ctx)
    before = len(machine.plan.tasks) if machine.plan is not None else 0
    for _ in range(calls):
        out = fn(ctx, *args)
    tasks = machine.plan.tasks[before:] if machine.plan is not None else []
    out = machine.materialize(out)
    events = [(e.kind, e.proc, e.peer, e.flops, e.words, e.label) for e in machine.trace or ()]
    clocks = [machine.clocks.per_processor(m).tolist() for m in METRICS]
    metering = (machine.report(), dict(machine.words_by_label), clocks, events)
    return out, metering, tasks, ctx


def _flat(out):
    if not isinstance(out, list):
        return [out]
    return [x for item in out for x in _flat(item)]


def _fingerprint(x, backend):
    if x is None:
        return None
    if backend == "symbolic":
        return x.shape, x.dtype
    x = np.asarray(x)
    return x.shape, x.dtype, x.tobytes()


def _check(case, backend, trace=True):
    name = case[0]
    new, old, _kind = COLLECTIVES[name]
    got, metering, tasks, ctx = _run(new, case, backend, trace)
    want, metering0, _tasks0, _ctx0 = _run(old, case, backend, trace)
    assert metering == metering0
    assert [_fingerprint(x, backend) for x in _flat(got)] == [
        _fingerprint(x, backend) for x in _flat(want)]
    if backend != "parallel":
        return
    # One combine kernel per reduction result, on the rank that holds it.
    if name == "reduce_scatter":
        present = case[7]
        holders = [ctx.ranks[q] for q in range(ctx.size)
                   if sum(present[p][q] for p in range(ctx.size)) > 1]
        assert [(t.label, t.rank) for t in tasks] == [("reduce_scatter_add", r) for r in holders]
    elif name in MOVERS:
        assert tasks == []
    else:
        label = "reduce_combine" if name.endswith("binomial") else "reduce_scatter_add"
        root = case[3] if COLLECTIVES[name][2] == "rooted" else 0
        expect = [(label, ctx.ranks[root])] if ctx.size > 1 else []
        assert [(t.label, t.rank) for t in tasks] == expect


class TestAgainstTheArrayMovingOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=cases(), trace=st.booleans())
    def test_numeric(self, case, trace):
        _check(case, "numeric", trace)

    @settings(max_examples=100, deadline=None)
    @given(case=cases(), trace=st.booleans())
    def test_symbolic_costs(self, case, trace):
        _check(case, "symbolic", trace)

    @settings(max_examples=60, deadline=None)
    @given(case=cases())
    def test_parallel(self, case):
        _check(case, "parallel")

    @pytest.mark.parametrize("trace", [True, False])
    @pytest.mark.parametrize("P", [1, 2, 3, 5, 16, 17])
    def test_every_root_of_every_rooted_collective(self, P, trace):
        for name in ("reduce_binomial", "reduce_bidirectional", "broadcast_bidirectional",
                     "broadcast_binomial", "scatter", "gather"):
            for root in range(P):
                case = (name, P, list(range(P)), root, "float64", (7,), [1] * P,
                        [[True] * P] * P, root)
                _check(case, "numeric", trace)

    @settings(max_examples=80, deadline=None)
    @given(case=cases(), trace=st.booleans())
    def test_a_memoized_schedule_charged_twice(self, case, trace):
        # The second call on the machine charges the schedule the first
        # one built (or found): twice the oracle, clock for clock.
        new, old, _kind = COLLECTIVES[case[0]]
        _got, metering, _tasks, _ctx = _run(new, case, "symbolic", trace, calls=2)
        _want, metering0, _tasks0, _ctx0 = _run(old, case, "symbolic", trace, calls=2)
        assert metering == metering0
