"""The count-only collectives against the array-moving ones they replaced.

``reduce_binomial``, ``reduce_scatter`` and the bidirectional broadcast /
reduce / all-reduce used to push every payload piece through numpy:
slice, add, concatenate, reshape.  They are now a schedule over word
counts plus at most one combine kernel per reduction result.  The old
implementations live on below as the oracle, and a hypothesis property
holds the new ones to them on every backend:

* values **bit for bit** (numeric and parallel; shape and dtype on
  symbolic, which has no values);
* the ``CostReport``, ``words_by_label`` and the traced event sequence
  ``(kind, proc, peer, flops, words, label)``;
* on the parallel backend, the only recorded tasks are the combine
  kernels, on the result's rank.

Covered: P = 1 ... 17 (odd sizes included), every root, groups that are
a shuffled subset of the machine, zero-size blocks, blocks smaller than
P (empty pieces), ``None`` patterns in ``reduce_scatter``, and float64 /
float32 / complex128.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import SymbolicArray, asarray
from repro.collectives import (
    CommContext,
    all_reduce_bidirectional,
    all_reduce_binomial,
    broadcast_bidirectional,
    reduce_bidirectional,
    reduce_binomial,
    reduce_scatter,
)
from repro.collectives.binomial import _split, broadcast_binomial, gather, scatter
from repro.machine import Counted, Machine, MachineError, words_of
from repro.util import balanced_partition, ceil_div

# ----------------------------------------------------------------------
# The oracle: the array-moving implementations, as they were
# ----------------------------------------------------------------------


def _oracle_reduce_binomial(ctx: CommContext, root: int, contributions) -> np.ndarray:
    def rec(members: list[int], r: int) -> np.ndarray:
        if len(members) == 1:
            return contributions[r]
        mine, other, r2 = _split(members, r)
        a = rec(mine, r)
        b = rec(other, r2)
        ctx.transfer(r2, r, b, label="reduce_binomial")
        ctx.compute(r, float(words_of(b)), label="reduce_combine")
        return np.add(a, b)

    return rec(list(range(ctx.size)), root)


def _oracle_all_reduce_binomial(ctx: CommContext, contributions) -> np.ndarray:
    return broadcast_binomial(ctx, 0, _oracle_reduce_binomial(ctx, 0, contributions))


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
        ctx.exchange_round(
            [(s, d, Counted(sum(words_of(blk) for blk in send.values()))) for s, d, send in plan],
            label="reduce_scatter",
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
                ctx.compute(d, float(flops), label="reduce_scatter_add")
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
        ctx.exchange_round([(s, d, Counted(words[s])) for s, d in plan], label="all_gather")
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
    everywhere = _oracle_all_gather(ctx, scatter(ctx, root, pieces))
    return _reassemble(everywhere[0], value.shape, value.dtype)


def _oracle_reduce_bidirectional(ctx: CommContext, root: int, contributions):
    P = ctx.size
    first = asarray(contributions[0])
    per_rank = [_split_array(asarray(contributions[p]), P) for p in range(P)]
    pieces = gather(ctx, root, _oracle_reduce_scatter(ctx, per_rank))
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
    "reduce_binomial": (reduce_binomial, _oracle_reduce_binomial, "rooted"),
    "all_reduce_binomial": (all_reduce_binomial, _oracle_all_reduce_binomial, "all"),
    "reduce_scatter": (reduce_scatter, _oracle_reduce_scatter, "matrix"),
    "broadcast_bidirectional": (broadcast_bidirectional, _oracle_broadcast_bidirectional, "value"),
    "reduce_bidirectional": (reduce_bidirectional, _oracle_reduce_bidirectional, "rooted"),
    "all_reduce_bidirectional": (all_reduce_bidirectional, _oracle_all_reduce_bidirectional, "all"),
}


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


def _run(fn, case, backend):
    name, size, ranks, root, dtype, shape, sizes, present, seed = case
    machine = Machine(size, backend=backend, trace=True, workers=1)
    rng = np.random.default_rng(seed)
    ctx = CommContext(machine, ranks)
    P = ctx.size
    kind = COLLECTIVES[name][2]
    if kind == "matrix":
        args = ([[_block((sizes[q],), dtype, rng, backend, machine) if present[p][q] else None
                  for q in range(P)] for p in range(P)],)
    elif kind == "value":
        args = (root, _block(shape, dtype, rng, backend, machine))
    else:
        blocks = [_block(shape, dtype, rng, backend, machine) for _ in range(P)]
        args = (root, blocks) if kind == "rooted" else (blocks,)
    before = len(machine.plan.tasks) if machine.plan is not None else 0
    out = fn(ctx, *args)
    tasks = machine.plan.tasks[before:] if machine.plan is not None else []
    out = machine.materialize(out)
    events = [(e.kind, e.proc, e.peer, e.flops, e.words, e.label) for e in machine.trace]
    return out, machine.report(), dict(machine.words_by_label), events, tasks, ctx


def _flat(out):
    return out if isinstance(out, list) else [out]


def _fingerprint(x, backend):
    if x is None:
        return None
    if backend == "symbolic":
        return x.shape, x.dtype
    x = np.asarray(x)
    return x.shape, x.dtype, x.tobytes()


def _check(case, backend):
    name = case[0]
    new, old, _kind = COLLECTIVES[name]
    got, report, words, events, tasks, ctx = _run(new, case, backend)
    want, report0, words0, events0, _tasks0, _ctx0 = _run(old, case, backend)
    assert (report, words, events) == (report0, words0, events0)
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
    elif name == "broadcast_bidirectional":
        assert tasks == []
    else:
        label = "reduce_combine" if name.endswith("binomial") else "reduce_scatter_add"
        root = case[3] if COLLECTIVES[name][2] == "rooted" else 0
        expect = [(label, ctx.ranks[root])] if ctx.size > 1 else []
        assert [(t.label, t.rank) for t in tasks] == expect


class TestAgainstTheArrayMovingOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=cases())
    def test_numeric(self, case):
        _check(case, "numeric")

    @settings(max_examples=100, deadline=None)
    @given(case=cases())
    def test_symbolic_costs(self, case):
        _check(case, "symbolic")

    @settings(max_examples=60, deadline=None)
    @given(case=cases())
    def test_parallel(self, case):
        _check(case, "parallel")

    @pytest.mark.parametrize("P", [1, 2, 3, 5, 16, 17])
    def test_every_root_of_every_rooted_collective(self, P):
        for name in ("reduce_binomial", "reduce_bidirectional", "broadcast_bidirectional"):
            for root in range(P):
                case = (name, P, list(range(P)), root, "float64", (7,), [1] * P,
                        [[True] * P] * P, root)
                _check(case, "numeric")
