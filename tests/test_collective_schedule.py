"""The schedule memo: one build per group shape, bounded, shared by threads.

``tests/test_collective_oracle.py`` holds what a charged schedule
meters to the recursive implementations; this file pins the memo
around it: keys are ``(size, root)`` (never machine ranks or word
counts), a repeated shape builds nothing, the byte meter tracks what an
entry keeps alive, the budget evicts least recently used entries, and
concurrent recorders get the serial metering.

The memo is process-global, so the hit / miss counts below depend on
what ran before them in the process; CI also runs this file on its own.
"""

from __future__ import annotations

import gc
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.collectives import CommContext, all_reduce, broadcast, reduce_scatter, schedule
from repro.collectives.schedule import schedule_memo
from repro.machine import Machine
from repro.workloads import run_qr

BUILDERS = {
    "broadcast_tree": lambda P: [(P, r) for r in range(P)],
    "scatter_tree": lambda P: [(P, r) for r in range(P)],
    "gather_tree": lambda P: [(P, r) for r in range(P)],
    "reduce_tree": lambda P: [(P, r) for r in range(P)],
    "all_gather_rounds": lambda P: [(P,)],
    "reduce_scatter_rounds": lambda P: [(P, None), (P, bytes([1, 0] * P * P)[: P * P])],
}


@pytest.fixture
def memo():
    schedule_memo.clear()
    yield schedule_memo
    schedule_memo.clear()


class TestBuilders:
    @pytest.mark.parametrize("P", [1, 2, 3, 7, 8, 13])
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_memoized_equals_built(self, memo, name, P):
        get = getattr(schedule, name)
        for args in BUILDERS[name](P):
            assert get(*args) == get.build(*args)
            assert get(*args) is get(*args)

    def test_every_send_crosses_the_group(self):
        # No schedule sends to itself, and every rank it names is in the group.
        for P in (1, 2, 5, 16):
            for name, args_of in BUILDERS.items():
                for args in args_of(P):
                    for sends, combines in getattr(schedule, name).build(*args).rounds:
                        assert all(s != d and 0 <= s < P and 0 <= d < P for s, d, _, _ in sends)
                        assert all(0 <= p < P for p, _, _ in combines)

    def test_full_reduce_scatter_shares_its_orders(self):
        # One order per rank and round, not one per destination: the
        # orders reach P * P leaves through ~P log P tuples.
        rounds = schedule.reduce_scatter_rounds.build(64, None)
        sends = sum(len(s) for s, _ in rounds.rounds)
        assert schedule.nbytes(rounds.orders) < 100 * sends


class TestMemo:
    def test_keys_are_group_shapes_not_ranks_or_words(self, memo):
        for ranks, width in (([0, 1, 2, 3, 4], 3), ([7, 2, 5, 0, 1], 4)):
            machine = Machine(8)
            ctx = CommContext(machine, ranks)
            broadcast(ctx, 2, np.ones(width))
            all_reduce(ctx, [np.ones(width)] * 5)
            reduce_scatter(ctx, [[np.ones(width)] * 5] * 5)
        assert sorted((name, args) for name, args, _ in memo.entries()) == [
            ("broadcast_tree", (5, 0)), ("broadcast_tree", (5, 2)),
            ("reduce_scatter_rounds", (5, None)), ("reduce_tree", (5, 0)),
        ]

    def test_a_repeated_job_builds_nothing(self, memo):
        first = run_qr("house2d", (96, 24), 8, backend="symbolic")
        entries = memo.entries()
        assert entries
        again = run_qr("house2d", (96, 24), 8, backend="symbolic")
        assert again.report == first.report
        assert memo.entries() == entries

    def test_byte_meter_matches_tracemalloc(self, memo):
        # The largest entry at a group of 512: the full reduce-scatter.
        # A full collection empties the tuple free lists first, so every
        # tuple the build makes is an allocation tracemalloc sees.
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            built = schedule.reduce_scatter_rounds.build(512, None)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        size = schedule.nbytes(built)
        assert 0.8 * held <= size <= 1.5 * held
        assert size < schedule.SCHEDULE_MEMO_BYTES // 4
        schedule.reduce_scatter_rounds(512, None)
        assert memo.nbytes() == size

    def test_budget_evicts_least_recently_used(self, memo, monkeypatch):
        sizes = {P: schedule.nbytes(schedule.broadcast_tree.build(P, 0)) for P in (40, 50, 60)}
        monkeypatch.setattr(schedule, "SCHEDULE_MEMO_BYTES", sizes[40] + sizes[50] + sizes[60] - 1)
        for P in (40, 50):
            schedule.broadcast_tree(P, 0)
        schedule.broadcast_tree(40, 0)  # now 50 is the least recently used
        schedule.broadcast_tree(60, 0)
        assert [args for _, args, _ in memo.entries()] == [(40, 0), (60, 0)]
        assert memo.nbytes() == sizes[40] + sizes[60]

    def test_an_entry_over_budget_is_still_kept(self, memo, monkeypatch):
        monkeypatch.setattr(schedule, "SCHEDULE_MEMO_BYTES", 1)
        schedule.broadcast_tree(9, 0)
        schedule.gather_tree(9, 0)
        assert [name for name, _, _ in memo.entries()] == ["gather_tree"]

    def test_concurrent_recorders_meter_like_serial(self, memo):
        # More recorders than cores, switching threads every microsecond:
        # every job meters like its serial run and the byte meter equals
        # the sum of the entries it kept (a lost update would break it).
        def job(P, out, i):
            out[i] = run_qr("house2d", (64, 16), P, backend="symbolic").report

        shapes = [4, 6, 8, 9] * 3
        serial: list = [None] * len(shapes)
        for i, P in enumerate(shapes):
            job(P, serial, i)
        memo.clear()
        got: list = [None] * len(shapes)
        threads = [threading.Thread(target=job, args=(P, got, i)) for i, P in enumerate(shapes)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == serial
        entries = memo.entries()
        assert len({(name, args) for name, args, _ in entries}) == len(entries)
        assert memo.nbytes() == sum(size for _, _, size in entries)
