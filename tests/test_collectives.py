"""Correctness tests for all eight collectives, all algorithm variants."""

import numpy as np
import pytest

from repro.collectives import (
    CommContext,
    all_gather,
    all_reduce,
    all_reduce_bidirectional,
    all_reduce_binomial,
    all_to_all_blocks,
    broadcast,
    broadcast_bidirectional,
    broadcast_binomial,
    gather,
    reduce,
    reduce_bidirectional,
    reduce_binomial,
    reduce_scatter,
    scatter,
)
from repro.machine import Machine, MachineError

PS = [1, 2, 3, 4, 5, 7, 8, 12, 16]


def ctx_of(P):
    return CommContext.world(Machine(P))


class TestCommContext:
    def test_world(self):
        ctx = ctx_of(4)
        assert ctx.size == 4
        assert ctx.ranks == [0, 1, 2, 3]

    def test_rank_mapping(self):
        m = Machine(6)
        ctx = CommContext(m, [4, 1, 3])
        assert ctx.global_rank(0) == 4
        assert ctx.group_rank(3) == 2

    def test_subgroup(self):
        m = Machine(6)
        ctx = CommContext(m, [4, 1, 3])
        sub = ctx.subgroup([2, 0])
        assert sub.ranks == [3, 4]

    def test_rejects_duplicates(self):
        with pytest.raises(MachineError):
            CommContext(Machine(4), [0, 0, 1])

    def test_rejects_empty(self):
        with pytest.raises(MachineError):
            CommContext(Machine(2), [])

    def test_rejects_out_of_range(self):
        with pytest.raises(MachineError):
            CommContext(Machine(2), [0, 5])


@pytest.mark.parametrize("P", PS)
class TestScatterGather:
    def test_scatter_delivers(self, P, rng=np.random.default_rng(1)):
        ctx = ctx_of(P)
        blocks = [rng.standard_normal(4) for _ in range(P)]
        out = scatter(ctx, 0, blocks)
        for q in range(P):
            assert np.array_equal(out[q], blocks[q])

    def test_scatter_nonzero_root(self, P):
        ctx = ctx_of(P)
        blocks = [np.full(2, q, dtype=float) for q in range(P)]
        out = scatter(ctx, P - 1, blocks)
        for q in range(P):
            assert np.array_equal(out[q], blocks[q])

    def test_scatter_none_blocks(self, P):
        ctx = ctx_of(P)
        blocks = [None if q % 2 else np.full(1, q, dtype=float) for q in range(P)]
        out = scatter(ctx, 0, blocks)
        for q in range(P):
            if q % 2:
                assert out[q] is None
            else:
                assert np.array_equal(out[q], blocks[q])

    def test_gather_collects(self, P, rng=np.random.default_rng(2)):
        ctx = ctx_of(P)
        contribs = [rng.standard_normal(3) for _ in range(P)]
        out = gather(ctx, 0, contribs)
        for q in range(P):
            assert np.array_equal(out[q], contribs[q])

    def test_gather_roundtrips_scatter(self, P, rng=np.random.default_rng(3)):
        ctx = ctx_of(P)
        blocks = [rng.standard_normal(q + 1) for q in range(P)]
        back = gather(ctx, P // 2, scatter(ctx, 0, blocks))
        for q in range(P):
            assert np.array_equal(back[q], blocks[q])


@pytest.mark.parametrize("P", PS)
class TestBroadcast:
    def test_binomial(self, P):
        ctx = ctx_of(P)
        v = np.arange(6.0).reshape(2, 3)
        out = broadcast_binomial(ctx, 0, v)
        assert np.array_equal(out, v)

    def test_bidirectional(self, P):
        ctx = ctx_of(P)
        v = np.arange(12.0).reshape(3, 4)
        out = broadcast_bidirectional(ctx, P - 1, v)
        assert np.allclose(out, v)
        assert out.shape == v.shape

    def test_bidirectional_small_block(self, P):
        # Block smaller than P: some scatter pieces are empty.
        ctx = ctx_of(P)
        v = np.array([1.0, 2.0])
        out = broadcast_bidirectional(ctx, 0, v)
        assert np.allclose(out, v)

    def test_auto_dispatch(self, P):
        ctx = ctx_of(P)
        for size in (1, 3, 1000):
            v = np.arange(float(size))
            out = broadcast(ctx, 0, v)
            assert np.allclose(out, v)


@pytest.mark.parametrize("P", PS)
class TestReduce:
    def test_binomial(self, P, rng=np.random.default_rng(4)):
        ctx = ctx_of(P)
        contribs = [rng.standard_normal((2, 2)) for _ in range(P)]
        out = reduce_binomial(ctx, 0, contribs)
        assert np.allclose(out, sum(contribs))

    def test_bidirectional(self, P, rng=np.random.default_rng(5)):
        ctx = ctx_of(P)
        contribs = [rng.standard_normal(7) for _ in range(P)]
        out = reduce_bidirectional(ctx, P - 1, contribs)
        assert np.allclose(out, sum(contribs))

    def test_all_reduce_binomial(self, P, rng=np.random.default_rng(6)):
        ctx = ctx_of(P)
        contribs = [rng.standard_normal(5) for _ in range(P)]
        out = all_reduce_binomial(ctx, contribs)
        assert np.allclose(out, sum(contribs))

    def test_all_reduce_bidirectional(self, P, rng=np.random.default_rng(7)):
        ctx = ctx_of(P)
        contribs = [rng.standard_normal((3, 2)) for _ in range(P)]
        out = all_reduce_bidirectional(ctx, contribs)
        assert np.allclose(out, sum(contribs))

    def test_auto_dispatch(self, P, rng=np.random.default_rng(8)):
        ctx = ctx_of(P)
        for size in (2, 500):
            contribs = [rng.standard_normal(size) for _ in range(P)]
            assert np.allclose(reduce(ctx, 0, contribs), sum(contribs))
            assert np.allclose(all_reduce(ctx, contribs), sum(contribs))


@pytest.mark.parametrize("P", PS)
class TestReduceScatterAllGather:
    def test_reduce_scatter(self, P, rng=np.random.default_rng(9)):
        ctx = ctx_of(P)
        contribs = [[rng.standard_normal(4) for _ in range(P)] for _ in range(P)]
        out = reduce_scatter(ctx, contribs)
        for q in range(P):
            assert np.allclose(out[q], sum(contribs[p][q] for p in range(P)))

    def test_reduce_scatter_with_nones(self, P):
        ctx = ctx_of(P)
        contribs = [
            [np.full(2, 1.0) if (p + q) % 2 == 0 else None for q in range(P)]
            for p in range(P)
        ]
        out = reduce_scatter(ctx, contribs)
        for q in range(P):
            expected = sum(1 for p in range(P) if (p + q) % 2 == 0)
            assert np.allclose(out[q], expected)

    def test_all_gather(self, P, rng=np.random.default_rng(10)):
        ctx = ctx_of(P)
        blocks = [rng.standard_normal(3) for _ in range(P)]
        out = all_gather(ctx, blocks)
        for p in range(P):
            for q in range(P):
                assert np.array_equal(out[p][q], blocks[q])

    def test_all_gather_varied_sizes(self, P, rng=np.random.default_rng(11)):
        ctx = ctx_of(P)
        blocks = [rng.standard_normal(q + 1) for q in range(P)]
        out = all_gather(ctx, blocks)
        for p in range(P):
            for q in range(P):
                assert np.array_equal(out[p][q], blocks[q])


@pytest.mark.parametrize("P", PS)
@pytest.mark.parametrize("method", ["index", "two_phase"])
class TestAllToAll:
    def test_dense_exchange(self, P, method, rng=np.random.default_rng(12)):
        ctx = ctx_of(P)
        blocks = [[rng.standard_normal((2, 3)) for _ in range(P)] for _ in range(P)]
        out = all_to_all_blocks(ctx, blocks, method=method)
        for q in range(P):
            for p in range(P):
                assert np.allclose(out[q][p], blocks[p][q])

    def test_sparse_exchange(self, P, method, rng=np.random.default_rng(13)):
        ctx = ctx_of(P)
        blocks = [
            [rng.standard_normal(4) if (p + q) % 3 == 0 else None for q in range(P)]
            for p in range(P)
        ]
        out = all_to_all_blocks(ctx, blocks, method=method)
        for q in range(P):
            for p in range(P):
                if (p + q) % 3 == 0:
                    assert np.allclose(out[q][p], blocks[p][q])
                else:
                    assert out[q][p] is None

    def test_skewed_sizes(self, P, method, rng=np.random.default_rng(14)):
        # One processor sends a huge block; the rest send tiny ones.
        ctx = ctx_of(P)
        blocks = [
            [rng.standard_normal(50 if p == 0 else 1) for q in range(P)]
            for p in range(P)
        ]
        out = all_to_all_blocks(ctx, blocks, method=method)
        for q in range(P):
            for p in range(P):
                assert np.allclose(out[q][p], blocks[p][q])

    def test_preserves_dtype_and_shape(self, P, method):
        ctx = ctx_of(P)
        blocks = [
            [np.arange(6, dtype=np.complex128).reshape(2, 3) + p for q in range(P)]
            for p in range(P)
        ]
        out = all_to_all_blocks(ctx, blocks, method=method)
        for q in range(P):
            for p in range(P):
                assert out[q][p].dtype == np.complex128
                assert out[q][p].shape == (2, 3)


class TestCollectiveValidation:
    def test_scatter_wrong_count(self):
        ctx = ctx_of(3)
        with pytest.raises(MachineError):
            scatter(ctx, 0, [np.zeros(1)] * 2)

    def test_gather_bad_root(self):
        ctx = ctx_of(3)
        with pytest.raises(MachineError):
            gather(ctx, 7, [np.zeros(1)] * 3)

    def test_alltoall_bad_method(self):
        ctx = ctx_of(2)
        with pytest.raises(ValueError):
            all_to_all_blocks(ctx, [[None, None], [None, None]], method="bogus")

    def test_alltoall_bad_destination(self):
        from repro.collectives import all_to_all_index

        ctx = ctx_of(2)
        with pytest.raises(MachineError):
            all_to_all_index(ctx, [[(5, "t", np.zeros(1))], []])

    @pytest.mark.parametrize("P", [1, 4])
    @pytest.mark.parametrize("variant", ["index", "two_phase"])
    def test_alltoall_destination_checked_at_every_size(self, variant, P):
        # The two-phase variant used to return before validating at P == 1.
        from repro.collectives import all_to_all_index, all_to_all_two_phase

        run = all_to_all_index if variant == "index" else all_to_all_two_phase
        items = [[(5, "t", np.ones(3))]] + [[] for _ in range(P - 1)]
        with pytest.raises(MachineError, match=f"destination 5 out of range for group of size {P}"):
            run(ctx_of(P), items)

    # A rejected call charges nothing: the root and the contribution
    # count are checked before any message or flop is metered.
    REJECTED = [
        ("reduce_bidirectional bad root", lambda ctx: reduce_bidirectional(ctx, 99, [np.ones(64)] * 8)),
        ("dispatched large reduce bad root", lambda ctx: reduce(ctx, 99, [np.ones(64)] * 8)),
        ("reduce_bidirectional short", lambda ctx: reduce_bidirectional(ctx, 0, [np.ones(64)] * 7)),
        ("all_reduce_bidirectional short", lambda ctx: all_reduce_bidirectional(ctx, [np.ones(64)] * 7)),
        ("reduce_binomial bad root", lambda ctx: reduce_binomial(ctx, -1, [np.ones(4)] * 8)),
        ("gather short", lambda ctx: gather(ctx, 0, [np.ones(4)] * 7)),
        ("broadcast_bidirectional bad root", lambda ctx: broadcast_bidirectional(ctx, 8, np.ones(64))),
    ]

    @pytest.mark.parametrize("name,call", REJECTED, ids=[n for n, _ in REJECTED])
    def test_rejected_call_charges_nothing(self, name, call):
        machine = Machine(8, trace=True)
        ctx = CommContext.world(machine)
        broadcast_binomial(ctx, 0, np.ones(3))
        before = machine.report()
        with pytest.raises(MachineError):
            call(ctx)
        assert machine.report() == before
        assert machine.words_by_label == {"bcast_binomial": 21}
        assert len(machine.trace) == 14
