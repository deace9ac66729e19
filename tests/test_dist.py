"""Tests for layouts, DistMatrix, redistribution, and BlockCyclic2D."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import CommContext, gather, scatter
from repro.dist import (
    BlockRowLayout,
    CyclicRowLayout,
    DistMatrix,
    ExplicitRowLayout,
    gather_rows,
    head_layout,
    redistribute_rows,
    scatter_rows,
    tail_layout,
)
from repro.dist.blockcyclic import BlockCyclic2D, choose_grid_2d
from repro.machine import DistributionError, Machine, OwnershipError
from repro.util import balanced_sizes


class TestCyclicRowLayout:
    def test_owner_pattern(self):
        lay = CyclicRowLayout(10, 3)
        assert [lay.owner(i) for i in range(10)] == [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]

    def test_rows_of(self):
        lay = CyclicRowLayout(10, 3)
        assert lay.rows_of(0).tolist() == [0, 3, 6, 9]
        assert lay.rows_of(2).tolist() == [2, 5, 8]

    def test_counts_balanced(self):
        lay = CyclicRowLayout(11, 4)
        counts = [lay.count(p) for p in range(4)]
        assert sum(counts) == 11
        assert max(counts) - min(counts) <= 1

    def test_custom_ranks(self):
        lay = CyclicRowLayout(4, 2, ranks=[5, 3])
        assert lay.owner(0) == 5
        assert lay.owner(1) == 3

    def test_rejects_zero_p(self):
        with pytest.raises(DistributionError):
            CyclicRowLayout(4, 0)


class TestBlockRowLayout:
    def test_contiguous_blocks(self):
        lay = BlockRowLayout([3, 2, 4])
        assert lay.owner(0) == 0
        assert lay.owner(3) == 1
        assert lay.owner(5) == 2
        assert lay.m == 9

    def test_empty_block_allowed(self):
        lay = BlockRowLayout([2, 0, 3])
        assert lay.count(1) == 0
        assert lay.participants() == [0, 2]

    def test_custom_ranks(self):
        lay = BlockRowLayout([1, 1], ranks=[7, 2])
        assert lay.owner(0) == 7
        assert lay.owner(1) == 2

    def test_rejects_negative_count(self):
        with pytest.raises(DistributionError):
            BlockRowLayout([2, -1])


class TestLayoutHelpers:
    def test_head_layout(self):
        lay = CyclicRowLayout(10, 3)
        h = head_layout(lay, 4)
        assert h.m == 4
        assert [h.owner(i) for i in range(4)] == [0, 1, 2, 0]

    def test_tail_layout(self):
        lay = CyclicRowLayout(10, 3)
        t = tail_layout(lay, 4)
        assert t.m == 6
        assert t.owner(0) == lay.owner(4)

    def test_head_out_of_range(self):
        with pytest.raises(DistributionError):
            head_layout(CyclicRowLayout(5, 2), 6)

    def test_same_as(self):
        a = CyclicRowLayout(6, 2)
        b = ExplicitRowLayout([0, 1, 0, 1, 0, 1])
        assert a.same_as(b)
        assert not a.same_as(ExplicitRowLayout([0, 0, 0, 1, 1, 1]))

    def test_owners_read_only(self):
        lay = CyclicRowLayout(4, 2)
        with pytest.raises(ValueError):
            lay.owners()[0] = 1


class TestDistMatrix:
    def test_roundtrip(self, rng):
        m = Machine(3)
        A = rng.standard_normal((10, 4))
        dm = DistMatrix.from_global(m, A, CyclicRowLayout(10, 3))
        assert np.allclose(dm.to_global(), A)

    def test_local_shapes(self, rng):
        m = Machine(3)
        A = rng.standard_normal((10, 4))
        dm = DistMatrix.from_global(m, A, CyclicRowLayout(10, 3))
        assert dm.local(0).shape == (4, 4)
        assert dm.local(2).shape == (3, 4)

    def test_local_rows_sorted_by_global(self, rng):
        m = Machine(2)
        A = rng.standard_normal((6, 2))
        dm = DistMatrix.from_global(m, A, CyclicRowLayout(6, 2))
        assert np.allclose(dm.local(1), A[[1, 3, 5], :])

    def test_zeros(self):
        m = Machine(2)
        dm = DistMatrix.zeros(m, BlockRowLayout([2, 3]), 4)
        assert dm.to_global().shape == (5, 4)
        assert not dm.to_global().any()

    def test_gather_to_root_charges(self, rng):
        m = Machine(4)
        A = rng.standard_normal((8, 3))
        dm = DistMatrix.from_global(m, A, CyclicRowLayout(8, 4))
        out = dm.gather_to_root(0)
        assert np.allclose(out, A)
        assert m.report().critical_words > 0

    def test_from_global_free(self, rng):
        m = Machine(4)
        DistMatrix.from_global(m, rng.standard_normal((8, 3)), CyclicRowLayout(8, 4))
        assert m.report().critical_words == 0

    def test_set_local_validates_shape(self, rng):
        m = Machine(2)
        dm = DistMatrix.zeros(m, BlockRowLayout([2, 2]), 3)
        with pytest.raises(DistributionError):
            dm.set_local(0, np.zeros((5, 3)))

    def test_nonowner_access_raises(self):
        m = Machine(3)
        dm = DistMatrix.zeros(m, BlockRowLayout([2, 0, 3]), 1)
        with pytest.raises(OwnershipError):
            dm.local(1)

    def test_copy_independent(self, rng):
        m = Machine(2)
        A = rng.standard_normal((4, 2))
        dm = DistMatrix.from_global(m, A, BlockRowLayout([2, 2]))
        cp = dm.copy()
        cp.local(0)[:] = 0
        assert np.allclose(dm.to_global(), A)

    def test_shape_mismatch_rejected(self, rng):
        m = Machine(2)
        with pytest.raises(DistributionError):
            DistMatrix(m, BlockRowLayout([2, 2]), 3, {0: np.zeros((2, 3)), 1: np.zeros((1, 3))})


@pytest.mark.parametrize("method", ["index", "two_phase"])
class TestRedistribute:
    def test_cyclic_to_block(self, method, rng):
        m = Machine(4)
        A = rng.standard_normal((17, 3))
        dm = DistMatrix.from_global(m, A, CyclicRowLayout(17, 4))
        out = redistribute_rows(dm, BlockRowLayout(balanced_sizes(17, 4)), method=method)
        assert np.allclose(out.to_global(), A)

    def test_roundtrip(self, method, rng):
        m = Machine(3)
        A = rng.standard_normal((11, 5))
        cyc = CyclicRowLayout(11, 3)
        blk = BlockRowLayout(balanced_sizes(11, 3))
        dm = DistMatrix.from_global(m, A, cyc)
        back = redistribute_rows(redistribute_rows(dm, blk, method=method), cyc, method=method)
        assert np.allclose(back.to_global(), A)

    def test_identity_is_noop(self, method, rng):
        m = Machine(2)
        A = rng.standard_normal((6, 2))
        lay = CyclicRowLayout(6, 2)
        dm = DistMatrix.from_global(m, A, lay)
        out = redistribute_rows(dm, CyclicRowLayout(6, 2), method=method)
        assert out is dm  # same owners -> zero cost shortcut
        assert m.report().critical_words == 0

    def test_to_disjoint_ranks(self, method, rng):
        m = Machine(6)
        A = rng.standard_normal((8, 2))
        dm = DistMatrix.from_global(m, A, CyclicRowLayout(8, 3, ranks=[0, 1, 2]))
        out = redistribute_rows(dm, CyclicRowLayout(8, 3, ranks=[3, 4, 5]), method=method)
        assert np.allclose(out.to_global(), A)
        assert out.layout.participants() == [3, 4, 5]

    def test_mismatched_m_rejected(self, method, rng):
        m = Machine(2)
        dm = DistMatrix.zeros(m, BlockRowLayout([2, 2]), 1)
        with pytest.raises(DistributionError):
            redistribute_rows(dm, BlockRowLayout([3, 2]), method=method)


CUT_LAYOUTS = {
    "block": BlockRowLayout([3, 4, 0, 2]),
    "cyclic": CyclicRowLayout(9, 4),
    "rotated-cyclic": CyclicRowLayout(9, 3, ranks=[2, 0, 3]),
    # rank 3 owns only head rows, rank 0 only tail rows, rank 2 none
    "explicit": ExplicitRowLayout([3, 1, 3, 1, 0, 0, 1, 0, 1]),
}


@pytest.mark.parametrize("name", list(CUT_LAYOUTS))
class TestFreeCuts:
    """``cols`` / ``split_rows``: views of the blocks, nothing charged."""

    def test_parts_equal_the_slices_of_the_whole(self, name, rng):
        lay = CUT_LAYOUTS[name]
        A = rng.standard_normal((9, 5))
        machine = Machine(4)
        dm = DistMatrix.from_global(machine, A, lay)
        np.testing.assert_array_equal(dm.cols(1, 4).to_global(), A[:, 1:4])
        assert dm.cols(1, 4).layout is lay
        for k in (0, 3, 4, 9):
            head, tail = dm.split_rows(k)
            np.testing.assert_array_equal(head.to_global(), A[:k])
            np.testing.assert_array_equal(tail.to_global(), A[k:])
            assert head.layout.same_as(head_layout(lay, k))
            assert tail.layout.same_as(tail_layout(lay, k))
        rep = machine.report()
        assert rep.total_words_sent == 0 and rep.total_messages_sent == 0

    def test_parts_are_views(self, name, rng):
        lay = CUT_LAYOUTS[name]
        dm = DistMatrix.from_global(Machine(4), rng.standard_normal((9, 5)), lay)
        head, tail = dm.split_rows(4)
        for part in (dm.cols(2, 5), head, tail):
            for p in part.layout.participants():
                assert np.shares_memory(part.local(p), dm.local(p))

    def test_a_rank_without_rows_on_a_side_takes_no_part_there(self, name):
        lay = CUT_LAYOUTS[name]
        dm = DistMatrix.zeros(Machine(4), lay, 2)
        head, tail = dm.split_rows(4)
        assert head.layout.participants() == sorted(set(lay.owners()[:4].tolist()))
        assert tail.layout.participants() == sorted(set(lay.owners()[4:].tolist()))
        for part in (head, tail):
            for p in set(range(4)) - set(part.layout.participants()):
                with pytest.raises(OwnershipError):
                    part.local(p)

    def test_symbolic_and_lazy_blocks(self, name, rng):
        lay = CUT_LAYOUTS[name]
        A = rng.standard_normal((9, 5))
        sym = DistMatrix.from_global(Machine(4, backend="symbolic"), A, lay)
        head, tail = sym.cols(1, 4).split_rows(4)
        assert head.shape == (4, 3) and tail.shape == (5, 3)
        assert all(tail.local(p).shape == (tail.layout.count(p), 3) for p in tail.blocks)
        machine = Machine(4, backend="parallel", workers=1)
        head, tail = DistMatrix.from_global(machine, A, lay).cols(1, 4).split_rows(4)
        got_head, got_tail = machine.materialize((head.to_global(), tail.to_global()))
        np.testing.assert_array_equal(got_head, A[:4, 1:4])
        np.testing.assert_array_equal(got_tail, A[4:, 1:4])
        assert machine.report().total_messages_sent == 0

    def test_from_pieces_inverts_the_cuts(self, name, rng):
        lay = CUT_LAYOUTS[name]
        A = rng.standard_normal((9, 5))
        dm = DistMatrix.from_global(Machine(4), A, lay)
        head, tail = dm.cols(2, 5).split_rows(4)
        back = DistMatrix.from_pieces(lay, 5, [(dm.cols(0, 2), 0, 0), (head, 0, 2), (tail, 4, 2)])
        np.testing.assert_array_equal(back.to_global(), A)
        below = DistMatrix.from_pieces(lay, 5, [(tail, 4, 2)])      # zero elsewhere
        want = np.zeros_like(A)
        want[4:, 2:] = A[4:, 2:]
        np.testing.assert_array_equal(below.to_global(), want)


@st.composite
def moves_through_a_root(draw):
    """``(current owners, destination owners, ordered team, root, ncols)``
    where the two ownerships differ only between the root and its team."""
    P = draw(st.integers(2, 6))
    m = draw(st.integers(1, 14))
    team = draw(st.permutations(range(P)))[: draw(st.integers(1, P))]
    root = draw(st.sampled_from(team))
    cur = draw(st.lists(st.integers(0, P - 1), min_size=m, max_size=m))
    dest = list(cur)
    for i, owner in enumerate(cur):
        if owner == root and draw(st.booleans()):
            dest[i] = draw(st.sampled_from(team))
        elif owner in team and draw(st.booleans()):
            dest[i] = root
    return np.array(cur), np.array(dest), list(team), root, draw(st.integers(1, 3))


class TestMovingRowsThroughARoot:
    """``gather_rows`` / ``scatter_rows``: one binomial collective over an
    ordered team, carrying exactly the rows whose owner changes."""

    @staticmethod
    def oracle(P, n, collective, team, root, counts):
        """Report of the bare collective over ``counts[j]``-row pieces."""
        machine = Machine(P)
        pieces = [np.zeros((c, n)) if c else None for c in counts]
        if any(counts):
            collective(CommContext(machine, team), team.index(root), pieces)
        return machine.report()

    @settings(max_examples=150, deadline=None)
    @given(moves_through_a_root())
    def test_gather_then_scatter_reaches_the_destination(self, case):
        cur, dest, team, root, n = case
        P, m = 6, cur.size
        A = np.arange(float(m * n)).reshape(m, n)
        machine = Machine(P)
        dm = DistMatrix.from_global(machine, A, ExplicitRowLayout(cur))
        target = ExplicitRowLayout(dest)

        mid = gather_rows(dm, target, team, root)
        inbound = [int(((cur == q) & (dest == root)).sum()) if q != root else 0 for q in team]
        assert machine.report() == self.oracle(P, n, gather, team, root, inbound)
        if not any(inbound):
            assert mid is dm                       # nothing to move: no message
        assert machine.words_by_label.get("gather", 0) >= n * sum(inbound)

        before = machine.report().total_words_sent
        out = scatter_rows(mid, target, team, root)
        outbound = [int(((cur == root) & (dest == q)).sum()) if q != root else 0 for q in team]
        want = self.oracle(P, n, scatter, team, root, outbound)
        assert machine.report().total_words_sent - before == want.total_words_sent
        if not any(outbound):
            assert out is mid

        assert out.layout.same_as(target)
        np.testing.assert_array_equal(out.to_global(), A)
        np.testing.assert_array_equal(mid.to_global(), A)
        if len(team) <= 2:                         # every piece is one hop from the root
            assert machine.report().total_words_sent == n * int((cur != dest).sum())

    @settings(max_examples=60, deadline=None)
    @given(moves_through_a_root(), st.randoms(use_true_random=False))
    def test_team_order_never_changes_the_result(self, case, random):
        cur, dest, team, root, n = case
        A = np.arange(float(cur.size * n)).reshape(cur.size, n)
        shuffled = list(team)
        random.shuffle(shuffled)
        outs = []
        for order in (team, shuffled):
            dm = DistMatrix.from_global(Machine(6), A, ExplicitRowLayout(cur))
            target = ExplicitRowLayout(dest)
            # the way back of the 3D base case: scatter first, then gather
            outs.append(gather_rows(scatter_rows(dm, target, order, root), target, order, root))
        assert outs[0].layout.same_as(outs[1].layout)
        for p in outs[0].layout.participants():
            np.testing.assert_array_equal(outs[0].local(p), outs[1].local(p))

    def test_team_order_is_the_shape_of_the_tree(self):
        # Only rank 3 has rows for the root.  In [0, 1, 2, 3] it sits behind
        # rank 2 in the tree (two hops); in [0, 3, 1, 2] it is the root's peer.
        cur, dest = np.array([0, 3, 3, 3]), np.zeros(4, dtype=int)
        words = {}
        for team in ([0, 1, 2, 3], [0, 3, 1, 2]):
            machine = Machine(4)
            dm = DistMatrix.from_global(machine, np.ones((4, 5)), ExplicitRowLayout(cur))
            out = gather_rows(dm, ExplicitRowLayout(dest), team, 0)
            assert out.layout.participants() == [0]
            words[tuple(team)] = machine.report().total_words_sent
        assert words == {(0, 1, 2, 3): 30, (0, 3, 1, 2): 15}

    def test_nothing_to_move_charges_nothing(self):
        machine = Machine(4)
        dm = DistMatrix.zeros(machine, CyclicRowLayout(8, 4), 3)
        assert gather_rows(dm, dm.layout, [0, 1, 2, 3], 0) is dm
        assert scatter_rows(dm, dm.layout, [2, 0, 1], 2) is dm
        assert machine.report().total_messages_sent == 0

    def test_symbolic_blocks_are_metered_alike(self):
        cur, dest = np.array([0, 1, 2, 1, 0, 2]), np.array([0, 0, 2, 0, 0, 0])
        reports = []
        for backend in ("numeric", "symbolic"):
            machine = Machine(3, backend=backend)
            dm = DistMatrix.from_global(machine, np.ones((6, 2)), ExplicitRowLayout(cur))
            out = gather_rows(dm, ExplicitRowLayout(dest), [0, 1, 2], 0)
            assert out.layout.same_as(ExplicitRowLayout(dest))
            assert out.local(0).shape == (5, 2)
            reports.append(machine.report())
        assert reports[0] == reports[1]

    def test_mismatched_m_rejected(self):
        dm = DistMatrix.zeros(Machine(2), BlockRowLayout([2, 2]), 1)
        with pytest.raises(DistributionError):
            gather_rows(dm, BlockRowLayout([3, 2]), [0, 1], 0)


class TestBlockCyclic2D:
    def test_roundtrip(self, rng):
        m = Machine(6)
        A = rng.standard_normal((13, 9))
        bc = BlockCyclic2D.from_global(m, A, pr=2, pc=3, bb=2)
        assert np.allclose(bc.to_global(), A)

    def test_ownership_pattern(self):
        m = Machine(4)
        bc = BlockCyclic2D(m, 8, 8, 2, 2, 2)
        assert bc.prow_of(0) == 0 and bc.prow_of(2) == 1 and bc.prow_of(4) == 0
        assert bc.pcol_of(3) == 1

    def test_rows_of_start(self):
        m = Machine(4)
        bc = BlockCyclic2D(m, 10, 4, 2, 2, 2)
        assert bc.rows_of(0).tolist() == [0, 1, 4, 5, 8, 9]
        assert bc.rows_of(0, start=4).tolist() == [4, 5, 8, 9]

    def test_groups(self):
        m = Machine(6)
        bc = BlockCyclic2D(m, 4, 4, 2, 3, 1)
        assert bc.row_group(0) == [0, 1, 2]
        assert bc.col_group(1) == [1, 4]

    def test_grid_too_big_rejected(self):
        with pytest.raises(DistributionError):
            BlockCyclic2D(Machine(2), 4, 4, 2, 2, 1)

    def test_choose_grid_squareish(self):
        r, c = choose_grid_2d(100, 100, 16)
        assert r * c <= 16
        assert abs(r - c) <= 2  # square matrix -> square-ish grid

    def test_choose_grid_tall(self):
        r, c = choose_grid_2d(10000, 100, 16)
        assert c <= 2  # very tall -> almost-1D grid
        assert r * c <= 16
