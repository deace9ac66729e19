"""Property-based tests (hypothesis) on core invariants.

Five families:
* partition/layout invariants (exact combinatorial properties);
* collective semantics on arbitrary shapes/groups;
* max-plus clock laws (critical paths never shrink, joins dominate);
* QR invariants (factorization, orthogonality, structure) on random
  shapes, thresholds, and processor counts;
* backend conformance: over random shapes and dtypes, every execution
  backend pair (numeric / parallel / parallel-mp) produces the same
  ``CostReport`` and bit-identical residuals through ``run_qr``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import (
    CommContext,
    all_gather,
    all_to_all_blocks,
    reduce_scatter,
    scatter,
)
from repro.dist import BlockRowLayout, CyclicRowLayout, DistMatrix
from repro.machine import Machine
from repro.qr import local_geqrt, qr_1d_caqr_eg, qr_eg_sequential, tsqr
from repro.qr.validate import qr_diagnostics
from repro.util import balanced_partition, balanced_sizes, cyclic_deal
from repro.workloads import gaussian

# Keep hypothesis fast and deterministic in CI.
SETTINGS = settings(max_examples=25, deadline=None)


class TestPartitionProperties:
    @given(n=st.integers(0, 500), k=st.integers(1, 40))
    @SETTINGS
    def test_balanced_sizes_invariants(self, n, k):
        sizes = balanced_sizes(n, k)
        assert len(sizes) == k
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)

    @given(n=st.integers(0, 300), k=st.integers(1, 20))
    @SETTINGS
    def test_balanced_partition_covers(self, n, k):
        parts = balanced_partition(n, k)
        flat = [i for p in parts for i in p]
        assert flat == list(range(n))

    @given(n=st.integers(0, 200), k=st.integers(1, 17), start=st.integers(0, 16))
    @SETTINGS
    def test_cyclic_deal_partitions(self, n, k, start):
        bins = cyclic_deal(n, k, start)
        assert sorted(x for b in bins for x in b) == list(range(n))
        # Bin sizes balanced.
        sizes = [len(b) for b in bins]
        assert max(sizes) - min(sizes) <= 1 if n >= 0 else True


@st.composite
def _any_layout(draw):
    """Block / cyclic / explicit layouts and their head / tail cuts.

    Ranks may repeat (a rank owning several blocks, or dealt twice),
    skip numbers (ranks owning nothing) and exceed 255 (wider than the
    narrowest sort key)."""
    from repro.dist import ExplicitRowLayout, head_layout, tail_layout

    kind = draw(st.sampled_from(["block", "cyclic", "explicit", "head", "tail"]))
    rank = st.one_of(st.integers(0, 5), st.integers(0, 300))
    if kind == "explicit":
        return ExplicitRowLayout(np.asarray(draw(st.lists(rank, max_size=80)), np.int64))
    if kind == "cyclic" or draw(st.booleans()):
        P = draw(st.integers(1, 12))
        ranks = draw(st.one_of(st.none(), st.lists(rank, min_size=P, max_size=P)))
        lay = CyclicRowLayout(draw(st.integers(0, 80)), P, ranks)
    else:
        counts = draw(st.lists(st.integers(0, 9), min_size=1, max_size=12))
        ranks = draw(st.lists(rank, min_size=len(counts), max_size=len(counts)))
        lay = BlockRowLayout(counts, ranks)
    if kind in ("head", "tail"):
        k = draw(st.integers(0, lay.m))
        return head_layout(lay, k) if kind == "head" else tail_layout(lay, k)
    return lay


class TestLayoutProperties:
    @given(m=st.integers(1, 120), P=st.integers(1, 12))
    @SETTINGS
    def test_cyclic_layout_partitions_rows(self, m, P):
        lay = CyclicRowLayout(m, P)
        rows = np.concatenate([lay.rows_of(p) for p in range(P)])
        assert sorted(rows.tolist()) == list(range(m))

    @given(lay=_any_layout())
    @settings(max_examples=200, deadline=None)
    def test_rows_of_matches_a_scan_of_the_owners(self, lay):
        owners = lay.owners()
        top = int(owners.max()) + 1 if owners.size else 0
        for p in range(-1, top + 2):
            got = lay.rows_of(p)
            np.testing.assert_array_equal(got, np.flatnonzero(owners == p))
            assert got.dtype == np.intp and not got.flags.writeable
            assert lay.rows_of(p) is got

    @given(m=st.integers(1, 120), P=st.integers(1, 12), seed=st.integers(0, 99))
    @SETTINGS
    def test_distmatrix_roundtrip(self, m, P, seed):
        A = gaussian(m, 3, seed=seed)
        dm = DistMatrix.from_global(Machine(P), A, CyclicRowLayout(m, P))
        assert np.allclose(dm.to_global(), A)

    @given(m=st.integers(1, 80), P=st.integers(1, 8), seed=st.integers(0, 99))
    @SETTINGS
    def test_redistribute_preserves_matrix(self, m, P, seed):
        from repro.dist import redistribute_rows

        A = gaussian(m, 2, seed=seed)
        machine = Machine(P)
        dm = DistMatrix.from_global(machine, A, CyclicRowLayout(m, P))
        out = redistribute_rows(dm, BlockRowLayout(balanced_sizes(m, P)))
        assert np.allclose(out.to_global(), A)


class TestCollectiveProperties:
    @given(P=st.integers(1, 12), size=st.integers(0, 20), seed=st.integers(0, 99))
    @SETTINGS
    def test_scatter_is_identity_on_content(self, P, size, seed):
        rng = np.random.default_rng(seed)
        ctx = CommContext.world(Machine(P))
        blocks = [rng.standard_normal(size) for _ in range(P)]
        out = scatter(ctx, seed % P, blocks)
        assert all(np.array_equal(out[q], blocks[q]) for q in range(P))

    @given(P=st.integers(1, 10), seed=st.integers(0, 99))
    @SETTINGS
    def test_all_gather_replicates(self, P, seed):
        rng = np.random.default_rng(seed)
        ctx = CommContext.world(Machine(P))
        blocks = [rng.standard_normal(rng.integers(0, 5)) for _ in range(P)]
        out = all_gather(ctx, blocks)
        for p in range(P):
            assert all(np.array_equal(out[p][q], blocks[q]) for q in range(P))

    @given(P=st.integers(1, 8), seed=st.integers(0, 99))
    @SETTINGS
    def test_reduce_scatter_sums(self, P, seed):
        rng = np.random.default_rng(seed)
        ctx = CommContext.world(Machine(P))
        contribs = [[rng.standard_normal(3) for _ in range(P)] for _ in range(P)]
        out = reduce_scatter(ctx, contribs)
        for q in range(P):
            assert np.allclose(out[q], sum(contribs[p][q] for p in range(P)))

    @given(P=st.integers(1, 8), seed=st.integers(0, 99),
           method=st.sampled_from(["index", "two_phase"]))
    @SETTINGS
    def test_all_to_all_permutes(self, P, seed, method):
        rng = np.random.default_rng(seed)
        ctx = CommContext.world(Machine(P))
        blocks = [[rng.standard_normal(rng.integers(0, 4)) for _ in range(P)] for _ in range(P)]
        out = all_to_all_blocks(ctx, blocks, method=method)
        for q in range(P):
            for p in range(P):
                assert np.allclose(out[q][p], blocks[p][q])


class TestClockProperties:
    @given(ops=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 9)),
        min_size=1, max_size=40,
    ))
    @SETTINGS
    def test_critical_never_decreases_and_bounds_volume(self, ops):
        m = Machine(4)
        prev = 0.0
        for src, dst, w in ops:
            if src == dst:
                m.compute(src, w)
            else:
                m.transfer(src, dst, np.zeros(w))
            cur = m.report().modeled_time
            assert cur >= prev
            prev = cur
        rep = m.report()
        # Critical path cannot exceed total volume (sum over all procs).
        assert rep.critical_flops <= rep.total_flops + 1e-9
        assert rep.critical_words <= 2 * rep.total_words_sent + 1e-9

    @given(ops=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(1, 5)),
        min_size=1, max_size=25,
    ))
    @SETTINGS
    def test_online_clocks_equal_offline_dag(self, ops):
        m = Machine(3, trace=True)
        for src, dst, w in ops:
            if src == dst:
                m.compute(src, w)
            else:
                m.transfer(src, dst, np.zeros(w))
        rep = m.report()
        for metric in ("flops", "words", "messages"):
            assert abs(m.trace.critical_path(metric) - getattr(rep, f"critical_{metric}")) < 1e-9


class TestQRProperties:
    @given(m=st.integers(1, 40), n=st.integers(1, 12), seed=st.integers(0, 999))
    @SETTINGS
    def test_geqrt_invariants(self, m, n, seed):
        if m < n:
            m, n = n, m
        A = gaussian(m, n, seed=seed)
        pan = local_geqrt(Machine(1), 0, A)
        assert qr_diagnostics(A, pan.V, pan.T, pan.R).ok(1e-9)

    @given(mn=st.integers(2, 24), b=st.integers(1, 8), seed=st.integers(0, 999))
    @SETTINGS
    def test_qreg_invariants(self, mn, b, seed):
        A = gaussian(2 * mn, mn, seed=seed)
        pan = qr_eg_sequential(Machine(1), 0, A, b)
        assert qr_diagnostics(A, pan.V, pan.T, pan.R).ok(1e-9)

    @given(P=st.integers(1, 6), n=st.integers(1, 8), extra=st.integers(0, 30),
           seed=st.integers(0, 999))
    @SETTINGS
    def test_tsqr_invariants(self, P, n, extra, seed):
        m = n * P + extra
        A = gaussian(m, n, seed=seed)
        machine = Machine(P)
        sizes = balanced_sizes(m, P)
        if min(sizes) < n:  # distribution precondition
            sizes = [n] * P
            sizes[0] += m - n * P
        dA = DistMatrix.from_global(machine, A, BlockRowLayout(sizes))
        res = tsqr(dA, root=0)
        assert qr_diagnostics(A, res.V.to_global(), res.T, res.R).ok(1e-8)

    @given(P=st.integers(1, 4), n=st.integers(1, 8), b=st.integers(1, 8),
           seed=st.integers(0, 999))
    @SETTINGS
    def test_caqr1d_invariants(self, P, n, b, seed):
        m = 2 * n * P
        A = gaussian(m, n, seed=seed)
        machine = Machine(P)
        dA = DistMatrix.from_global(machine, A, BlockRowLayout(balanced_sizes(m, P)))
        res = qr_1d_caqr_eg(dA, root=0, b=min(b, n))
        assert qr_diagnostics(A, res.V.to_global(), res.T, res.R).ok(1e-8)


# Backend pairs: the process-pool pairs skip (marker, see conftest) on
# platforms without fork + POSIX shared memory.
BACKEND_PAIRS = [
    ("numeric", "parallel"),
    pytest.param(("numeric", "parallel-mp"), marks=pytest.mark.mp,
                 id="numeric-parallel_mp"),
    pytest.param(("parallel", "parallel-mp"), marks=pytest.mark.mp,
                 id="parallel-parallel_mp"),
]

# Forking a worker pool per example is pricier than the pure-python
# properties above, so this family draws fewer examples.
CONFORMANCE_SETTINGS = settings(max_examples=6, deadline=None)


class TestBackendConformanceProperties:
    """Execution backends are interchangeable: same costs, same bits.

    The deterministic grid lives in ``tests/test_mp_backend.py``; here
    hypothesis drives the *shape and dtype* axes, hunting for cells
    (uneven row splits, single-column panels, float32 inputs, workers
    coprime with P) where an ownership or handoff bug would make one
    backend meter or compute differently from another.
    """

    @pytest.mark.parametrize("pair", BACKEND_PAIRS)
    @given(
        alg=st.sampled_from(["tsqr", "house1d", "caqr1d"]),
        P=st.integers(2, 5),
        n=st.integers(1, 6),
        extra=st.integers(0, 17),
        workers=st.integers(1, 3),
        dtype=st.sampled_from([np.float64, np.float32]),
        seed=st.integers(0, 999),
    )
    @CONFORMANCE_SETTINGS
    def test_run_qr_cost_reports_agree(self, pair, alg, P, n, extra,
                                       workers, dtype, seed):
        from repro.workloads import run_qr

        m = max(n * P, n) + extra  # every rank holds >= n rows
        A = gaussian(m, n, seed=seed).astype(dtype)
        left, right = pair
        a = run_qr(alg, A, P=P, validate=True, backend=left, workers=workers)
        b = run_qr(alg, A, P=P, validate=True, backend=right, workers=workers)
        assert a.report == b.report
        assert a.words_by_label == b.words_by_label
        # Same dataflow, same kernels: residuals match bit for bit.
        assert a.diagnostics.residual == b.diagnostics.residual
        assert a.diagnostics.orthogonality == b.diagnostics.orthogonality
