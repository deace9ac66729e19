"""Algorithm 2 written once: the template, Eq. 4, and what they must not move.

``qr_eg`` (``qr/qreg.py``) is the one recursion behind 1d- and
3d-caqr-eg, ``apply_q`` (``qr/applyq.py``) the one Eq. 4 update, and
``gather_rows`` / ``scatter_rows`` the one row mover of the 3D base
case.  Pinned here:

* **golden metering** -- literal ``CostReport`` fields and
  ``words_by_label`` captured at the commit *before* the two
  recursions, the five updates and the seven base-case collectives were
  folded into one each, for everything ``tests/test_tsqr.py::GOLDEN``
  does not cover: ``wide``, ``applyq``, the right-looking variant,
  ``apply_q_3d`` in both directions, and caqr3d shapes that hit an
  immediate base case, grouped representatives with a swap,
  non-power-of-two ``P``, odd ``n``, ``method="index"`` and ``P = 1``;
  plus the multiset of compute and transfer labels of one traced run
  each of caqr1d / caqr3d / right-looking;
* **single precision keeps its digits** -- the trailing update is stored
  in the common type of its operands, not rounded back to the input's;
* **inputs are not mutated** -- the free cuts are views, and nothing
  writes through them.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.dist import BlockRowLayout, CyclicRowLayout, DistMatrix
from repro.machine import Machine
from repro.qr import (
    apply_q_3d,
    qr_1d_caqr_eg,
    qr_1d_caqr_eg_rightlooking,
    qr_3d_caqr_eg,
)
from repro.util import balanced_sizes
from repro.workloads import gaussian, run_qr


def block_rows(machine, A):
    m, P = A.shape[0], machine.P
    return DistMatrix.from_global(machine, A, BlockRowLayout(balanced_sizes(m, P)))


def measure(kind, m, n, P, knobs, backend, trace=False):
    """``(report, words_by_label, machine)`` of one run of ``kind``."""
    knobs = dict(knobs)
    extra = {"workers": 2} if backend == "parallel" else {}
    if kind in ("caqr3d", "wide", "applyq") and not trace:
        A = (m, n) if backend == "symbolic" else gaussian(m, n, seed=0)
        r = run_qr(kind, A, P, validate=False, backend=backend, **extra, **knobs)
        return r.report, r.words_by_label, None
    machine = Machine(P, backend=backend, trace=trace, **extra)
    A = gaussian(m, n, seed=0)
    if kind == "rightlooking":
        qr_1d_caqr_eg_rightlooking(block_rows(machine, A), 0, **knobs)
    elif kind == "caqr1d":
        qr_1d_caqr_eg(block_rows(machine, A), 0, **knobs)
    elif kind == "caqr3d":
        qr_3d_caqr_eg(DistMatrix.from_global(machine, A, CyclicRowLayout(m, P)), **knobs)
    else:  # apply_q_3d, after a caqr3d factorization on the same machine
        lay = CyclicRowLayout(m, P)
        res = qr_3d_caqr_eg(DistMatrix.from_global(machine, A, lay), b=6, bstar=3)
        C = DistMatrix.from_global(machine, gaussian(m, 5, seed=1), lay)
        apply_q_3d(res.V, res.T, C, **knobs)
    return machine.report(), dict(machine.words_by_label), machine


# ----------------------------------------------------------------------
# Golden metering: literal values from the parent commit
# ----------------------------------------------------------------------
# (kind, m, n, P, knobs) -> (CostReport fields, words_by_label), captured
# on gaussian(seed=0) input; numeric, symbolic and parallel agreed there.
GOLDEN = {
    ('caqr3d', 64, 8, 4, (('b', 8), ('bstar', 4))): (
        dict(critical_flops=10304.0, critical_words=992.0, critical_messages=54.0, total_flops=29052.0, total_words_sent=780, total_messages_sent=45, modeled_time=11350.0),
        {'gather': 128, 'scatter': 256, 'tsqr_up': 60, 'tsqr_down': 96, 'bcast_binomial': 144, 'reduce_binomial': 96},
    ),
    ('caqr3d', 64, 16, 8, (('b', 16), ('bstar', 8))): (
        dict(critical_flops=60224.0, critical_words=4416.0, critical_messages=60.0, total_flops=143320.0, total_words_sent=4376, total_messages_sent=61, modeled_time=64700.0),
        {'gather': 1024, 'scatter': 1792, 'tsqr_up': 216, 'tsqr_down': 384, 'bcast_binomial': 576, 'reduce_binomial': 384},
    ),
    ('caqr3d', 48, 24, 8, (('b', 12), ('bstar', 4))): (
        dict(critical_flops=36236.0, critical_words=9792.0, critical_messages=337.0, total_flops=105496.0, total_words_sent=21678, total_messages_sent=800, modeled_time=46260.0),
        {'gather': 1128, 'scatter': 1896, 'tsqr_up': 96, 'tsqr_down': 144, 'bcast_binomial': 360, 'reduce_binomial': 432, 'alltoall_round0': 4896, 'alltoall_round1': 4896, 'alltoall_round2': 4950, 'reduce_scatter': 1440, 'all_gather': 1440},
    ),
    ('caqr3d', 45, 9, 3, (('b', 4), ('bstar', 2))): (
        dict(critical_flops=6373.0, critical_words=2507.0, critical_messages=300.0, total_flops=15561.0, total_words_sent=3160, total_messages_sent=324, modeled_time=9167.0),
        {'gather': 32, 'scatter': 64, 'tsqr_up': 26, 'tsqr_down': 34, 'bcast_binomial': 46, 'reduce_binomial': 24, 'alltoall_round0': 1389, 'alltoall_round1': 1389, 'reduce_scatter': 104, 'all_gather': 52},
    ),
    ('caqr3d', 100, 15, 5, (('delta', 0.5),)): (
        dict(critical_flops=32438.0, critical_words=2820.0, critical_messages=150.0, total_flops=109804.0, total_words_sent=3201, total_messages_sent=216, modeled_time=35206.0),
        {'gather': 612, 'scatter': 981, 'tsqr_up': 144, 'tsqr_down': 228, 'bcast_binomial': 228, 'reduce_scatter': 672, 'all_gather': 336},
    ),
    ('caqr3d', 90, 18, 6, (('b', 9), ('bstar', 3), ('method', 'index'))): (
        dict(critical_flops=27345.0, critical_words=5609.0, critical_messages=363.0, total_flops=113642.0, total_words_sent=10153, total_messages_sent=540, modeled_time=33130.0),
        {'gather': 416, 'scatter': 694, 'tsqr_up': 150, 'tsqr_down': 210, 'bcast_binomial': 310, 'reduce_binomial': 200, 'reduce_scatter': 1210, 'all_gather': 605, 'alltoall_round0': 2667, 'alltoall_round1': 1874, 'alltoall_round2': 1817},
    ),
    ('caqr3d', 144, 24, 12, (('b', 6), ('bstar', 2))): (
        dict(critical_flops=29574.0, critical_words=18309.0, critical_messages=1289.0, total_flops=289400.0, total_words_sent=87761, total_messages_sent=4383, modeled_time=48954.0),
        {'gather': 336, 'scatter': 672, 'tsqr_up': 352, 'tsqr_down': 440, 'bcast_binomial': 1012, 'reduce_binomial': 1144, 'alltoall_round0': 22471, 'alltoall_round1': 22459, 'alltoall_round2': 15442, 'alltoall_round3': 14505, 'reduce_scatter': 5256, 'all_gather': 3672},
    ),
    ('caqr3d', 32, 8, 1, (('b', 4), ('bstar', 2))): (
        dict(critical_flops=8524.0, critical_words=0.0, critical_messages=0.0, total_flops=8524.0, total_words_sent=0, total_messages_sent=0, modeled_time=8524.0),
        {},
    ),
    ('caqr3d', 70, 21, 4, (('b', 5), ('bstar', 2))): (
        dict(critical_flops=35233.0, critical_words=15141.0, critical_messages=745.0, total_flops=107769.0, total_words_sent=24906, total_messages_sent=989, modeled_time=51020.0),
        {'gather': 144, 'scatter': 294, 'tsqr_up': 87, 'tsqr_down': 111, 'bcast_binomial': 195, 'reduce_binomial': 168, 'alltoall_round0': 11189, 'alltoall_round1': 11152, 'reduce_scatter': 1044, 'all_gather': 522},
    ),
    ('caqr3d', 128, 32, 8, (('b', 8), ('bstar', 4), ('method', 'index'))): (
        dict(critical_flops=86740.0, critical_words=19284.0, critical_messages=625.0, total_flops=531824.0, total_words_sent=57663, total_messages_sent=1572, modeled_time=106648.0),
        {'gather': 768, 'scatter': 1536, 'tsqr_up': 560, 'tsqr_down': 896, 'bcast_binomial': 1344, 'reduce_binomial': 896, 'alltoall_round0': 13502, 'alltoall_round1': 13486, 'alltoall_round2': 13411, 'reduce_scatter': 6272, 'all_gather': 4992},
    ),
    ('caqr3d', 32, 32, 4, (('b', 8), ('bstar', 4))): (
        dict(critical_flops=82413.0, critical_words=18515.0, critical_messages=440.0, total_flops=125608.0, total_words_sent=21721, total_messages_sent=576, modeled_time=101368.0),
        {'gather': 480, 'scatter': 992, 'tsqr_up': 100, 'tsqr_down': 160, 'bcast_binomial': 240, 'reduce_binomial': 160, 'alltoall_round0': 9217, 'alltoall_round1': 9220, 'reduce_scatter': 640, 'all_gather': 512},
    ),
    ('wide', 12, 30, 4, (('b', 6), ('bstar', 3))): (
        dict(critical_flops=13410.0, critical_words=4732.0, critical_messages=199.0, total_flops=22892.0, total_words_sent=5929, total_messages_sent=268, modeled_time=18340.0),
        {'gather': 102, 'scatter': 222, 'tsqr_up': 12, 'tsqr_down': 18, 'bcast_binomial': 27, 'reduce_binomial': 18, 'alltoall_round0': 2520, 'alltoall_round1': 2506, 'reduce_scatter': 36, 'all_gather': 468},
    ),
    ('wide', 16, 16, 4, (('b', 8), ('bstar', 4))): (
        dict(critical_flops=14152.0, critical_words=3528.0, critical_messages=145.0, total_flops=18592.0, total_words_sent=3716, total_messages_sent=181, modeled_time=17825.0),
        {'gather': 192, 'scatter': 448, 'tsqr_up': 20, 'tsqr_down': 32, 'bcast_binomial': 48, 'reduce_binomial': 32, 'alltoall_round0': 1408, 'alltoall_round1': 1408, 'reduce_scatter': 64, 'all_gather': 64},
    ),
    ('wide', 20, 33, 5, (('b', 5), ('bstar', 2), ('method', 'index'))): (
        dict(critical_flops=49425.0, critical_words=9497.0, critical_messages=364.0, total_flops=57900.0, total_words_sent=10253, total_messages_sent=446, modeled_time=59181.0),
        {'gather': 220, 'scatter': 420, 'tsqr_up': 14, 'tsqr_down': 18, 'bcast_binomial': 34, 'reduce_binomial': 32, 'alltoall_round0': 3635, 'alltoall_round1': 3607, 'alltoall_round2': 1823, 'reduce_scatter': 250, 'all_gather': 200},
    ),
    ('applyq', 128, 8, 4, ()): (
        dict(critical_flops=52668.0, critical_words=1552.0, critical_messages=26.0, total_flops=160620.0, total_words_sent=1260, total_messages_sent=21, modeled_time=54246.0),
        {'tsqr_up': 108, 'tsqr_down': 192, 'bcast_binomial': 576, 'reduce_binomial': 384},
    ),
    ('applyq', 90, 6, 3, ()): (
        dict(critical_flops=25659.0, critical_words=675.0, critical_messages=20.0, total_flops=60529.0, total_words_sent=474, total_messages_sent=14, modeled_time=26354.0),
        {'tsqr_up': 42, 'tsqr_down': 72, 'bcast_binomial': 216, 'reduce_binomial': 144},
    ),
    ('rightlooking', 128, 12, 4, (('nb', 5),)): (
        dict(critical_flops=28695.0, critical_words=816.0, critical_messages=46.0, total_flops=91035.0, total_words_sent=693, total_messages_sent=39, modeled_time=29557.0),
        {'tsqr_up': 99, 'tsqr_down': 162, 'bcast_binomial': 297, 'reduce_binomial': 135},
    ),
    ('rightlooking', 128, 12, 4, (('nb', 8), ('b', 3))): (
        dict(critical_flops=18148.0, critical_words=736.0, critical_messages=110.0, total_flops=64358.0, total_words_sent=642, total_messages_sent=96, modeled_time=18953.0),
        {'tsqr_up': 54, 'tsqr_down': 72, 'bcast_binomial': 252, 'reduce_binomial': 264},
    ),
    ('rightlooking', 105, 7, 3, (('nb', 3), ('b', 2))): (
        dict(critical_flops=6718.0, critical_words=201.0, critical_messages=68.0, total_flops=18469.0, total_words_sent=146, total_messages_sent=50, modeled_time=6968.0),
        {'tsqr_up': 18, 'tsqr_down': 22, 'bcast_binomial': 60, 'reduce_binomial': 46},
    ),
    ('apply_q_3d', 48, 12, 4, (('adjoint', False),)): (
        dict(critical_flops=15378.0, critical_words=5830.0, critical_messages=276.0, total_flops=47164.0, total_words_sent=9807, total_messages_sent=396, modeled_time=21408.0),
        {'gather': 120, 'scatter': 240, 'tsqr_up': 72, 'tsqr_down': 108, 'bcast_binomial': 162, 'reduce_binomial': 108, 'alltoall_round0': 4104, 'alltoall_round1': 4089, 'reduce_scatter': 456, 'all_gather': 348},
    ),
    ('apply_q_3d', 48, 12, 4, (('adjoint', True),)): (
        dict(critical_flops=15378.0, critical_words=5827.0, critical_messages=276.0, total_flops=47164.0, total_words_sent=9807, total_messages_sent=396, modeled_time=21405.0),
        {'gather': 120, 'scatter': 240, 'tsqr_up': 72, 'tsqr_down': 108, 'bcast_binomial': 162, 'reduce_binomial': 108, 'alltoall_round0': 4104, 'alltoall_round1': 4089, 'reduce_scatter': 456, 'all_gather': 348},
    ),
}

TRACE_LABELS = {
    ('caqr1d', 96, 12, 4, (('b', 3),)): {
        ('compute', 'apply_wy'): 28,
        ('compute', 'caqr1d_M2'): 3,
        ('compute', 'caqr1d_M4'): 3,
        ('compute', 'caqr1d_T12'): 3,
        ('compute', 'caqr1d_negate'): 3,
        ('compute', 'caqr1d_sub'): 12,
        ('compute', 'geqrt_factor'): 28,
        ('compute', 'mm1d_local'): 12,
        ('compute', 'mm1d_partial'): 24,
        ('compute', 'reduce_combine'): 18,
        ('compute', 't_from_v'): 28,
        ('compute', 'tsqr_R'): 4,
        ('compute', 'tsqr_T'): 4,
        ('compute', 'tsqr_V'): 16,
        ('compute', 'tsqr_lu'): 4,
        ('send', 'bcast_binomial'): 21,
        ('send', 'reduce_binomial'): 18,
        ('send', 'tsqr_down'): 12,
        ('send', 'tsqr_up'): 12,
    },
    ('caqr3d', 48, 24, 8, (('b', 12), ('bstar', 4))): {
        ('compute', 'apply_wy'): 40,
        ('compute', 'caqr1d_M2'): 6,
        ('compute', 'caqr1d_M4'): 6,
        ('compute', 'caqr1d_T12'): 6,
        ('compute', 'caqr1d_negate'): 6,
        ('compute', 'caqr1d_sub'): 18,
        ('compute', 'caqr3d_negate'): 8,
        ('compute', 'caqr3d_sub'): 8,
        ('compute', 'geqrt_factor'): 40,
        ('compute', 'mm1d_local'): 18,
        ('compute', 'mm1d_partial'): 36,
        ('compute', 'mm3d_local'): 38,
        ('compute', 'reduce_combine'): 24,
        ('compute', 'reduce_scatter_add'): 44,
        ('compute', 't_from_v'): 40,
        ('compute', 'tsqr_R'): 8,
        ('compute', 'tsqr_T'): 8,
        ('compute', 'tsqr_V'): 23,
        ('compute', 'tsqr_lu'): 8,
        ('send', 'all_gather'): 60,
        ('send', 'alltoall_round0'): 182,
        ('send', 'alltoall_round1'): 185,
        ('send', 'alltoall_round2'): 181,
        ('send', 'bcast_binomial'): 28,
        ('send', 'gather'): 18,
        ('send', 'reduce_binomial'): 24,
        ('send', 'reduce_scatter'): 44,
        ('send', 'scatter'): 46,
        ('send', 'tsqr_down'): 16,
        ('send', 'tsqr_up'): 16,
    },
    ('rightlooking', 105, 7, 3, (('nb', 3), ('b', 2))): {
        ('compute', 'apply_wy'): 25,
        ('compute', 'caqr1d_M2'): 2,
        ('compute', 'caqr1d_M4'): 2,
        ('compute', 'caqr1d_T12'): 2,
        ('compute', 'caqr1d_negate'): 2,
        ('compute', 'caqr1d_sub'): 6,
        ('compute', 'geqrt_factor'): 25,
        ('compute', 'mm1d_local'): 12,
        ('compute', 'mm1d_partial'): 18,
        ('compute', 'reduce_combine'): 12,
        ('compute', 'rl_M2'): 2,
        ('compute', 'rl_sub'): 6,
        ('compute', 't_from_v'): 10,
        ('compute', 'tsqr_R'): 5,
        ('compute', 'tsqr_T'): 5,
        ('compute', 'tsqr_V'): 15,
        ('compute', 'tsqr_lu'): 2,
        ('send', 'bcast_binomial'): 18,
        ('send', 'reduce_binomial'): 12,
        ('send', 'tsqr_down'): 10,
        ('send', 'tsqr_up'): 10,
    },
}


class TestGoldenMetering:
    @pytest.mark.parametrize("backend", ["numeric", "symbolic", "parallel"])
    @pytest.mark.parametrize("kind,m,n,P,knobs", list(GOLDEN))
    def test_report_and_labels_equal_the_parent_commit(self, kind, m, n, P, knobs, backend):
        fields, labels = GOLDEN[kind, m, n, P, knobs]
        report, words_by_label, _ = measure(kind, m, n, P, knobs, backend)
        assert {k: getattr(report, k) for k in fields} == fields
        assert words_by_label == labels

    @pytest.mark.parametrize("kind,m,n,P,knobs", list(TRACE_LABELS))
    def test_traced_label_multiset_equals_the_parent_commit(self, kind, m, n, P, knobs):
        _, _, machine = measure(kind, m, n, P, knobs, "numeric", trace=True)
        got = Counter((ev.kind, ev.label) for ev in machine.trace if ev.kind != "recv")
        assert dict(got) == TRACE_LABELS[kind, m, n, P, knobs]


# ----------------------------------------------------------------------
# Single-precision input keeps double-precision factors
# ----------------------------------------------------------------------

def _diagnostics(alg, A, backend):
    extra = {"workers": 2} if backend == "parallel" else {}
    if alg != "rightlooking":
        knobs = {"caqr1d": {"b": 8}, "caqr3d": {"b": 16, "bstar": 8}, "wide": {"b": 8, "bstar": 4}}
        return run_qr(alg, A, 4, validate=True, backend=backend, **extra, **knobs[alg]).diagnostics
    machine = Machine(4, backend=backend, **extra)
    rl = qr_1d_caqr_eg_rightlooking(block_rows(machine, A), 0, nb=8, b=4)
    panels, R = machine.materialize(([(j0, V.to_global(), T) for j0, V, T in rl.panels], rl.R))
    # Q = Q_1 Q_2 ... from the panel kernels; V and T of the whole are never formed.
    m, n = A.shape
    Q = np.eye(m, dtype=R.dtype)
    for j0, V, T in panels:
        Q[:, j0:] -= (Q[:, j0:] @ V) @ T @ V.conj().T
    A64 = A.astype(R.dtype)
    residual = np.linalg.norm(A64 - Q[:, :n] @ R) / np.linalg.norm(A64)
    orthogonality = np.linalg.norm(Q.conj().T @ Q - np.eye(m))
    return residual, orthogonality


class TestSinglePrecisionInput:
    """At the parent every recursion level rounded the trailing update
    back to the input's type: caqr1d on float32 read residual 2.6e-08
    where tsqr on the same input read 5.4e-16."""

    @pytest.mark.parametrize("dtype", [np.float32, np.complex64])
    @pytest.mark.parametrize("alg", ["caqr1d", "caqr3d", "wide", "rightlooking"])
    def test_factors_are_double_precision_on_both_backends(self, alg, dtype):
        m, n = (24, 40) if alg == "wide" else (256, 32)
        A = gaussian(m, n, seed=0, complex_=np.issubdtype(dtype, np.complexfloating)).astype(dtype)
        got = {backend: _diagnostics(alg, A, backend) for backend in ("numeric", "parallel")}
        assert got["numeric"] == got["parallel"]
        d = got["numeric"]
        residual, orthogonality = d if alg == "rightlooking" else (d.residual, d.orthogonality)
        assert residual <= 1e-13 and orthogonality <= 1e-13, d


# ----------------------------------------------------------------------
# The cuts are views: the input is read, never written
# ----------------------------------------------------------------------

class TestInputsAreNotMutated:
    @pytest.mark.parametrize("backend", ["numeric", "parallel"])
    @pytest.mark.parametrize("alg", ["caqr1d", "caqr3d"])
    def test_blocks_of_A_are_bitwise_unchanged(self, alg, backend):
        m, n, P = 96, 12, 4
        A = gaussian(m, n, seed=3)
        machine = Machine(P, backend=backend, **({"workers": 2} if backend == "parallel" else {}))
        if alg == "caqr1d":
            dA = block_rows(machine, A)
            res = qr_1d_caqr_eg(dA, 0, b=3)
        else:
            dA = DistMatrix.from_global(machine, A, CyclicRowLayout(m, P))
            res = qr_3d_caqr_eg(dA, b=6, bstar=3)
        before = {p: A[dA.layout.rows_of(p)] for p in dA.layout.participants()}
        V, after = machine.materialize((res.V.to_global(), dict(dA.blocks)))
        assert np.isfinite(V).all()
        for p, blk in after.items():
            np.testing.assert_array_equal(blk, before[p])
