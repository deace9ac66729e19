"""Zero-copy input: a rank's contiguous rows are a view of the caller's array.

``DistMatrix.from_global`` and the replay slicer hand out row-slice
views where a rank's rows are one contiguous run (every block-row
layout), so no algorithm may write an input block in place.  Each
algorithm, on every value-computing backend, must factor a read-only
input to the same bits as a writeable copy of it and leave it as it was.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import resolve_backend
from repro.dist import BlockRowLayout, CyclicRowLayout, DistMatrix
from repro.engine.batch import _replay
from repro.machine import Machine
from repro.workloads import ALGORITHMS, gaussian
from repro.workloads.sweeps import _row_slicer, build

#: One small shape per algorithm, as in ``tests/test_plan_freed.py``.
SHAPES = {
    "tsqr": (64, 4, 4, {}),
    "house1d": (96, 6, 8, {}),
    "caqr1d": (210, 5, 7, {}),
    "house2d": (48, 24, 6, {}),
    "caqr2d": (60, 30, 9, {}),
    "caqr3d": (256, 64, 8, {"b": 16, "bstar": 4}),
    "wide": (24, 48, 6, {}),
    "applyq": (96, 6, 8, {}),
    "mm1d": (96, 6, 8, {}),
    "mm3d": (48, 24, 6, {}),
}

BACKENDS = ["numeric", "parallel", pytest.param("parallel-mp", marks=pytest.mark.mp)]


def _factors(alg: str, A: np.ndarray, backend: str):
    m, n, P, params = SHAPES[alg]
    impl = resolve_backend(backend)
    built, factors = build(alg, impl.coerce_global(A), P, params, True, impl, workers=2)
    return built, factors


def _assert_same(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(np.asarray(a), np.asarray(b))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("alg", ALGORITHMS)
def test_a_read_only_input_factors_like_a_writeable_copy(alg, backend):
    m, n, _P, _params = SHAPES[alg]
    A = gaussian(m, n, seed=7)
    A.flags.writeable = False
    before = A.copy()
    built, want = _factors(alg, A.copy(), backend)
    built, got = _factors(alg, A, backend)
    _assert_same(got, want)
    if built.machine.plan is not None:  # an engine plan: replay it on the input
        B = gaussian(m, n, seed=8)
        B.flags.writeable = False
        _replay(built, B)
        _assert_same(_replay(built, A), want)
    assert np.array_equal(A, before)


class TestViews:
    def test_block_rows_are_views_of_a_c_contiguous_input(self):
        A = gaussian(12, 3)
        dA = DistMatrix.from_global(Machine(3), A, BlockRowLayout([4, 4, 4]))
        assert all(np.shares_memory(dA.local(p), A) for p in range(3))
        assert all(np.shares_memory(b, A) for b in _row_slicer(dA.layout)(A))

    def test_cyclic_rows_and_a_fortran_input_are_copied(self):
        A = gaussian(12, 3)
        dA = DistMatrix.from_global(Machine(3), A, CyclicRowLayout(12, 3))
        assert not any(np.shares_memory(dA.local(p), A) for p in range(3))
        F = np.asfortranarray(A)
        dF = DistMatrix.from_global(Machine(3), F, BlockRowLayout([4, 4, 4]))
        assert all(dF.local(p).flags.c_contiguous for p in range(3))
        assert not any(np.shares_memory(dF.local(p), F) for p in range(3))
        for p in range(3):
            assert np.array_equal(dA.local(p), A[p::3]) and np.array_equal(dF.local(p), A[4 * p:4 * p + 4])
