"""Failure-mode tests: every precondition violation raises, cleanly.

A production library's error paths are part of its API.  Each test here
asserts both *that* an error is raised and that it is the right type
(so callers can distinguish user errors from bugs).
"""

import numpy as np
import pytest

from repro.dist import (
    BlockRowLayout,
    CyclicRowLayout,
    DistMatrix,
    ExplicitRowLayout,
    head_layout,
    redistribute_rows,
)
from repro.machine import (
    DistributionError,
    Machine,
    MachineError,
    OwnershipError,
    ParameterError,
    ReproError,
)
from repro.qr import qr_1d_caqr_eg, qr_3d_caqr_eg, tsqr
from repro.workloads import gaussian


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        for err in (MachineError, DistributionError, OwnershipError, ParameterError):
            assert issubclass(err, ReproError)

    def test_ownership_is_machine_error(self):
        assert issubclass(OwnershipError, MachineError)


class TestMachineFailures:
    def test_zero_processors(self):
        with pytest.raises(MachineError):
            Machine(0)

    def test_rank_out_of_range_compute(self):
        with pytest.raises(MachineError):
            Machine(2).compute(3, 1.0)

    def test_rank_out_of_range_transfer(self):
        with pytest.raises(MachineError):
            Machine(2).transfer(0, 2, np.zeros(1))

    def test_unknown_payload_type(self):
        with pytest.raises(MachineError):
            Machine(2).transfer(0, 1, object())


class TestDistributionFailures:
    def test_missing_block(self):
        m = Machine(2)
        with pytest.raises(DistributionError):
            DistMatrix(m, BlockRowLayout([2, 2]), 3, {0: np.zeros((2, 3))})

    def test_negative_columns(self):
        m = Machine(1)
        with pytest.raises(DistributionError):
            DistMatrix(m, BlockRowLayout([2]), -1, {0: np.zeros((2, 0))})

    def test_from_global_shape_mismatch(self):
        m = Machine(2)
        with pytest.raises(DistributionError):
            DistMatrix.from_global(m, np.zeros((5, 2)), BlockRowLayout([2, 2]))

    def test_explicit_layout_shape(self):
        with pytest.raises(DistributionError):
            ExplicitRowLayout(np.zeros((2, 2)))

    def test_head_layout_negative(self):
        with pytest.raises(DistributionError):
            head_layout(CyclicRowLayout(4, 2), -1)

    def test_redistribute_wrong_m(self):
        m = Machine(2)
        dm = DistMatrix.zeros(m, BlockRowLayout([2, 2]), 1)
        with pytest.raises(DistributionError):
            redistribute_rows(dm, CyclicRowLayout(5, 2))


class TestAlgorithmPreconditions:
    def test_tsqr_insufficient_rows(self):
        machine = Machine(4)
        A = gaussian(10, 4, seed=0)
        from repro.util import balanced_sizes

        dA = DistMatrix.from_global(machine, A, BlockRowLayout(balanced_sizes(10, 4)))
        with pytest.raises(DistributionError):
            tsqr(dA, root=0)

    def test_tsqr_root_without_leading_rows(self):
        machine = Machine(2)
        A = gaussian(16, 4, seed=0)
        dA = DistMatrix.from_global(machine, A, BlockRowLayout([8, 8]))
        with pytest.raises(DistributionError):
            tsqr(dA, root=1)

    def test_caqr1d_bad_threshold(self):
        machine = Machine(2)
        A = gaussian(16, 4, seed=0)
        dA = DistMatrix.from_global(machine, A, BlockRowLayout([8, 8]))
        with pytest.raises(ParameterError):
            qr_1d_caqr_eg(dA, root=0, b=-3)

    def test_caqr3d_wide_matrix(self):
        machine = Machine(2)
        A = gaussian(4, 8, seed=0)
        dA = DistMatrix.from_global(machine, A, CyclicRowLayout(4, 2))
        with pytest.raises(ParameterError):
            qr_3d_caqr_eg(dA)

    def test_caqr3d_threshold_order(self):
        machine = Machine(2)
        A = gaussian(16, 8, seed=0)
        dA = DistMatrix.from_global(machine, A, CyclicRowLayout(16, 2))
        with pytest.raises(ParameterError):
            qr_3d_caqr_eg(dA, b=4, bstar=8)

    def test_geqrt_wide(self):
        from repro.qr import local_geqrt

        with pytest.raises(ValueError):
            local_geqrt(Machine(1), 0, gaussian(2, 5, seed=0))

    def test_house2d_needs_input(self):
        from repro.qr import qr_house_2d

        with pytest.raises(ParameterError):
            qr_house_2d()

    def test_house2d_wide(self):
        from repro.qr import qr_house_2d

        with pytest.raises(ParameterError):
            qr_house_2d(machine=Machine(2), A_global=gaussian(4, 8, seed=0), bb=2)


class TestDegenerateInputsStillWork:
    """Edge shapes must succeed, not crash."""

    def test_single_column(self):
        machine = Machine(2)
        A = gaussian(8, 1, seed=1)
        dA = DistMatrix.from_global(machine, A, BlockRowLayout([4, 4]))
        res = tsqr(dA, root=0)
        assert abs(abs(res.R[0, 0]) - np.linalg.norm(A)) < 1e-12

    def test_single_row_single_col(self):
        machine = Machine(1)
        A = np.array([[3.0]])
        dA = DistMatrix.from_global(machine, A, BlockRowLayout([1]))
        res = tsqr(dA, root=0)
        assert abs(abs(res.R[0, 0]) - 3.0) < 1e-14

    def test_zero_matrix(self):
        machine = Machine(2)
        A = np.zeros((8, 2))
        dA = DistMatrix.from_global(machine, A, BlockRowLayout([4, 4]))
        res = tsqr(dA, root=0)
        assert np.allclose(res.R, 0)

    def test_constant_columns(self):
        machine = Machine(2)
        A = np.ones((12, 3))
        dA = DistMatrix.from_global(machine, A, BlockRowLayout([6, 6]))
        res = tsqr(dA, root=0)
        from repro.qr.validate import qr_diagnostics

        d = qr_diagnostics(A, res.V.to_global(), res.T, res.R)
        assert d.residual < 1e-12 and d.orthogonality < 1e-12


# ----------------------------------------------------------------------
# Non-finite input: every QR driver refuses it on every executing backend
# ----------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's "invalid value" on the way
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("alg,m,n,P", [
    ("tsqr", 64, 4, 4), ("caqr1d", 64, 8, 4), ("caqr3d", 64, 16, 4), ("house2d", 48, 12, 4),
])
class TestNonFiniteInput:
    """A NaN/Inf anywhere in ``A`` raises; factors are never returned.

    Captured at the commit before the TSQR kernels stopped calling
    ``scipy.linalg.solve_triangular`` (whose ``check_finite`` was the
    only thing refusing such input); since then ``local_geqrt`` checks
    its own ``T``, so the first bad leaf fails.
    """

    @staticmethod
    def _input(m, n, bad):
        A = gaussian(m, n, seed=5)
        A[m // 2 + 1, n // 2] = bad
        return A

    def test_numeric_raises_value_error(self, alg, m, n, P, bad):
        from repro.workloads import run_qr

        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            run_qr(alg, self._input(m, n, bad), P)

    @pytest.mark.parametrize("backend", [
        "parallel", pytest.param("parallel-mp", marks=pytest.mark.mp),
    ])
    def test_engines_raise_from_the_failing_task(self, alg, m, n, P, bad, backend):
        from repro.engine import EngineExecutionError
        from repro.workloads import run_qr

        with pytest.raises(EngineExecutionError, match="must not contain infs or NaNs"):
            run_qr(alg, self._input(m, n, bad), P, backend=backend, workers=2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_tsqr_fails_at_the_first_bad_leaf_not_at_the_root():
    from repro.engine import EngineExecutionError
    from repro.workloads import run_qr

    A = gaussian(64, 4, seed=5)
    A[33, 2] = np.nan  # rank 2's block
    with pytest.raises(
        EngineExecutionError, match=r"'geqrt', rank=2\) failed.*panel of shape \(16, 4\)"
    ):
        run_qr("tsqr", A, 4, backend="parallel", workers=2)
