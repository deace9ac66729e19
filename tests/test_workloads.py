"""Tests for workload generators, the run harness, and validation helpers."""

import numpy as np
import pytest

from repro.machine import CostParams
from repro.qr.validate import QRDiagnostics, qr_diagnostics
from repro.workloads import (
    ALGORITHMS,
    column_scaled,
    format_run_table,
    gaussian,
    graded,
    identity_tall,
    near_rank_deficient,
    run_qr,
)


class TestGenerators:
    def test_gaussian_shape_and_determinism(self):
        A = gaussian(10, 4, seed=3)
        B = gaussian(10, 4, seed=3)
        assert A.shape == (10, 4)
        assert np.array_equal(A, B)

    def test_gaussian_complex(self):
        A = gaussian(5, 2, seed=0, complex_=True)
        assert np.iscomplexobj(A)

    def test_graded_condition(self):
        A = graded(30, 6, cond=1e8, seed=1)
        s = np.linalg.svd(A, compute_uv=False)
        assert s[0] / s[-1] == pytest.approx(1e8, rel=0.1)

    def test_near_rank_deficient(self):
        A = near_rank_deficient(20, 8, rank=3, noise=1e-13, seed=2)
        s = np.linalg.svd(A, compute_uv=False)
        assert s[3] / s[0] < 1e-9

    def test_column_scaled_span(self):
        A = column_scaled(20, 5, span=1e6, seed=3)
        norms = np.linalg.norm(A, axis=0)
        assert norms[-1] / norms[0] > 1e4

    def test_identity_tall(self):
        A = identity_tall(6, 3)
        assert np.allclose(A[:3], np.eye(3))
        assert not A[3:].any()


class TestRunHarness:
    def test_all_algorithms_listed_run(self):
        A_ts = gaussian(128, 8, seed=4)
        A_sq = gaussian(32, 16, seed=5)
        A_wd = gaussian(16, 32, seed=6)
        for alg in ALGORITHMS:
            if alg in ("tsqr", "house1d", "caqr1d", "applyq", "mm1d"):
                A = A_ts
            elif alg == "wide":
                A = A_wd
            else:
                A = A_sq
            r = run_qr(alg, A, P=4)
            assert r.diagnostics.ok(1e-9), alg
            assert r.report.critical_flops > 0

    def test_row_contains_costs(self):
        r = run_qr("tsqr", gaussian(64, 4, seed=6), P=4)
        row = r.row()
        for key in ("algorithm", "m", "n", "P", "flops", "words", "messages", "residual"):
            assert key in row

    def test_params_forwarded(self):
        r = run_qr("caqr1d", gaussian(64, 8, seed=7), P=4, b=2)
        assert r.params["b"] == 2

    def test_caqr3d_records_chosen_thresholds(self):
        r = run_qr("caqr3d", gaussian(32, 16, seed=8), P=4, delta=0.5)
        assert "b" in r.params and "bstar" in r.params

    def test_cost_params_respected(self):
        cp = CostParams(alpha=100.0, beta=1.0, gamma=0.0, name="test")
        r = run_qr("tsqr", gaussian(64, 4, seed=9), P=4, cost_params=cp)
        assert r.report.params.name == "test"
        assert r.report.modeled_time > 0

    def test_validate_false_skips(self):
        r = run_qr("tsqr", gaussian(64, 4, seed=10), P=4, validate=False)
        assert r.diagnostics.residual == 0.0

    def test_unknown_algorithm(self):
        with pytest.raises(KeyError):
            run_qr("bogus", gaussian(8, 2, seed=0), P=2)

    @pytest.mark.parametrize("entry", ["run_qr", "run_many", "run_coded_qr"])
    def test_unknown_knob_is_rejected_not_swallowed(self, entry):
        from repro.engine import QRJob, run_many
        from repro.faults import run_coded_qr
        from repro.machine import ParameterError

        A = gaussian(64, 4, seed=11)
        calls = {
            "run_qr": lambda: run_qr("tsqr", A, P=4, compile=False),
            "run_many": lambda: run_many(
                [QRJob("tsqr", A, params={"bstarr": 2})], P=4),
            "run_coded_qr": lambda: run_coded_qr("tsqr", A, P=4, compile=False),
        }
        with pytest.raises(ParameterError, match=r"unknown knob.*'bstar'.*'method'"):
            calls[entry]()

    def test_known_knob_the_algorithm_ignores_is_tolerated(self):
        # The CLI sweep and the planner pass the common set to everyone.
        r = run_qr("tsqr", gaussian(64, 4, seed=12), P=4, bb=2, delta=0.5)
        assert r.diagnostics.ok()

    def test_identity_input_factors(self):
        """[I; 0] stresses the always-reflect tau=2 path end to end."""
        A = identity_tall(32, 4)
        for alg in ("tsqr", "caqr1d"):
            r = run_qr(alg, A, P=4)
            assert r.diagnostics.ok(1e-12), alg


class TestFormatting:
    def test_format_run_table(self):
        rows = [run_qr("tsqr", gaussian(64, 4, seed=11), P=4).row()]
        txt = format_run_table(rows, title="hello")
        assert "hello" in txt and "tsqr" in txt and "words" in txt

    def test_format_empty(self):
        assert format_run_table([], title="empty") == "empty"


class TestDiagnostics:
    def test_ok_threshold(self):
        good = QRDiagnostics(1e-14, 1e-14, 0, 0, 0)
        bad = QRDiagnostics(1e-3, 1e-14, 0, 0, 0)
        assert good.ok()
        assert not bad.ok()

    def test_catches_wrong_r(self, rng):
        from repro.qr import local_geqrt
        from repro.machine import Machine

        A = rng.standard_normal((10, 4))
        pan = local_geqrt(Machine(1), 0, A)
        d = qr_diagnostics(A, pan.V, pan.T, pan.R + 0.1)
        assert d.residual > 1e-3

    def test_catches_nonunitary_t(self, rng):
        from repro.qr import local_geqrt
        from repro.machine import Machine

        A = rng.standard_normal((10, 4))
        pan = local_geqrt(Machine(1), 0, A)
        d = qr_diagnostics(A, pan.V, pan.T * 1.01, pan.R)
        assert d.orthogonality > 1e-3
