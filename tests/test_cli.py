"""Smoke tests for the command-line interface (``python -m repro``).

The CLI is the repo's front door: ``run`` factors one matrix and prints
the measured cost triple, ``sweep`` varies one knob, ``profiles`` lists
the machine profiles.  These tests exercise both the in-process
``main()`` entry (fast, covers argument plumbing) and the real
``python -m repro`` subprocess (covers ``__main__`` and exit codes).
"""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_module(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )


class TestMainInProcess:
    def test_run_prints_cost_triple(self, capsys):
        rc = main(["run", "--alg", "caqr1d", "--m", "64", "--n", "8", "--P", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        for col in ("flops", "words", "messages", "residual", "caqr1d"):
            assert col in out

    def test_run_parallel_backend(self, capsys):
        rc = main(["run", "--alg", "tsqr", "--m", "128", "--n", "8", "--P", "4",
                   "--backend", "parallel", "--workers", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tsqr" in out and "residual" in out

    def test_run_caqr3d_reports_phase_volume(self, capsys):
        # b < n forces the inductive case, whose dmm redistributions
        # produce the all-to-all phase traffic the CLI reports.
        rc = main(["run", "--alg", "caqr3d", "--m", "32", "--n", "8", "--P", "4",
                   "--b", "4", "--bstar", "2", "--no-validate"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "word volume by phase" in out
        assert "all-to-all" in out

    def test_sweep_varies_knob(self, capsys):
        rc = main(["sweep", "--alg", "caqr1d", "--m", "64", "--n", "8", "--P", "4",
                   "--knob", "b", "--values", "8,4", "--no-validate"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sweep over b" in out
        assert "t(cluster)" in out

    def test_sweep_accepts_float_values(self, capsys):
        rc = main(["sweep", "--alg", "caqr3d", "--m", "32", "--n", "8", "--P", "2",
                   "--knob", "delta", "--values", "0.5,0.667", "--no-validate"])
        assert rc == 0
        assert "sweep over delta" in capsys.readouterr().out

    def test_profiles_lists_builtins(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        for name in ("unit", "cluster", "cloud", "supercomputer"):
            assert name in out

    def test_plan_prints_ranked_table(self, capsys):
        rc = main(["plan", "--m", "512", "--n", "8", "--P", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        for col in ("rank", "algorithm", "t_pred", "t_meas", "candidates measured"):
            assert col in out

    def test_plan_infeasible_exits_nonzero_with_explanation(self, capsys):
        rc = main(["plan", "--m", "8", "--n", "64", "--P", "4"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "no feasible candidate" in out

    def test_plan_p_budget_mode(self, capsys):
        rc = main(["plan", "--m", "4096", "--n", "16", "--P-budget", "8",
                   "--profile", "supercomputer", "--show", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "P in [1, 2, 4, 8]" in out

    def test_plan_run_executes_winner(self, capsys):
        rc = main(["plan", "--m", "64", "--n", "8", "--P", "4", "--run"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "winner executed on the numeric backend" in out
        assert "residual" in out

    def test_plan_run_on_parallel_backend(self, capsys):
        rc = main(["plan", "--m", "64", "--n", "8", "--P", "4", "--run",
                   "--backend", "parallel", "--workers", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "winner executed on the parallel backend" in out
        assert "residual" in out

    def test_plan_run_on_symbolic_backend(self, capsys):
        # Cost-only run-after-plan: no validation, shape-only input.
        rc = main(["plan", "--m", "64", "--n", "8", "--P", "4", "--run",
                   "--backend", "symbolic"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "winner executed on the symbolic backend" in out

    def test_plan_run_infeasible_exits_cleanly(self, capsys):
        rc = main(["plan", "--m", "8", "--n", "64", "--P", "4", "--run"])
        assert rc == 1
        assert "no feasible plan" in capsys.readouterr().out

    def test_plan_rejects_p_and_budget_together(self):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--m", "64", "--n", "8", "--P", "4", "--P-budget", "8"])
        assert exc.value.code == 2

    def test_plan_custom_profile_triple(self, capsys):
        rc = main(["plan", "--m", "512", "--n", "8", "--P", "4",
                   "--profile", "1e-5,4e-9,1e-10"])
        assert rc == 0
        assert "custom" in capsys.readouterr().out

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--alg", "nope", "--m", "8", "--n", "2", "--P", "1"])
        assert exc.value.code == 2  # argparse usage error

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestTraceCommand:
    def test_trace_writes_valid_chrome_trace_and_drift_table(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        rc = main(["trace", "tsqr", "--m", "256", "--n", "16", "--P", "4",
                   "--workers", "2", "--out", str(out),
                   "--metrics-out", str(metrics)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "drift: tsqr" in text
        assert "critical path" in text and "wall-clock" in text
        # The emitted file passes the CI trace checker.
        import importlib.util
        import json

        spec = importlib.util.spec_from_file_location(
            "check_trace",
            pathlib.Path(__file__).resolve().parent.parent / "tools" / "check_trace.py",
        )
        check = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check)
        assert check.check(str(out)) == []
        dump = json.loads(metrics.read_text())
        assert dump["enabled"] is True
        assert dump["counters"]["engine.tasks"] > 0
        # The traced (first) execution of this fine-grained plan ran on
        # the inline lane; the lanes line names that prediction's grain
        # and what replays of the job then measured.
        assert dump["gauges"]["engine.lanes"] == 1.0
        (lanes,) = [ln for ln in text.splitlines() if ln.startswith("lanes: ")]
        assert re.fullmatch(
            r"lanes: [12] of 2 workers \(first execute inline: \d\.\de\d+ flops/task; "
            r"measured \d+ ms on one lane vs \d+ ms on 2\)",
            lanes,
        )

    def test_trace_on_one_worker_measures_no_lanes(self, capsys, tmp_path):
        rc = main(["trace", "tsqr", "--m", "128", "--n", "8", "--P", "4",
                   "--workers", "1", "--out", str(tmp_path / "t.json")])
        assert rc == 0
        assert "lanes: 1 of 1 workers (not measured)" in capsys.readouterr().out

    def test_trace_accepts_knobs_and_profile(self, capsys, tmp_path):
        rc = main(["trace", "caqr3d", "--m", "64", "--n", "16", "--P", "8",
                   "--workers", "2", "--profile", "cloud",
                   "--out", str(tmp_path / "t.json")])
        assert rc == 0
        text = capsys.readouterr().out
        assert "profile 'cloud'" in text

    def test_run_telemetry_flag_prints_summary(self, capsys):
        rc = main(["run", "--alg", "tsqr", "--m", "128", "--n", "8", "--P", "4",
                   "--backend", "parallel", "--workers", "2", "--telemetry"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out and "engine.tasks" in out

    def test_run_telemetry_on_symbolic_reports_simulated_only(self, capsys):
        rc = main(["run", "--alg", "tsqr", "--m", "4096", "--n", "64", "--P", "8",
                   "--backend", "symbolic", "--no-validate", "--telemetry"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulated time only" in out


class TestModuleSubprocess:
    def test_run(self):
        proc = run_module("run", "--alg", "tsqr", "--m", "64", "--n", "8", "--P", "4")
        assert proc.returncode == 0, proc.stderr
        assert "tsqr" in proc.stdout
        assert "modeled time by machine profile" in proc.stdout

    def test_sweep(self):
        proc = run_module("sweep", "--alg", "tsqr", "--m", "64", "--n", "8", "--P", "4",
                          "--knob", "eps", "--values", "1.0", "--no-validate")
        assert proc.returncode == 0, proc.stderr
        assert "sweep over eps" in proc.stdout

    def test_profiles(self):
        proc = run_module("profiles")
        assert proc.returncode == 0, proc.stderr
        assert "supercomputer" in proc.stdout

    def test_plan(self):
        proc = run_module("plan", "--m", "512", "--n", "8", "--P", "4")
        assert proc.returncode == 0, proc.stderr
        assert "ranked plans" in proc.stdout

    def test_bad_usage_exit_code(self):
        proc = run_module("run", "--alg", "tsqr")  # missing required args
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()
