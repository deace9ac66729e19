"""Tests for the algorithm-selection planner (``repro.planner``).

Covers the ISSUE-3 edge cases: infeasible shapes produce an
empty-but-explained plan list, P-budget mode returns the best P within
the budget, and plan caching returns identical rankings without
re-running the symbolic sweep.  Plus: ranking correctness against a
brute-force measurement, pruning bookkeeping, and plan_and_run's
numeric execution of the winner.
"""

from __future__ import annotations

import pytest

from repro.machine import CostParams, MACHINE_PROFILES, ParameterError
from repro.planner import (
    Candidate,
    PlannerConfig,
    clear_caches,
    enumerate_candidates,
    measure,
    plan,
    plan_and_run,
    predict,
    prune,
    resolve_profile,
)
from repro.planner.measure import stats as measure_stats
from repro.workloads import QR_ALGORITHMS


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


# ----------------------------------------------------------------------
# Candidate enumeration
# ----------------------------------------------------------------------

class TestEnumeration:
    def test_feasible_space_covers_every_algorithm(self):
        cands, rejected = enumerate_candidates(512, 8, 4)
        assert {c.algorithm for c in cands} == set(QR_ALGORITHMS)
        assert rejected == []

    def test_square_ish_excludes_tall_skinny_with_reason(self):
        # m/n = 4 < P = 16: the 1D block-row distribution cannot exist.
        cands, rejected = enumerate_candidates(256, 64, 16)
        algs = {c.algorithm for c in cands}
        assert "tsqr" not in algs and "caqr1d" not in algs and "house1d" not in algs
        assert {"house2d", "caqr2d", "caqr3d"} <= algs
        reasons = {r.algorithm: r.reason for r in rejected}
        assert "m >= n*P" in reasons["tsqr"]

    def test_wide_matrix_rejects_everything(self):
        cands, rejected = enumerate_candidates(8, 64, 4)
        assert cands == []
        assert {r.algorithm for r in rejected} == set(QR_ALGORITHMS)
        assert all("m >= n" in r.reason for r in rejected)

    def test_caqr1d_ladder_respects_lemma6_floor(self):
        cands, _ = enumerate_candidates(65536, 64, 256)
        bs = [c.kwargs()["b"] for c in cands if c.algorithm == "caqr1d"]
        assert bs, "expected a b ladder"
        assert all(b * b >= 256 for b in bs)  # P = O(b^2)

    def test_caqr1d_ladder_dedupes_by_recursion_depth(self):
        import math

        cands, _ = enumerate_candidates(8192, 64, 32)
        bs = [c.kwargs()["b"] for c in cands if c.algorithm == "caqr1d"]
        depths = [math.ceil(math.log2(64 / b)) if b < 64 else 0 for b in bs]
        assert len(depths) == len(set(depths))

    def test_caqr3d_dedupes_identical_knobs(self):
        # Very tall matrix: aspect nP/m <= 1 makes every delta collapse
        # to b = n, so exactly one caqr3d candidate must survive.
        cands, _ = enumerate_candidates(65536, 8, 16)
        caqr3d = [c for c in cands if c.algorithm == "caqr3d"]
        assert len(caqr3d) == 1

    def test_p_larger_than_m_rejected_for_caqr3d(self):
        cands, rejected = enumerate_candidates(64, 8, 128)
        assert all(c.algorithm != "caqr3d" for c in cands)
        assert any(c.algorithm == "caqr3d" or r.algorithm == "caqr3d"
                   for c, r in zip(cands + [None] * len(rejected), rejected))

    def test_candidate_label_and_kwargs(self):
        c = Candidate("caqr3d", 16, (("bstar", 4), ("b", 8)))
        assert c.label == "caqr3d[b=8,bstar=4]"
        assert c.kwargs() == {"b": 8, "bstar": 4}


# ----------------------------------------------------------------------
# Pruning
# ----------------------------------------------------------------------

class TestPruning:
    def test_prune_keeps_best_and_drops_outliers(self):
        cands, _ = enumerate_candidates(8192, 64, 32)
        profile = MACHINE_PROFILES["latency_bound"]
        preds = [predict(c, 8192, 64, profile) for c in cands]
        survivors, rejected = prune(preds, prune_factor=10.0)
        assert survivors, "best candidate must always survive"
        assert survivors == sorted(survivors, key=lambda p: p.time)
        best = survivors[0].time
        assert all(p.time <= 10.0 * best for p in survivors)
        # house1d's n log P messages are hopeless on a latency-bound
        # machine -- it must be among the pruned.
        assert any(r.algorithm == "house1d" for r in rejected)

    def test_max_measured_caps_survivors(self):
        cands, _ = enumerate_candidates(8192, 64, 32)
        preds = [predict(c, 8192, 64, MACHINE_PROFILES["cluster"]) for c in cands]
        survivors, rejected = prune(preds, prune_factor=1e9, max_measured=3)
        assert len(survivors) == 3
        assert any("max_measured" in r.reason for r in rejected)


# ----------------------------------------------------------------------
# plan(): ranking, infeasibility, P-budget, caching
# ----------------------------------------------------------------------

class TestPlan:
    def test_ranking_matches_brute_force_measurement(self):
        profile = MACHINE_PROFILES["cluster"]
        res = plan(512, 16, 8, profile=profile)
        assert res.plans and all(p.measured is not None for p in res.plans)
        # Brute force: measure every candidate directly and compare times.
        cands, _ = enumerate_candidates(512, 16, 8)
        best_time = min(profile.time(**measure(c, 512, 16)) for c in cands)
        assert res.best().measured_time == pytest.approx(best_time, rel=1e-12)
        times = [p.measured_time for p in res.plans]
        assert times == sorted(times)

    def test_predicted_and_measured_triples_present(self):
        res = plan(256, 16, 4, profile="cluster")
        for p in res.plans:
            assert set(p.predicted) == {"flops", "words", "messages"}
            assert set(p.measured) == {"flops", "words", "messages"}
            assert p.predicted_time > 0 and p.measured_time > 0

    def test_infeasible_shape_empty_but_explained(self):
        res = plan(8, 64, 4, profile="cluster")
        assert res.plans == []
        assert res.best() is None
        assert res.rejected
        text = res.explain()
        assert "no feasible candidate" in text
        assert "repro.qr.wide" in text

    def test_impossible_p_explained(self):
        res = plan(64, 8, 0, profile="cluster")
        assert res.plans == []
        assert "P must be >= 1" in res.explain()

    def test_p_budget_returns_best_p_within_budget(self):
        profile = MACHINE_PROFILES["supercomputer"]
        budget = 12
        res = plan(4096, 16, P_budget=budget, profile=profile)
        best = res.best()
        assert best.candidate.P <= budget
        # Brute force over every P in the planner's grid.
        brute = min(
            profile.time(**measure(c, 4096, 16))
            for P in (1, 2, 4, 8, 12)
            for c in enumerate_candidates(4096, 16, P)[0]
        )
        assert best.measured_time == pytest.approx(brute, rel=1e-12)

    def test_p_budget_prefers_single_processor_on_latency_machine(self):
        # 0.5 ms per message dwarfs the flops of a tiny problem: any
        # communication loses, so the planner must pick P = 1.
        res = plan(256, 8, P_budget=8, profile="cloud")
        assert res.best().candidate.P == 1

    def test_plan_cache_returns_identical_ranking_without_rerun(self):
        first = plan(512, 16, 8, profile="cluster")
        runs_after_first = measure_stats.runs
        second = plan(512, 16, 8, profile="cluster")
        assert second is first  # served from the plan cache
        assert measure_stats.runs == runs_after_first  # no new symbolic runs
        labels = [p.candidate.label for p in second.plans]
        assert labels == [p.candidate.label for p in first.plans]

    def test_measurement_cache_shared_across_profiles(self):
        plan(512, 16, 8, profile="cluster")
        runs_after_first = measure_stats.runs
        res2 = plan(512, 16, 8, profile="latency_bound")
        # A different profile re-ranks but must not re-measure shared
        # candidates (the cost triple is profile-independent).
        assert measure_stats.runs == runs_after_first
        assert res2.plans

    def test_measure_budget_still_measures_predicted_best(self):
        res = plan(512, 16, 8, profile="cluster", measure_budget=1e-9)
        assert res.plans
        measured = [p for p in res.plans if p.measured is not None]
        assert len(measured) >= 1
        assert res.stats["budget_skipped"] >= 1
        # Predicted-only plans rank strictly after every measured plan.
        notes = [p.measured is None for p in res.plans]
        assert notes == sorted(notes)

    def test_plan_requires_exactly_one_of_p_and_budget(self):
        with pytest.raises(ParameterError):
            plan(64, 8)
        with pytest.raises(ParameterError):
            plan(64, 8, 4, P_budget=8)

    def test_resolve_profile_accepts_names_and_triples(self):
        assert resolve_profile("cluster") is MACHINE_PROFILES["cluster"]
        custom = resolve_profile("1e-5,4e-9,1e-10")
        assert isinstance(custom, CostParams) and custom.beta == 4e-9
        with pytest.raises(ParameterError):
            resolve_profile("not-a-profile")
        with pytest.raises(ParameterError):
            resolve_profile("one,two,three")  # 3 parts but not numbers

    def test_table_top_zero_prints_no_rows(self):
        res = plan(512, 16, 8, profile="cluster")
        assert len(res.table(top=0).splitlines()) == 1  # title only, no rows

    def test_stats_measure_counts_are_per_call(self):
        plan(512, 16, 8, profile="cluster")
        res2 = plan(256, 16, 8, profile="cluster")
        # Per-call counters, not the cumulative process-global ones.
        assert res2.stats["measure"]["runs"] == res2.stats["measured"]

    def test_custom_config_restricts_algorithms(self):
        config = PlannerConfig(algorithms=("tsqr", "caqr1d"))
        res = plan(512, 8, 4, profile="cluster", config=config)
        assert {p.candidate.algorithm for p in res.plans} <= {"tsqr", "caqr1d"}


# ----------------------------------------------------------------------
# plan_and_run
# ----------------------------------------------------------------------

class TestPlanAndRun:
    def test_executes_winner_numerically_with_validation(self):
        result, run = plan_and_run(m=128, n=8, P=4, profile="cluster")
        best = result.best()
        assert run.algorithm == best.candidate.algorithm
        assert run.P == best.candidate.P
        assert run.diagnostics.residual < 1e-12

    def test_accepts_concrete_matrix(self):
        from repro.workloads import gaussian

        A = gaussian(96, 8, seed=3)
        result, run = plan_and_run(A, P=4, profile="cluster")
        assert (run.m, run.n) == (96, 8)
        assert run.diagnostics.residual < 1e-12

    def test_infeasible_raises_with_explanation(self):
        with pytest.raises(ParameterError, match="no feasible plan"):
            plan_and_run(m=8, n=64, P=4)

    def test_shape_or_matrix_required(self):
        with pytest.raises(ParameterError, match="either A or both m and n"):
            plan_and_run(P=4)

    def test_scalar_first_argument_rejected_helpfully(self):
        # plan_and_run(512, 16, 8) misreads the plan(m, n, P) calling
        # convention: the 512 binds to A and must fail with guidance.
        with pytest.raises(ParameterError, match="must be a 2-D matrix"):
            plan_and_run(512, 16, 8)
