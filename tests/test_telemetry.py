"""Telemetry contracts: recorder, metrics, exporters, drift, plan-cache.

Pinned here:

* **off by default** -- the module-level recorder is the NullRecorder
  and ``recording()`` restores whatever was installed before it;
* **runtime evidence** -- a parallel run under an installed recorder
  produces one task span per engine task, with ranks, worker thread
  names, and rendezvous-wait attribution, plus the machine/kernel and
  engine counters;
* **exporters** -- the Chrome trace is structurally valid (the same
  schema ``tools/check_trace.py`` gates in CI) and the metrics dump
  round-trips through JSON;
* **plan-cache observability** -- ``run_many`` streams report
  hit/miss/bypass through the metrics registry (same-shape streams
  coalesce onto one plan; mixed-shape streams build one plan per
  shape);
* **drift** -- the per-phase join of measured spans against the
  symbolic prediction covers both sides' phases and compares modeled
  critical path against measured wall-clock;
* **capability** -- backends advertise ``telemetry`` ("runtime" vs
  "simulated") so the CLI can say when spans are meaningless.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import threading

import numpy as np
import pytest

from repro.backend import get_backend
from repro.engine import QRJob, clear_plan_cache, run_many
from repro.machine import MACHINE_PROFILES, Machine
from repro.telemetry import (
    DEFAULT_BUCKETS,
    NULL_RECORDER,
    Histogram,
    MetricsRegistry,
    NullRecorder,
    Span,
    TelemetryRecorder,
    chrome_trace,
    current_recorder,
    drift_report,
    format_metrics,
    install_recorder,
    metrics_dump,
    phase_of,
    recording,
    write_chrome_trace,
)
from repro.workloads import gaussian, run_qr

REPO = pathlib.Path(__file__).resolve().parent.parent


def _load_check_trace():
    spec = importlib.util.spec_from_file_location(
        "check_trace", REPO / "tools" / "check_trace.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# ----------------------------------------------------------------------
# MetricsRegistry / Histogram
# ----------------------------------------------------------------------

class TestMetricsRegistry:
    def test_counters_accumulate(self):
        m = MetricsRegistry()
        assert m.counter("x") == 0.0
        m.inc("x")
        m.inc("x", 2.5)
        assert m.counter("x") == 3.5

    def test_gauges_last_write_wins(self):
        m = MetricsRegistry()
        m.gauge("g", 1.0)
        m.gauge("g", 7.0)
        assert m.snapshot()["gauges"]["g"] == 7.0

    def test_histogram_buckets_and_stats(self):
        m = MetricsRegistry()
        for v in (5e-7, 5e-4, 2.0, 100.0):
            m.observe("h", v)
        h = m.histogram("h")
        assert h.count == 4
        assert h.max == 100.0
        assert h.mean == pytest.approx((5e-7 + 5e-4 + 2.0 + 100.0) / 4)
        snap = h.snapshot()
        assert snap["buckets"]["le_1e-06"] == 1  # 5e-7
        assert snap["buckets"]["inf"] == 1  # 100.0 beyond the last bound
        assert sum(snap["buckets"].values()) == 4

    def test_histogram_bounds_are_the_default_decades(self):
        assert Histogram().bounds == DEFAULT_BUCKETS

    def test_concurrent_increments_are_not_lost(self):
        m = MetricsRegistry()

        def worker():
            for _ in range(1000):
                m.inc("n")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert m.counter("n") == 4000.0


# ----------------------------------------------------------------------
# Recorder lifecycle
# ----------------------------------------------------------------------

class TestRecorderLifecycle:
    def test_default_is_the_null_recorder(self):
        assert current_recorder() is NULL_RECORDER
        assert not NULL_RECORDER.enabled
        assert NULL_RECORDER.spans == ()

    def test_recording_installs_and_restores(self):
        rec = TelemetryRecorder()
        with recording(rec) as active:
            assert active is rec
            assert current_recorder() is rec
        assert current_recorder() is NULL_RECORDER

    def test_recording_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with recording():
                raise RuntimeError("boom")
        assert current_recorder() is NULL_RECORDER

    def test_install_returns_previous(self):
        rec = TelemetryRecorder()
        prev = install_recorder(rec)
        try:
            assert prev is NULL_RECORDER
            assert current_recorder() is rec
        finally:
            install_recorder(prev)

    def test_span_cap_drops_and_counts(self):
        rec = TelemetryRecorder(max_spans=2)
        for i in range(5):
            rec.span(f"s{i}", "task", 0.0, 1e-3)
        assert len(rec.spans) == 2
        assert rec.dropped_spans == 3
        assert "dropped=3" in repr(rec)

    def test_null_recorder_methods_are_noops(self):
        n = NullRecorder()
        n.span("x", "task", 0.0, 1.0)
        n.task_span("x", 0, 0, 0.0, 1.0, 0.0)
        n.rendezvous_wait("x", 0, 1.0)
        n.kernel_dispatch("x", 0, 1.0, "numeric")
        n.job_span("x", 0.0, 1.0)
        assert n.now() == 0.0
        assert n.spans == ()


# ----------------------------------------------------------------------
# Engine / machine instrumentation
# ----------------------------------------------------------------------

class TestRuntimeSpans:
    @pytest.fixture(scope="class")
    def traced_run(self):
        A = gaussian(256, 16, seed=3)
        rec = TelemetryRecorder()
        with recording(rec):
            r = run_qr("tsqr", A, P=4, backend="parallel", workers=2)
        return rec, r

    def test_task_spans_cover_every_engine_task(self, traced_run):
        rec, _ = traced_run
        tasks = [s for s in rec.spans if s.cat == "task"]
        assert len(tasks) == rec.metrics.counter("engine.tasks") > 0
        assert rec.metrics.histogram("engine.task_s").count == len(tasks)

    def test_spans_carry_ranks_and_workers(self, traced_run):
        rec, _ = traced_run
        tasks = [s for s in rec.spans if s.cat == "task"]
        # Driver-side tasks (result materialization) carry rank None.
        assert {s.rank for s in tasks} - {None} == {0, 1, 2, 3}
        assert all(s.worker for s in tasks)
        assert all(s.dur >= 0.0 and s.t0 >= 0.0 for s in tasks)

    @pytest.fixture(scope="class")
    def two_lane_run(self):
        # 3.2e6 metered flops per task: a grain that runs its first
        # execute on every worker, so cross-lane fetches really wait.
        rec = TelemetryRecorder()
        with recording(rec):
            run_qr("tsqr", gaussian(4096, 64, seed=3), P=4, backend="parallel",
                   workers=2, validate=False)
        return rec

    def test_rendezvous_waits_are_attributed(self, two_lane_run):
        rec = two_lane_run
        assert rec.metrics.snapshot()["gauges"]["engine.lanes"] == 2.0
        waits = rec.metrics.counter("engine.rendezvous.waits")
        assert waits > 0
        # Each wait shows up in the histogram and on some task span.
        hist = rec.metrics.histogram("engine.rendezvous_wait_s")
        assert hist is not None and hist.count == waits
        assert any(s.wait_s > 0.0 for s in rec.spans if s.cat == "task")

    def test_messages_are_edges_so_their_waits_belong_to_consumers(self):
        # A transfer records no task, so no span carries a collective's
        # label; what a message costs at run time is the consumers' wait.
        rec = TelemetryRecorder()
        with recording(rec):
            run_qr("house2d", gaussian(96, 24, seed=3), P=4, backend="parallel",
                   workers=2, validate=False)
        tasks = [s for s in rec.spans if s.cat == "task"]
        assert tasks and not {s.name for s in tasks} & {"bcast_binomial", "reduce_binomial"}
        hist = rec.metrics.histogram("engine.rendezvous_wait_s")
        waited = hist.total if hist is not None else 0.0
        assert sum(s.wait_s for s in tasks) == pytest.approx(waited)

    @pytest.mark.parametrize(
        "backend", ["parallel", pytest.param("parallel-mp", marks=pytest.mark.mp)]
    )
    def test_one_task_blocked_on_two_producers_counts_two_waits(self, backend):
        # The counter and the histogram are both per *fetch*: a task on
        # lane 0 that blocks on two delayed lane-1 producers in turn is
        # two waits and two samples (a per-span observation reads one).
        import time

        from repro.engine import Engine, Plan, Ref
        from repro.engine.mp import MpEngine

        def slow(v):
            time.sleep(0.05)
            return v

        plan = Plan()
        a = plan.add(slow, (1.0,), rank=1, label="a")
        b = plan.add(slow, (2.0,), rank=1, label="b")
        c = plan.add(lambda x, y: x + y, (Ref(a), Ref(b)), rank=0, label="c")
        rec = TelemetryRecorder()
        eng = (Engine if backend == "parallel" else MpEngine)(workers=2, telemetry=rec)
        try:
            eng.execute(plan, timeout=60.0, outputs=[c.tid])
        finally:
            if backend == "parallel-mp":
                eng.close()
        assert c.value == 3.0
        hist = rec.metrics.histogram("engine.rendezvous_wait_s")
        assert hist.count == rec.metrics.counter("engine.rendezvous.waits") == 2
        assert hist.total == pytest.approx(
            rec.metrics.counter("engine.rendezvous.wait_s.rank0"))
        (span,) = [s for s in rec.spans if s.cat == "task" and s.name == "c"]
        assert span.wait_s == pytest.approx(hist.total)

    def test_disabled_recorder_is_one_guard_per_site(self):
        # The disabled cost is structural, not a timing: a recorder with
        # ``enabled = False`` whose every method raises completes a
        # two-lane run with cross-lane fetches and a one-lane replay,
        # so no instrumentation site calls past the guard.
        from repro.engine import Engine, Plan, Ref

        class Tripwire:
            enabled = False

            def __getattr__(self, name):
                raise AssertionError(f"disabled recorder touched: {name}")

        plan = Plan()
        leaf = plan.add_input(np.array([1.0, 2.0]))
        a = plan.add(lambda v: v * 2, (Ref(leaf),), rank=0, label="a")
        b = plan.add(lambda v: v + 1, (Ref(leaf),), rank=1, label="b")
        out = plan.add(lambda x, y: x + y, (Ref(a), Ref(b)), rank=0, label="sum")
        eng = Engine(workers=2, telemetry=Tripwire())
        eng.execute(plan, timeout=60.0)
        assert eng.lanes == 2 and out.value.tolist() == [4.0, 7.0]
        eng.lanes = 1
        plan.reset()
        eng._execute_compiled([t for t in plan.tasks if not t.done], 60.0)
        assert out.value.tolist() == [4.0, 7.0]
        machine = Machine(2, backend="parallel", workers=2, telemetry=Tripwire())
        x = machine.ops.zeros((2,))
        x[0] = 3.0
        assert machine.materialize(x).tolist() == [3.0, 0.0]

    def test_kernel_dispatch_metrics(self):
        # The 2D baselines dispatch data-dependent kernels through
        # machine.kernel() (TSQR's array work goes through the ops
        # table); the dispatch counter and per-backend timing histogram
        # must cover them.
        A = gaussian(64, 32, seed=9)
        rec = TelemetryRecorder()
        with recording(rec):
            run_qr("house2d", A, P=4, backend="parallel", workers=2)
        assert rec.metrics.counter("machine.kernels") > 0
        hist = rec.metrics.histogram("machine.kernel_dispatch_s.parallel")
        assert hist is not None and hist.count > 0

    def test_parallel_result_unchanged_by_telemetry(self, traced_run):
        _, r = traced_run
        baseline = run_qr("tsqr", gaussian(256, 16, seed=3), P=4)
        assert r.report == baseline.report

    def test_machine_accepts_explicit_recorder(self):
        rec = TelemetryRecorder()
        machine = Machine(4, backend="numeric", telemetry=rec)
        assert machine.telemetry is rec
        # Default picks up the installed recorder at construction time.
        with recording() as active:
            assert Machine(4, backend="numeric").telemetry is active
        assert Machine(4, backend="numeric").telemetry is NULL_RECORDER


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------

class TestExporters:
    @pytest.fixture(scope="class")
    def rec(self):
        A = gaussian(192, 8, seed=5)
        rec = TelemetryRecorder()
        with recording(rec):
            run_qr("tsqr", A, P=4, backend="parallel", workers=2)
        return rec

    def test_chrome_trace_is_valid_json_schema(self, rec, tmp_path):
        path = tmp_path / "trace.json"
        trace = write_chrome_trace(rec, str(path))
        check = _load_check_trace()
        assert check.check(str(path)) == []
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"] == trace["traceEvents"]
        assert loaded["displayTimeUnit"] == "ms"

    def test_trace_has_worker_and_rank_tracks(self, rec):
        trace = chrome_trace(rec)
        pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert pids == {1, 2}  # workers + simulated ranks
        names = [e for e in trace["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"]
        labels = {e["args"]["name"] for e in names}
        assert any(lbl.startswith("rank ") for lbl in labels)

    def test_task_events_are_duplicated_per_rank_track(self, rec):
        # Every rank-attributed task appears on both the worker track
        # (pid 1) and its simulated-rank track (pid 2); driver-side
        # tasks (rank None) appear on the worker track only.
        trace = chrome_trace(rec)
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X" and e["cat"] == "task"]
        ranked = [e for e in xs if "rank" in e["args"]]
        on_workers = sum(1 for e in ranked if e["pid"] == 1)
        on_ranks = sum(1 for e in ranked if e["pid"] == 2)
        assert on_workers == on_ranks > 0

    def test_task_spans_export_one_event_per_task_and_pass_schema(self, rec, tmp_path):
        # One span per task: every task event on the worker track
        # carries its own tid (no step groups several), under the
        # task's recorded label, and tools/check_trace.py accepts it.
        trace = chrome_trace(rec)
        tasks = [e for e in trace["traceEvents"]
                 if e["ph"] == "X" and e["cat"] == "task" and e["pid"] == 1]
        tids = [e["args"]["tid"] for e in tasks]
        assert tasks and len(tids) == len(set(tids))
        assert len(tasks) == rec.metrics.counter("engine.tasks")
        assert all(isinstance(t, int) for t in tids)
        assert {"geqrt", "apply_wy"} <= {e["name"] for e in tasks}
        path = tmp_path / "trace.json"
        write_chrome_trace(rec, str(path))
        assert _load_check_trace().check(str(path)) == []

    def test_check_trace_rejects_malformed_spans(self, tmp_path):
        check = _load_check_trace()
        base = {"ph": "X", "pid": 1, "tid": 0, "ts": 0, "dur": 1}
        bad = {"traceEvents": [
            {**base, "name": "geqrt", "dur": -1},
            {k: v for k, v in base.items() if k != "tid"} | {"name": "apply_wy"},
        ]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        problems = check.check(str(path))
        assert any("dur must be a nonnegative number" in p for p in problems)
        assert any("missing 'tid'" in p for p in problems)
        path.write_text(json.dumps({"traceEvents": [{**base, "ph": "M", "name": "meta"}]}))
        assert any("no complete" in p for p in check.check(str(path)))

    def test_metrics_dump_round_trips(self, rec):
        dump = metrics_dump(rec)
        assert dump["enabled"] is True
        assert dump["spans"] == len(rec.spans)
        json.dumps(dump)  # JSON-ready
        text = format_metrics(rec)
        assert "engine.tasks" in text

    def test_null_recorder_dumps_disabled(self):
        dump = metrics_dump(NULL_RECORDER)
        assert dump["enabled"] is False
        assert format_metrics(NULL_RECORDER).startswith("telemetry: disabled")


# ----------------------------------------------------------------------
# run_many plan-cache observability (satellite: hit/miss coverage)
# ----------------------------------------------------------------------

class TestPlanCacheMetrics:
    def test_same_shape_stream_coalesces(self):
        clear_plan_cache()
        rng = np.random.default_rng(11)
        jobs = [QRJob("tsqr", rng.standard_normal((96, 4))) for _ in range(3)]
        rec = TelemetryRecorder()
        with recording(rec):
            results = run_many(jobs, P=4)
        assert rec.metrics.counter("run_many.plan_cache.misses") == 1
        assert rec.metrics.counter("run_many.plan_cache.hits") == 2
        jobspans = [s for s in rec.spans if s.cat == "job"]
        assert [s.meta["plan_cache"] for s in jobspans] == ["miss", "hit", "hit"]
        assert rec.metrics.histogram("run_many.job_s").count == 3
        assert results[0].report == results[2].report

    def test_mixed_shape_stream_builds_one_plan_per_shape(self):
        clear_plan_cache()
        rng = np.random.default_rng(12)
        jobs = [
            QRJob("tsqr", rng.standard_normal((96, 4))),
            QRJob("tsqr", rng.standard_normal((128, 4))),
            QRJob("tsqr", rng.standard_normal((96, 4))),
            QRJob("tsqr", rng.standard_normal((128, 4))),
        ]
        rec = TelemetryRecorder()
        with recording(rec):
            run_many(jobs, P=4)
        assert rec.metrics.counter("run_many.plan_cache.misses") == 2
        assert rec.metrics.counter("run_many.plan_cache.hits") == 2

    def test_non_parallel_backend_bypasses_the_cache(self):
        rng = np.random.default_rng(14)
        rec = TelemetryRecorder()
        with recording(rec):
            run_many([QRJob("tsqr", rng.standard_normal((96, 4)))], P=4,
                     backend="numeric")
        assert rec.metrics.counter("run_many.plan_cache.misses") == 0
        jobspans = [s for s in rec.spans if s.cat == "job"]
        assert [s.meta["plan_cache"] for s in jobspans] == ["bypass"]

    def test_replay_reports_to_the_recorder_installed_now(self):
        # A plan cached while *no* recorder was installed must still
        # produce spans when replayed under one (the engine's recorder
        # is re-pointed per replay).
        clear_plan_cache()
        rng = np.random.default_rng(13)
        A = rng.standard_normal((96, 4))
        run_many([QRJob("tsqr", A)], P=4)  # builds plan, telemetry off
        rec = TelemetryRecorder()
        with recording(rec):
            run_many([QRJob("tsqr", rng.standard_normal((96, 4)))], P=4)
        assert rec.metrics.counter("run_many.plan_cache.hits") == 1
        assert rec.metrics.counter("engine.tasks") > 0


# ----------------------------------------------------------------------
# Drift report
# ----------------------------------------------------------------------

class TestDrift:
    def test_phase_of_buckets(self):
        assert phase_of("tsqr_lu") == "tsqr"
        assert phase_of("tsqr:leaf") == "tsqr"
        assert phase_of("alltoall_fwd") == "alltoall"
        assert phase_of("alltoall_pack") == phase_of("alltoall_round3") == "alltoall"
        assert phase_of("all_gather") == "dmm"
        assert phase_of("reduce_scatter_add") == "dmm"
        assert phase_of("T_from_V") == "t"
        assert phase_of("") == "other"

    def test_drift_report_joins_measured_and_predicted(self):
        A = gaussian(512, 32, seed=7)
        rec = TelemetryRecorder()
        import time

        t0 = time.perf_counter()
        with recording(rec):
            r = run_qr("tsqr", A, P=4, backend="parallel", workers=2,
                       validate=False)
        wall = time.perf_counter() - t0
        dr = drift_report("tsqr", 512, 32, 4, rec, wall,
                          params=r.params, profile=MACHINE_PROFILES["cluster"])
        assert dr.phases
        phases = {p.phase: p for p in dr.phases}
        # The dominant compute phase exists on both sides of the join.
        assert phases["tsqr"].flops > 0
        assert phases["tsqr"].measured_s > 0
        assert phases["tsqr"].tasks > 0
        assert phases["tsqr"].ratio > 0
        assert dr.predicted_time_s > 0
        assert dr.measured_wall_s == pytest.approx(wall)
        table = dr.table()
        assert "critical path" in table and "wall-clock" in table

    def test_alltoall_phase_has_a_measured_side(self):
        # The redistributions' runtime work used to record as anonymous
        # getitem / setitem / reshape tasks: 1.8e5 predicted words, 574
        # messages, and not one task or second measured against them.
        A = gaussian(256, 64, seed=7)
        rec = TelemetryRecorder()
        with recording(rec):
            r = run_qr("caqr3d", A, P=8, backend="parallel", workers=2,
                       validate=False, delta=0.5)
        labels = {s.name for s in rec.spans if s.cat == "task"}
        assert {"alltoall_pack", "alltoall_assemble"} <= labels
        dr = drift_report("caqr3d", 256, 64, 8, rec, 1.0, params=r.params)
        alltoall = {p.phase: p for p in dr.phases}["alltoall"]
        assert alltoall.words > 0 and alltoall.messages > 0
        assert alltoall.tasks > 0 and alltoall.measured_s > 0

    def test_unmodeled_phase_has_infinite_ratio(self):
        from repro.telemetry.drift import PhaseDrift

        p = PhaseDrift("zeros", 0, 0, 0, 0.0, 1e-3, 0.0, 2)
        assert p.ratio == float("inf")
        q = PhaseDrift("idle", 0, 0, 0, 0.0, 0.0, 0.0, 0)
        assert q.ratio == 0.0


# ----------------------------------------------------------------------
# Backend capability
# ----------------------------------------------------------------------

class TestBackendCapability:
    def test_capability_strings(self):
        assert get_backend("parallel").telemetry == "runtime"
        assert get_backend("numeric").telemetry == "runtime"
        assert get_backend("symbolic").telemetry == "simulated"

    def test_symbolic_run_records_no_spans(self):
        rec = TelemetryRecorder()
        with recording(rec):
            run_qr("tsqr", (4096, 64), P=8, backend="symbolic")
        assert [s for s in rec.spans if s.cat == "task"] == []

    def test_span_dataclass_defaults(self):
        s = Span("x", "task", 0.0, 1.0)
        assert s.rank is None and s.worker == "" and s.wait_s == 0.0
        assert s.meta == {}
