"""One job path: ``run_qr`` on an engine backend is a ``run_many`` job.

Contracts pinned here:

* a repeated ``run_qr`` of one shape on an engine backend replays the
  plan its first run cached -- same factors bit for bit, the numeric
  backend's ``CostReport`` and diagnostics;
* a fault run builds and executes but never enters the cache, so an
  identical second fault run fires its trigger again;
* the plan cache is an LRU under ``PLAN_CACHE_BYTES``: a stream of many
  shapes stays within the budget plus the newest entry, the least
  recently used entry goes first, and an evicted ``parallel-mp`` entry
  leaves no worker process and no shared-memory segment behind;
* every job is coerced by its backend once, so ``run_many`` takes what
  ``run_qr`` takes and rejects what it rejects;
* a job's machine is made, driven and materialized at one site, a
  checksum-coded run's included.

The cache is process-global state, so CI also runs this file alone.
"""

import multiprocessing
import os
import pathlib
import re

import numpy as np
import pytest

from repro.engine import Engine, Plan, QRJob, Ref, resolve, run_many
from repro.engine import batch
from repro.engine.batch import _PLAN_CACHE, _entry_lock, _value_bytes
from repro.faults import FaultPlan, RetryTask
from repro.machine import CostParams, ParameterError
from repro.telemetry import TelemetryRecorder, recording
from repro.workloads import gaussian, run_qr

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _factors():
    (cached,) = _PLAN_CACHE.values()
    return [np.array(f) for f in resolve(cached.lazy_factors)]


class TestRunQrIsAJob:
    def test_a_repeated_run_replays_the_cached_plan(self):
        A = gaussian(256, 8, seed=3)
        rec = TelemetryRecorder()
        with recording(rec):
            first = run_qr("tsqr", A, P=4, backend="parallel", workers=2)
            built = _factors()
            second = run_qr("tsqr", A, P=4, backend="parallel", workers=2)
        counter = rec.metrics.counter
        assert counter("run_many.plan_cache.misses") == 1
        assert counter("run_many.plan_cache.hits") == 1
        spans = [s for s in rec.spans if s.name.startswith("job:")]
        assert [s.meta["plan_cache"] for s in spans] == ["miss", "hit"]
        for got, want in zip(_factors(), built):
            np.testing.assert_array_equal(got, want)
        num = run_qr("tsqr", A, P=4)
        for res in (first, second):
            assert res.report == num.report
            assert res.diagnostics == num.diagnostics
            assert res.words_by_label == num.words_by_label

    def test_a_fault_run_bypasses_the_cache_and_fires_again(self):
        A = gaussian(256, 8, seed=4)
        run_qr("tsqr", A, P=4, backend="parallel", workers=2)
        keys = _PLAN_CACHE.keys()
        rec = TelemetryRecorder()
        fired = []
        for _ in range(2):
            plan = FaultPlan.kill(1, 2)
            with recording(rec):
                res = run_qr("tsqr", A, P=4, backend="parallel", workers=2,
                             fault_plan=plan, recovery=RetryTask(1))
            assert res.diagnostics.ok()
            fired.append(len(plan.fired))
            assert _PLAN_CACHE.keys() == keys
        assert fired == [1, 1]
        spans = [s for s in rec.spans if s.name.startswith("job:")]
        assert [s.meta["plan_cache"] for s in spans] == ["bypass", "bypass"]
        assert not rec.metrics.counter("run_many.plan_cache.hits")
        assert not rec.metrics.counter("run_many.plan_cache.misses")


def _stream(shapes, backend="parallel"):
    for m in shapes:
        run_many([QRJob("tsqr", gaussian(m, 4, seed=m))], P=4, workers=1,
                 backend=backend)


def _rows():
    return [key[1] for key in _PLAN_CACHE.keys()]


def _jobs(names):
    """One 64x4 tsqr job per name: same shape and bytes, keyed apart by
    their cost parameters."""
    for name in names:
        run_many([QRJob("tsqr", gaussian(64, 4, seed=0))], P=4, workers=1,
                 cost_params=CostParams(alpha=float(ord(name)), name=name))


def _names():
    return [key[7].name for key in _PLAN_CACHE.keys()]


class TestByteBudget:
    def test_a_fifty_shape_stream_stays_within_the_budget_plus_one_entry(
        self, monkeypatch
    ):
        shapes = range(64, 64 + 8 * 50, 8)
        _stream([shapes[-1]])
        monkeypatch.setattr(batch, "PLAN_CACHE_BYTES", 3 * _PLAN_CACHE.nbytes())
        batch.clear_plan_cache()
        for m in shapes:
            _stream([m])
            newest = _PLAN_CACHE.values()[-1]
            assert _PLAN_CACHE.nbytes() <= batch.PLAN_CACHE_BYTES + _value_bytes(
                newest.machine.plan)
        assert 3 <= len(_PLAN_CACHE) < 50
        assert _rows()[-1] == shapes[-1]

    def test_the_least_recently_used_entry_goes_first(self, monkeypatch):
        _jobs("ab")
        monkeypatch.setattr(batch, "PLAN_CACHE_BYTES", _PLAN_CACHE.nbytes())
        _jobs("c")
        assert _names() == ["b", "c"]

    def test_a_hit_refreshes_recency(self, monkeypatch):
        _jobs("ab")
        monkeypatch.setattr(batch, "PLAN_CACHE_BYTES", _PLAN_CACHE.nbytes())
        _jobs("a")                         # a hit: "a" is now the newest
        assert _names() == ["b", "a"]
        _jobs("c")
        assert _names() == ["a", "c"]

    def test_the_newest_entry_is_kept_alone_over_the_budget(self, monkeypatch):
        monkeypatch.setattr(batch, "PLAN_CACHE_BYTES", 1)
        _stream([64, 72])
        assert _rows() == [72]
        assert _PLAN_CACHE.nbytes() > batch.PLAN_CACHE_BYTES

    def test_an_evicted_entry_in_use_is_closed_when_its_job_is_done(self, monkeypatch):
        import threading
        import time

        monkeypatch.setattr(batch, "PLAN_CACHE_BYTES", 1)
        _stream([64])
        (key,) = _PLAN_CACHE.keys()
        (first,) = _PLAN_CACHE.values()
        closed = []
        monkeypatch.setattr(first.machine.engine, "close", lambda: closed.append(key))
        with _entry_lock(key):             # a job is replaying it
            th = threading.Thread(target=_stream, args=([72],))
            th.start()
            deadline = time.perf_counter() + 30
            while _rows() != [72] and time.perf_counter() < deadline:
                time.sleep(0.01)
            assert _rows() == [72]         # evicted at once...
            assert th.is_alive() and closed == []   # ...closed after the job
        th.join(timeout=30)
        assert not th.is_alive() and closed == [key]

    def test_concurrent_streams_under_a_tiny_budget_match_serial(self, monkeypatch):
        # Four threads stream three shared shapes through a cache that
        # holds about two entries: hits, builds and evictions of one
        # another's entries interleave.  An eviction that closed or
        # dropped an entry mid-replay, or a lost update of the LRU,
        # shows as an error, a wrong factor or a miscounted total.
        import sys
        import threading

        _stream([64])
        monkeypatch.setattr(batch, "PLAN_CACHE_BYTES", 2 * _PLAN_CACHE.nbytes())
        batch.clear_plan_cache()
        shapes = (64, 72, 80)
        jobs = [[QRJob("tsqr", gaussian(shapes[(t + j) % 3], 4, seed=10 * t + j))
                 for j in range(9)] for t in range(4)]
        start = threading.Barrier(len(jobs))
        got: dict[int, list] = {}
        errors: list[Exception] = []

        def caller(t):
            start.wait()
            try:
                got[t] = [run_many([job], P=4, workers=1, validate=True)[0]
                          for job in jobs[t]]
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=caller, args=(t,)) for t in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        for t, stream in enumerate(jobs):
            for job, res in zip(stream, got[t]):
                assert res.diagnostics == run_qr("tsqr", job.A, P=4).diagnostics
        held = _PLAN_CACHE.values()
        assert _PLAN_CACHE.nbytes() == sum(_value_bytes(b.machine.plan) for b in held)
        assert _PLAN_CACHE.nbytes() <= batch.PLAN_CACHE_BYTES + max(
            _value_bytes(b.machine.plan) for b in held)

    def test_a_buffer_is_counted_once(self):
        # An updates= task returns the buffer it wrote, and a view keeps
        # its base alive: three task values, one buffer.
        plan = Plan()
        buf = np.zeros(1000)
        a = plan.add(lambda: buf, rank=0, label="a")
        b = plan.add(lambda v: v, (Ref(a),), rank=0, label="b")
        plan.add(lambda v: (v[:10], v[10:]), (Ref(b),), rank=0, label="c")
        Engine(workers=1).execute(plan)
        assert _value_bytes(plan) == buf.nbytes

    def test_an_entry_is_counted_at_insert_and_never_on_a_hit(self, monkeypatch):
        counted = []
        monkeypatch.setattr(batch, "_value_bytes",
                            lambda plan: counted.append(plan) or _value_bytes(plan))
        _jobs("aaa")
        (cached,) = _PLAN_CACHE.values()
        assert counted == [cached.machine.plan]
        assert _PLAN_CACHE.nbytes() == _value_bytes(cached.machine.plan) > 0


def _segments():
    return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}


@pytest.mark.mp
class TestEvictedPool:
    def test_an_evicted_pool_leaves_no_child_and_no_segment(self, monkeypatch):
        monkeypatch.setattr(batch, "PLAN_CACHE_BYTES", 1)
        before = _segments()
        _stream([64], backend="parallel-mp")
        (cached,) = _PLAN_CACHE.values()
        engine = cached.machine.engine
        pids = {p.pid for p in engine._pool}
        names = {seg.name.lstrip("/") for seg, _, _ in engine._shm.values()}
        assert engine.alive and pids and names <= _segments()
        _stream([72], backend="parallel-mp")   # evicts the first entry
        assert _rows() == [72]
        assert not engine.alive
        assert not pids & {p.pid for p in multiprocessing.active_children()}
        assert not names & _segments()
        batch.clear_plan_cache()
        assert _segments() <= before


class TestCoercion:
    def test_run_many_takes_a_shape_on_the_symbolic_backend(self):
        (got,) = run_many([QRJob("tsqr", (64, 8))], P=4, backend="symbolic")
        assert got.report == run_qr("tsqr", (64, 8), P=4, backend="symbolic").report

    @pytest.mark.parametrize("backend", ["numeric", "symbolic", "parallel"])
    def test_a_one_dimensional_job_is_a_parameter_error(self, backend):
        x = np.ones(8)
        with pytest.raises(ParameterError, match="2-D"):
            run_qr("tsqr", x, P=2, backend=backend)
        with pytest.raises(ParameterError, match="2-D"):
            run_many([QRJob("tsqr", x)], P=2, backend=backend)
        with pytest.raises(ParameterError, match="2-D"):
            run_many([QRJob("tsqr", (8,))], P=2, backend="symbolic")


class TestOneBuildSite:
    def test_materialize_is_called_at_one_site(self):
        """Acceptance pin: a job's machine is made, driven and
        materialized in ``workloads.sweeps.build`` alone, checksum-coded
        runs included: the fault layer makes no machine of its own."""
        calls = [
            f"{path.relative_to(SRC)}:{n}"
            for path in sorted(SRC.rglob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if ".materialize(" in line and not line.lstrip().startswith(("#", "``", ">>>"))
        ]
        assert len(calls) == 1 and calls[0].startswith("workloads/sweeps.py:"), calls
        text = (SRC / "workloads" / "sweeps.py").read_text()
        body = text[text.index("def build("):text.index("def run_qr(")]
        assert re.search(r"\bMachine\(", body) and re.search(r"\b_?drive\(", body)
        assert ".materialize(" in body
        faults = [path.name for path in sorted((SRC / "faults").glob("*.py"))
                  if re.search(r"\bMachine\(", path.read_text())]
        assert faults == []
