"""The closed-loop harness: one workload's inputs, timed phases and gate.

One client, one process: each job is issued only after the previous one
returned.  Engine backends run at ``WORKERS = 2`` (the benchmark is
sized for a 2-core host); serial and symbolic jobs use one core.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import host
from spans import SpanLog
from workloads import Workload

ROOT = Path(__file__).resolve().parents[2]

WORKERS = 2
ENGINE_BACKENDS = {"threads": "parallel", "mp": "parallel-mp"}
#: One warm round: jobs per backend, in the order they run.
ROUND = {"serial": 4, "threads": 4, "mp": 4, "symbolic": 2}
POOL = 4


class Bench:
    """State of one workload run: inputs, references, samples, failures."""

    def __init__(self, w: Workload, seed: int, log: SpanLog, rec=None) -> None:
        self.w = w
        self.seed = seed
        self.log = log
        #: The program's own recorder (``repro.telemetry``); set in trace
        #: runs, where it sees the threads plan build and every
        #: ``threads_rec`` job, so its hit/miss counters are complete.
        self.rec = rec
        self.pool: list = []
        self.refs: dict = {}
        self.samples: dict[str, list[float]] = {}
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.issued = 0
        self.env = host.child_env(ROOT)

    # -- the calls under test -------------------------------------------
    def call(self, backend: str, X, recorded: bool = False):
        from repro.engine import QRJob, run_many
        from repro.telemetry import recording
        from repro.workloads import run_qr

        w = self.w
        if backend == "serial":
            return run_qr(w.alg, X, w.P, validate=False, **w.params)
        if backend == "symbolic":
            ms, ns, Ps = w.sibling
            return run_qr(w.alg, (ms, ns), Ps, backend="symbolic", **w.params)
        job = [QRJob(w.alg, X, params=dict(w.params))]
        name = ENGINE_BACKENDS[backend]
        if recorded:
            with recording(self.rec):
                return run_many(job, w.P, workers=WORKERS, backend=name)[0]
        return run_many(job, w.P, workers=WORKERS, backend=name)[0]

    def make_inputs(self) -> None:
        """The input pool: the only thing the seed decides."""
        import numpy as np

        rng = np.random.default_rng(self.seed)
        self.pool = [rng.standard_normal((self.w.m, self.w.n)) for _ in range(POOL)]

    def setup(self) -> None:
        """Inputs, reference reports, plan builds, pool fork, first replays."""
        self.make_inputs()
        self.refs["numeric"] = self.call("serial", self.pool[0]).report
        self.refs["symbolic"] = self.call("symbolic", None).report
        for backend in ENGINE_BACKENDS:
            recorded = self.rec is not None and backend == "threads"
            self.call(backend, self.pool[0], recorded)   # plan build (+ fork)
            self.call(backend, self.pool[1])             # first replay

    def job(self, backend: str, kind: str = "") -> None:
        """One closed-loop request: time it, then check its cost report."""
        X = self.pool[self.issued % POOL]
        self.issued += 1
        key = backend + kind
        self.attempted[backend] += 1
        try:
            dt, res = self.log.timed(
                f"job:{key}",
                lambda: self.call(backend, X, recorded=kind == "_rec"),
                job=self.issued,
            )
        except Exception:  # the loop must go on; the failure is counted
            traceback.print_exc()
            self.failed[backend] += 1
            return
        self.samples.setdefault(key, []).append(dt)
        ref = self.refs["symbolic" if backend == "symbolic" else "numeric"]
        if res.report != ref:
            print(f"job {self.issued} ({key}): CostReport differs from the reference",
                  file=sys.stderr)
            self.failed[backend] += 1

    # -- timed phases ---------------------------------------------------
    def cycle(self, seconds: float, units: tuple[str, ...], at_least: int) -> None:
        """Run the named units in turn, over and over, for ``seconds``.

        Warm rounds, cold starts and CLI launches alternate, so every
        metric samples the whole window: on a shared host, speed drifts
        over tens of seconds, and a metric measured in one short slice
        of the run inherits that slice's luck.  After ``at_least`` full
        passes a unit is skipped once its last duration no longer fits;
        the loop ends with the first pass in which nothing fits.
        """
        deadline = time.perf_counter() + seconds
        last = dict.fromkeys(units, 0.0)
        passes, ran = 0, True
        while ran:
            ran = False
            for unit in units:
                t0 = time.perf_counter()
                if passes >= at_least and t0 + last[unit] > deadline:
                    continue
                getattr(self, unit)()
                last[unit] = time.perf_counter() - t0
                ran = True
            passes += 1

    def warm_round(self, recorded: bool = False) -> None:
        """Every backend in turn, so host drift hits each one equally."""
        for backend, jobs in ROUND.items():
            for _ in range(jobs):
                self.job(backend)
                if recorded and backend == "threads":
                    self.job(backend, "_rec")

    def rec_round(self) -> None:
        """A warm round in which each threads job is followed by one more
        under the program's recorder (trace runs)."""
        self.warm_round(recorded=True)

    def cold_unit(self) -> None:
        """One cold start per engine backend, then an untimed re-warm.

        A cold start is ``clear_plan_cache()`` -- which drops every
        cached plan and, with it, the process pool -- followed by one
        job: record + compile + [fork + ship] + execute.  The cache is
        cleared before *each* job: a threads build next to a live mp
        plan measured ~25% slower on ``grid2d-percolumn`` than one from
        an empty cache.  Afterwards the wiped threads plan is rebuilt
        and both backends replay once, so the next warm round hits the
        plan cache again.
        """
        from repro.engine.batch import clear_plan_cache

        for backend in ENGINE_BACKENDS:
            clear_plan_cache()
            gc.collect()
            self.job(backend, "_cold")
        self.call("threads", self.pool[0])
        for backend in ENGINE_BACKENDS:
            self.call(backend, self.pool[1])

    def cli(self, kind: str) -> None:
        """One ``python -m repro`` launch, interpreter start included."""
        w = self.w
        if kind == "run":
            sub = ["run", "--alg", w.alg, *w.cli_args(), *w.knob_args()]
        else:
            sub = ["plan", *w.cli_args(), "--run"]
        argv = [sys.executable, "-m", "repro", *sub, "--seed", str(self.seed)]
        self.attempted["cli"] += 1
        try:
            dt, proc = self.log.timed(f"cli:{kind}", lambda: subprocess.run(
                argv, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=120))
        except subprocess.TimeoutExpired:
            traceback.print_exc()
            self.failed["cli"] += 1
            return
        if proc.returncode != 0:
            print(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
            self.failed["cli"] += 1
            return
        self.samples.setdefault(f"cli_{kind}", []).append(dt)

    def cli_pair(self) -> None:
        self.cli("run")
        self.cli("plan")

    # -- correctness gate -----------------------------------------------
    def verify(self) -> set[str]:
        """Untimed check of every backend; returns the ones that failed.

        Serial numeric runs of two pool inputs are the reference.  Each
        engine backend factors the same two through ``run_many`` with
        validation on -- the first job takes the build path ``run_qr``
        takes, the second the replay path the timed jobs take -- and
        must match report, word labels and diagnostics bit for bit.
        """
        from repro.engine import QRJob, run_many
        from repro.workloads import run_qr

        w = self.w
        inputs = self.pool[:2]
        refs = [run_qr(w.alg, X, w.P, validate=True, **w.params) for X in inputs]
        bad = set()
        if not all(r.diagnostics.ok(1e-10) for r in refs) or refs[0].report != self.refs["numeric"]:
            bad.add("serial")
        for backend, name in ENGINE_BACKENDS.items():
            try:
                got = run_many([QRJob(w.alg, X, params=dict(w.params)) for X in inputs],
                               w.P, workers=WORKERS, validate=True, backend=name)
            except Exception:  # a backend that raises has failed the gate
                traceback.print_exc()
                bad.add(backend)
                continue
            for g, r in zip(got, refs):
                if not (g.diagnostics.ok(1e-10) and g.report == r.report
                        and g.words_by_label == r.words_by_label
                        and g.diagnostics == r.diagnostics):
                    bad.add(backend)
        sym = run_qr(w.alg, (w.m, w.n), w.P, backend="symbolic", **w.params)
        if sym.report != refs[0].report:
            bad.add("symbolic")
        for backend in bad:
            print(f"verification failed for backend {backend}", file=sys.stderr)
            self.failed[backend] = self.attempted[backend]
        return bad

    # -- results --------------------------------------------------------
    def summary(self, key: str) -> dict[str, float]:
        """Count and quantiles of one sample list, in ms, for the run log."""
        v = [x * 1e3 for x in self.samples[key]]
        q = statistics.quantiles(v, n=10, method="inclusive") if len(v) > 1 else v * 9
        return {"n": len(v), "min": min(v), "p10": q[0], "p50": q[4], "p90": q[8],
                "mean": statistics.fmean(v)}

    def p10_ms(self, key: str) -> float:
        return self.summary(key)["p10"]

    def p50_ms(self, key: str) -> float:
        return self.summary(key)["p50"]

    def end_to_end(self) -> dict[str, float]:
        """Every gated timing: the 10th percentile of each sample list.

        On a shared host interference only ever adds time, in bursts
        shorter than a job up to spells of minutes.  Between a quiet and
        a noisy spell of the sizing host the p10 of identical code moved
        by ~10% where the median moved by ~30% and the mean by more, so
        the low quantile is what a regression bound can be held to.
        """
        out = {f"{b}_job_ms_p10": self.p10_ms(b) for b in ROUND}
        out.update({f"{b}_cold_ms_p10": self.p10_ms(f"{b}_cold") for b in ENGINE_BACKENDS})
        out["cli_run_s_p10"] = self.p10_ms("cli_run") / 1e3
        out["cli_plan_run_s_p10"] = self.p10_ms("cli_plan") / 1e3
        return out
