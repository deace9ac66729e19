"""Per-layer probes of a trace run: each layer timed from outside.

Every probe calls a public function of one ``repro`` module through the
benchmark's span log and reports under ``<module>.<metric>``.  Nothing
here reaches into the program; the only numbers that come from inside
it are the counters of its existing recorder (``repro.telemetry``).
Each expensive probe runs ``reps`` times (cheap ones more) and reports
the median.
"""

from __future__ import annotations

import pickle
import statistics
import subprocess
import sys

import numpy as np

import host
from harness import ROOT, WORKERS, Bench

def _median(log, name, fn, reps, fresh=None):
    """Median seconds of ``reps`` calls and the last result.

    With ``fresh``, each call is ``fn(fresh())`` and only ``fn`` is timed.
    """
    times, res = [], None
    for _ in range(reps):
        if fresh is None:
            dt, res = log.timed(name, fn)
        else:
            arg = fresh()
            dt, res = log.timed(name, lambda: fn(arg))
        times.append(dt)
    return statistics.median(times), res


def _record(b: Bench, backend: str, workers: int):
    """Record the workload's plan on a fresh engine machine (no execution)."""
    from repro.machine import Machine
    from repro.workloads import drive

    mach = Machine(b.w.P, backend=backend, workers=workers)
    factors, _diag, slicer = drive(b.w.alg, mach, b.pool[0], dict(b.w.params), validate=False)
    return mach, factors, slicer


def _replay(b: Bench, label: str, mach, factors, blocks, reps: int) -> float:
    """Median of rebind + reset + execute + resolve, cycling the input pool."""
    from repro.engine import output_tids, resolve

    log, plan, outs = b.log, mach.plan, output_tids(factors)
    times = []
    for i in range(reps):
        def once():
            log.timed("plan.rebind", lambda: plan.rebind(blocks[i % len(blocks)]))
            log.timed("plan.reset", plan.reset)
            log.timed(f"engine.execute[{label}]", lambda: mach.engine.execute(plan, outputs=outs))
            log.timed("lazy.resolve", lambda: resolve(factors))

        times.append(log.timed(f"engine.replay[{label}]", once)[0])
    return statistics.median(times)


def _counts(report, plan, cplan) -> dict[str, float]:
    s = cplan.stats
    return {
        "machine.critical_flops": report.critical_flops,
        "machine.critical_words": report.critical_words,
        "machine.critical_messages": report.critical_messages,
        "machine.total_words_sent": report.total_words_sent,
        "machine.total_messages_sent": report.total_messages_sent,
        "engine.plan_tasks": len(plan.tasks),
        "engine.steps_after_fusion": s["steps"],
        "engine.rendezvous_remaining": s["rendezvous_edges"],
        "engine.rendezvous_eliminated": s["elided_edges"],
    }


def exact_counts(b: Bench) -> dict[str, float]:
    """Only the exact-count metrics, from one serial run and one recording."""
    from repro.engine import compile_plan

    report = b.call("serial", b.pool[0]).report
    mach, _factors, _slicer = _record(b, "parallel", WORKERS)
    return _counts(report, mach.plan, compile_plan(mach.plan, WORKERS))


def _distribute(b: Bench, machine, X):
    """The workload's input distribution, as ``workloads.sweeps.drive`` picks it."""
    from repro.dist import BlockCyclic2D, BlockRowLayout, CyclicRowLayout, DistMatrix, choose_grid_2d
    from repro.qr.baselines.house2d import HOUSE2D_DEFAULT_BB
    from repro.util import balanced_sizes

    w = b.w
    if w.alg == "house2d":
        pr, pc = choose_grid_2d(w.m, w.n, w.P)
        return BlockCyclic2D.from_global(machine, X, pr, pc, HOUSE2D_DEFAULT_BB)
    layout = CyclicRowLayout(w.m, w.P) if w.alg == "caqr3d" else BlockRowLayout(balanced_sizes(w.m, w.P))
    return DistMatrix.from_global(machine, X, layout)


def probe(b: Bench, fp: dict, reps: int) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` except the pool-hygiene
    counters, which ``run.py`` takes after this process has exited."""
    from repro.backend import SymbolicArray
    from repro.collectives import CommContext, all_to_all_blocks, broadcast, reduce
    from repro.engine import compile_plan, output_tids
    from repro.machine import Machine
    from repro.planner import clear_caches, plan as planner_plan
    from repro.qr.householder import apply_wy, local_geqrt
    from repro.workloads import drive, run_qr

    w, log = b.w, b.log
    X = b.pool[0]
    many = 4 * reps
    out: dict[str, float] = {"host.cores": fp["cores"], "host.blas_threads": fp["blas_threads"]}
    out.update(host.speed_probes(reps))

    # Medians, tails and mean-based rates of the plain jobs of this run:
    # diagnostics next to the gated p10s, and the bases of the ratios below.
    for key in ("serial", "threads", "mp"):
        stats = b.summary(key)
        out[f"engine.{key}_job_ms_p50"] = stats["p50"]
        out[f"engine.{key}_job_ms_p90"] = stats["p90"]
        out[f"engine.{key}_jobs_per_s"] = 1e3 / stats["mean"]
    out["machine.symbolic_job_ms_p50"] = b.p50_ms("symbolic")
    serial_ms, threads_ms, mp_ms = (out[f"engine.{k}_job_ms_p50"] for k in ("serial", "threads", "mp"))
    out["engine.threads_speedup_x"] = serial_ms / threads_ms
    out["mp.speedup_x"] = serial_ms / mp_ms

    # qr: kernels at the per-rank leaf shape, validation at the full one.
    rows, cols = w.leaf
    leaf = np.ascontiguousarray(X[:rows, :cols])
    m1 = Machine(1)
    t, pan = _median(log, "qr.local_geqrt", lambda: local_geqrt(m1, 0, leaf), many)
    out["qr.geqrt_ms"] = t * 1e3
    out["qr.geqrt_gflops"] = (2.0 * rows * cols**2 - 2.0 * cols**3 / 3.0) / t / 1e9
    out["qr.geqrt_roofline_frac"] = out["qr.geqrt_gflops"] / out["host.dgemm_gflops"]
    t, _ = _median(log, "qr.apply_wy", lambda: apply_wy(m1, 0, pan.V, pan.T, leaf), many)
    out["qr.apply_wy_ms"] = t * 1e3
    factors, diag_fn, _ = drive(w.alg, Machine(w.P), X, dict(w.params), validate=True)
    t, _ = _median(log, "qr.qr_diagnostics", lambda: diag_fn(X, factors), reps)
    out["qr.validate_ms"] = t * 1e3

    # machine / collectives / dist: the simulation inside every serial job.
    t, _ = _median(log, "machine.symbolic_run", lambda: run_qr(
        w.alg, (w.m, w.n), w.P, backend="symbolic", **w.params), reps)
    out["machine.sim_ms"] = t * 1e3
    out["qr.kernel_share"] = 1.0 - out["machine.sim_ms"] / serial_ms
    ms, ns, Ps = w.sibling
    block = SymbolicArray((ns, ns), np.float64)

    def world(P):
        return lambda: CommContext.world(Machine(P, backend="symbolic"))

    t, _ = _median(log, "collectives.broadcast", lambda ctx: broadcast(ctx, 0, block), reps, world(Ps))
    out["collectives.bcast_ms"] = t * 1e3
    t, _ = _median(log, "collectives.reduce", lambda ctx: reduce(ctx, 0, [block] * Ps), reps, world(Ps))
    out["collectives.reduce_ms"] = t * 1e3
    # The dense exchange builds Pa^2 blocks; 64 ranks keep it a probe.
    Pa = min(Ps, 64)
    cell = SymbolicArray((max(1, ms // Pa**2), ns), np.float64)
    t, _ = _median(log, "collectives.all_to_all_blocks",
                   lambda ctx: all_to_all_blocks(ctx, [[cell] * Pa for _ in range(Pa)]), reps, world(Pa))
    out["collectives.alltoall_ms"] = t * 1e3
    t, dA = _median(log, "dist.from_global", lambda: _distribute(b, Machine(w.P), X), many)
    out["dist.from_global_ms"] = t * 1e3
    t, _ = _median(log, "dist.to_global", dA.to_global, many)
    out["dist.to_global_ms"] = t * 1e3

    # engine record / compile / first execute (threads engine, workers=2).
    few = (reps + 1) // 2
    t, (mach, factors, slicer) = _median(log, "engine.record", lambda: _record(b, "parallel", WORKERS), few)
    plan = mach.plan
    out["engine.record_ms"] = t * 1e3
    out["engine.record_us_per_task"] = t * 1e6 / len(plan.tasks)
    t, cplan = _median(log, "engine.compile_plan", lambda: compile_plan(plan, WORKERS), few)
    out["engine.compile_ms"] = t * 1e3
    out.update(_counts(b.refs["numeric"], plan, cplan))
    t, _ = log.timed("engine.first_execute", lambda: mach.materialize(factors))
    out["engine.first_execute_ms"] = t * 1e3

    # engine execute: warm replay at one and two workers.
    t, blocks = _median(log, "batch.slice", lambda: slicer(b.pool[1]), many)
    out["batch.slice_ms"] = t * 1e3
    blocks = [blocks] + [slicer(A) for A in b.pool[2:]]
    w2 = _replay(b, "w2", mach, factors, blocks, reps)
    mach1, factors1, _ = _record(b, "parallel", 1)
    mach1.materialize(factors1)
    w1 = _replay(b, "w1", mach1, factors1, blocks, reps)
    out["engine.replay_w1_ms"] = w1 * 1e3
    out["engine.replay_w2_ms"] = w2 * 1e3
    out["engine.parallel_eff"] = w1 / (2.0 * w2)
    out["engine.replay_us_per_step_w1"] = w1 * 1e6 / compile_plan(mach1.plan, 1).stats["steps"]
    out["batch.overhead_ms"] = threads_ms - out["engine.replay_w2_ms"]

    # mp: fork + ship, warm replay, ship-back volume, teardown.
    mach_mp, factors_mp, _ = _record(b, "parallel-mp", WORKERS)
    outs = output_tids(factors_mp)
    t, _ = log.timed("mp.first_execute", lambda: mach_mp.engine.execute(mach_mp.plan, outputs=outs))
    out["mp.spawn_ship_ms"] = t * 1e3
    out["mp.replay_ms"] = _replay(b, "mp", mach_mp, factors_mp, blocks, reps) * 1e3
    out["mp.overhead_vs_threads_ms"] = out["mp.replay_ms"] - out["engine.replay_w2_ms"]
    shipped = [np.asarray(mach_mp.plan.tasks[tid].value) for tid in outs]
    out["mp.bytes_in_per_job"] = sum(blk.nbytes for blk in blocks[0])
    out["mp.bytes_out_per_job"] = sum(a.nbytes for a in shipped)
    t, _ = _median(log, "mp.out_pickle", lambda: pickle.loads(
        pickle.dumps(shipped, protocol=pickle.HIGHEST_PROTOCOL)), reps)
    out["mp.out_pickle_ms"] = t * 1e3
    t, _ = log.timed("mp.close", mach_mp.engine.close)
    out["mp.close_ms"] = t * 1e3

    # planner: what `python -m repro plan` pays before it can run anything.
    t, ranked = _median(log, "planner.plan[cold]", lambda _: planner_plan(w.m, w.n, w.P), few, clear_caches)
    out["planner.plan_cold_ms"] = t * 1e3
    out["planner.candidates"] = ranked.stats["candidates"]
    out["planner.measured"] = ranked.stats["measured"]
    t, _ = _median(log, "planner.plan[cached]", lambda: planner_plan(w.m, w.n, w.P), many)
    out["planner.plan_cached_ms"] = t * 1e3

    # telemetry: the program's recorder, on for every threads_rec job.
    rec = b.rec
    counter = rec.metrics.counter
    hits, misses = counter("run_many.plan_cache.hits"), counter("run_many.plan_cache.misses")
    out["batch.plan_cache_hit_ratio"] = hits / (hits + misses)
    # The recorder also saw the plan build in setup: one job's worth of
    # tasks, so per-job means divide by hits + misses, not by hits.
    seen = hits + misses
    out["engine.tasks_per_job"] = counter("engine.tasks") / seen
    out["engine.task_busy_ms_per_job"] = rec.metrics.histogram("engine.task_s").total * 1e3 / seen
    out["engine.rendezvous_waits_per_job"] = counter("engine.rendezvous.waits") / seen
    waited = rec.metrics.histogram("engine.rendezvous_wait_s")
    out["engine.rendezvous_wait_ms_per_job"] = (waited.total if waited else 0.0) * 1e3 / seen
    out["telemetry.spans_per_job"] = len(rec.spans) / seen
    out["telemetry.overhead_frac"] = b.p50_ms("threads_rec") / threads_ms - 1.0

    def import_repro():
        subprocess.run([sys.executable, "-c", "import repro"], env=b.env, cwd=ROOT, check=True)

    t, _ = _median(log, "cli.import", import_repro, few + 1)
    out["cli.import_s"] = t
    return out
