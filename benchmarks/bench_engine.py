"""E1/E2 -- serial vs parallel-engine wall-clock across the algorithms.

E1 covers the tall-skinny/3D paths (TSQR, CAQR-3D); E2 covers the 2D
block-cyclic baselines (house2d, caqr2d) that the backend registry
un-gated on the parallel engine.  Both time three execution modes of
the numeric stack at fixed ``(m, n, P)``:

* **serial** -- ``backend="numeric"``: the driver simulates and computes
  inline (the baseline every earlier benchmark used);
* **parallel (cold)** -- ``backend="parallel"``: one run including plan
  construction (which meters identically to serial) plus engine
  execution;
* **parallel (warm)** -- plan *replay* via :func:`repro.engine.run_many`:
  the per-job wall-clock over a stream of same-shape jobs after the
  first, where the engine rebinds the cached plan's input leaves and
  re-executes only the array kernels.

Warm replay is the production shape of the engine (a QR service factors
streams, not singletons) and is where the wall-clock win is guaranteed
even on one core: the Python-side simulation (clocks, ``words_of``,
collective routing, layout arithmetic) is skipped entirely.  On a
multi-core host the cold mode additionally overlaps panel kernels
across ranks (the thunks release the GIL in LAPACK/BLAS).

Asserts that warm parallel beats serial on at least one point and
records everything in ``BENCH_engine.json`` at the repo root.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread *before* numpy loads (standalone runs) so the
# serial/parallel comparison measures scheduling, not BLAS threading.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json
import time

import numpy as np

from repro.engine import QRJob, clear_plan_cache, default_workers, run_many
from repro.workloads import format_run_table, run_qr

from conftest import REPO_ROOT, save_root_bench, save_table

#: E1 (algorithm, m, n, P) points; tall-skinny TSQR and square-ish CAQR-3D.
POINTS = (
    ("tsqr", 8192, 64, 8),
    ("tsqr", 32768, 64, 8),
    ("caqr3d", 512, 128, 8),
    ("caqr3d", 1024, 256, 8),
)
#: E2 points: the 2D block-cyclic baselines on the parallel engine.
#: house2d records one plan task per column step per rank, so its cold
#: build is plan-construction-bound; the warm replay is the fair
#: per-job number (and what a stream actually pays).
POINTS_2D = (
    ("house2d", 512, 128, 8),
    ("caqr2d", 512, 128, 8),
    ("caqr2d", 1024, 256, 8),
)
#: Engine threads: the core-aware default (inline replay on one core,
#: a real pool on multi-core hosts).  An oversubscribed pool on a
#: single core would only measure GIL contention.
WORKERS = default_workers()
#: Jobs in the warm replay stream (per-job time excludes the cold first).
WARM_JOBS = 3
#: Timing repetitions (best-of).
REPS = 3


def _best_of(fn, reps: int = REPS) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _measure_point(alg: str, m: int, n: int, P: int) -> dict:
    rng = np.random.default_rng(17)
    A = rng.standard_normal((m, n))
    # Pre-generate the warm stream so matrix generation is not timed.
    stream = [rng.standard_normal((m, n)) for _ in range(WARM_JOBS)]

    serial_s = _best_of(lambda: run_qr(alg, A, P=P, validate=False))

    clear_plan_cache()
    t0 = time.perf_counter()
    first = run_many([QRJob(alg, A)], P=P, workers=WORKERS)
    cold_s = time.perf_counter() - t0

    warm_total = _best_of(
        lambda: run_many([QRJob(alg, X) for X in stream], P=P, workers=WORKERS),
        reps=REPS,
    )
    warm_s = warm_total / WARM_JOBS

    # The replayed jobs reuse the first job's (shape-determined) report;
    # certify it against the serial run.
    assert first[0].report == run_qr(alg, A, P=P, validate=False).report

    row = {
        "alg": alg,
        "m": m,
        "n": n,
        "P": P,
        "workers": WORKERS,
        "serial_ms": round(serial_s * 1e3, 2),
        "parallel_cold_ms": round(cold_s * 1e3, 2),
        "parallel_warm_ms": round(warm_s * 1e3, 2),
        "speedup_cold": round(serial_s / cold_s, 3),
        "speedup_warm": round(serial_s / warm_s, 3),
        "parallel_lt_serial": bool(warm_s < serial_s),
        "regression": bool(warm_s >= serial_s),
    }
    _flag_regression("parallel", row, warm_s, serial_s)
    return row


def _flag_regression(backend: str, row: dict, got_s: float, serial_s: float) -> None:
    """Honesty check: shout when a parallel backend loses to serial.

    Every benchmarked point carries ``regression: true/false`` in the
    JSON so a reader scanning ``BENCH_engine.json`` sees losses called
    out instead of having to compare millisecond columns; losing rows
    are also logged loudly at run time.
    """
    if got_s < serial_s:
        return
    print(
        f"*** REGRESSION: {backend} warm replay LOSES to serial on "
        f"{row['alg']} {row['m']}x{row['n']} P={row['P']} "
        f"({got_s * 1e3:.2f} ms vs {serial_s * 1e3:.2f} ms serial, "
        f"workers={row['workers']}) ***",
        flush=True,
    )


_COLUMNS = [
    "alg", "m", "n", "P", "serial_ms",
    "parallel_cold_ms", "parallel_warm_ms",
    "speedup_cold", "speedup_warm",
]


def test_engine_speedup():
    rows = [_measure_point(*pt) for pt in POINTS]
    rows_2d = [_measure_point(*pt) for pt in POINTS_2D]

    lines = [
        "E1 / execution engine: serial vs parallel (cold build / warm replay)",
        f"workers={WORKERS}, warm stream of {WARM_JOBS} same-shape jobs, best of {REPS}",
        "",
        format_run_table(rows, columns=_COLUMNS),
        "",
        "E2 / 2D baselines (house2d, caqr2d) on the parallel engine",
        "",
        format_run_table(rows_2d, columns=_COLUMNS),
    ]
    save_table("engine", "\n".join(lines), rows=rows + rows_2d)
    save_root_bench(
        "engine",
        {
            "benchmark": "E1+E2",
            "unit": "milliseconds wall-clock (best of repetitions)",
            "workers": WORKERS,
            "warm_jobs": WARM_JOBS,
            "points": rows,
            "points_2d": rows_2d,
        },
    )

    # Acceptance: parallel wall-clock < serial wall-clock on at least one
    # benchmarked (m, n, P) point.  Warm replay achieves this even on a
    # single core (the simulation driver is skipped on replays).  The E2
    # rows are recorded (the replay contract holds; the wall-clock win is
    # not asserted for the fine-grained 2D task streams).
    assert any(r["parallel_lt_serial"] for r in rows), rows


def _measure_telemetry(alg: str, m: int, n: int, P: int) -> dict:
    """E3: warm-replay per-job time with telemetry disabled vs enabled.

    Also microbenchmarks the *disabled* guard itself (the one
    ``rec.enabled`` attribute read and branch every instrumentation
    site pays when telemetry is off) and bounds its worst-case share of
    a warm replay job, which is the "near-zero overhead when disabled"
    contract :mod:`repro.telemetry` promises.
    """
    from repro.telemetry import TelemetryRecorder, recording
    from repro.telemetry.recorder import NULL_RECORDER

    rng = np.random.default_rng(23)
    A = rng.standard_normal((m, n))
    stream = [rng.standard_normal((m, n)) for _ in range(WARM_JOBS)]

    clear_plan_cache()
    run_many([QRJob(alg, A)], P=P, workers=WORKERS)  # cold build once
    off_s = _best_of(
        lambda: run_many([QRJob(alg, X) for X in stream], P=P, workers=WORKERS)
    ) / WARM_JOBS

    def _enabled() -> None:
        with recording(TelemetryRecorder()):
            run_many([QRJob(alg, X) for X in stream], P=P, workers=WORKERS)

    on_s = _best_of(_enabled) / WARM_JOBS

    # Tasks per job (for the per-task overhead bound below).
    with recording(TelemetryRecorder()) as rec:
        run_many([QRJob(alg, stream[0])], P=P, workers=WORKERS)
    tasks = int(rec.metrics.counter("engine.tasks"))

    # The disabled path costs one attribute read + branch per site; a
    # task passes ~3 sites (engine run, rendezvous resolve, job loop).
    reps = 200_000
    t0 = time.perf_counter()
    hits = 0
    for _ in range(reps):
        if NULL_RECORDER.enabled:  # pragma: no cover - never taken
            hits += 1
    guard_s = (time.perf_counter() - t0) / reps
    disabled_overhead = (guard_s * 3 * tasks) / off_s if off_s > 0 else 0.0

    return {
        "alg": alg,
        "m": m,
        "n": n,
        "P": P,
        "workers": WORKERS,
        "tasks_per_job": tasks,
        "warm_off_ms": round(off_s * 1e3, 3),
        "warm_on_ms": round(on_s * 1e3, 3),
        "enabled_overhead_pct": round((on_s / off_s - 1.0) * 100, 2),
        "guard_ns": round(guard_s * 1e9, 1),
        "disabled_overhead_bound_pct": round(disabled_overhead * 100, 4),
    }


def test_telemetry_overhead():
    """E3: the disabled-telemetry guard stays under 2% of a warm job."""
    row = _measure_telemetry("tsqr", 8192, 64, 8)

    lines = [
        "E3 / telemetry overhead: warm replay with telemetry off vs on",
        f"workers={WORKERS}, warm stream of {WARM_JOBS} same-shape jobs, best of {REPS}",
        "",
        format_run_table([row], columns=[
            "alg", "m", "n", "P", "tasks_per_job", "warm_off_ms", "warm_on_ms",
            "enabled_overhead_pct", "guard_ns", "disabled_overhead_bound_pct",
        ]),
    ]
    save_table("engine_telemetry", "\n".join(lines), rows=[row])

    # Merge into BENCH_engine.json (test_engine_speedup writes the rest;
    # standalone runs of this test start the payload fresh).
    bench_path = REPO_ROOT / "BENCH_engine.json"
    payload = json.loads(bench_path.read_text()) if bench_path.exists() else {}
    payload["telemetry"] = {
        "benchmark": "E3",
        "unit": "milliseconds wall-clock per warm job (best of repetitions)",
        "row": row,
    }
    save_root_bench("engine", payload)

    # Acceptance: the disabled guard's worst-case share of a warm replay
    # job is below 2% -- telemetry off must be effectively free.
    assert row["disabled_overhead_bound_pct"] < 2.0, row


def _measure_mp_point(alg: str, m: int, n: int, P: int, workers: int) -> dict:
    """E5: serial vs thread-pool vs process-pool warm replay at one point."""
    rng = np.random.default_rng(31)
    A = rng.standard_normal((m, n))
    stream = [rng.standard_normal((m, n)) for _ in range(WARM_JOBS)]

    serial_s = _best_of(lambda: run_qr(alg, A, P=P, validate=False))

    def _warm(backend: str) -> float:
        clear_plan_cache()
        run_many([QRJob(alg, A)], P=P, workers=workers, backend=backend)
        total = _best_of(lambda: run_many(
            [QRJob(alg, X) for X in stream], P=P, workers=workers,
            backend=backend,
        ))
        return total / WARM_JOBS

    thread_s = _warm("parallel")
    mp_s = _warm("parallel-mp")
    clear_plan_cache()  # release the cached mp pool (workers + shm)

    row = {
        "alg": alg,
        "m": m,
        "n": n,
        "P": P,
        "workers": workers,
        "serial_ms": round(serial_s * 1e3, 2),
        "thread_warm_ms": round(thread_s * 1e3, 2),
        "mp_warm_ms": round(mp_s * 1e3, 2),
        "speedup_mp_vs_serial": round(serial_s / mp_s, 3),
        "speedup_mp_vs_thread": round(thread_s / mp_s, 3),
        "mp_lt_serial": bool(mp_s < serial_s),
        "regression": bool(mp_s >= serial_s),
    }
    _flag_regression("parallel-mp", row, mp_s, serial_s)
    return row


def test_mp_speedup():
    """E5: the process pool's warm replay against serial and threads.

    On a multi-core host the mp backend is the only mode that escapes
    the GIL for the Python-side task bodies, so warm replay must beat
    serial numeric by >1.5x on at least one E1/E2 shape (>2x expected
    on 4+ cores).  On a single-core host the IPC tax cannot be won
    back, so only the conformance half (bit-identical factors) is
    asserted and the rows are recorded for the perf trajectory.
    """
    from repro.engine.mp import mp_supported

    if not mp_supported():  # pragma: no cover - exercised on spawn-only OSes
        import pytest

        pytest.skip("parallel-mp backend unavailable on this platform")

    cores = os.cpu_count() or 1
    workers = max(2, min(4, cores))
    points = (POINTS[0], POINTS[1], POINTS_2D[1])  # E1 tall-skinny + E2 2D
    rows = [_measure_mp_point(alg, m, n, P, workers)
            for alg, m, n, P in points]

    # Conformance half (any host): process-pool factors are bit-identical
    # to serial numeric on a representative tall-skinny point.
    ser = run_qr("tsqr", np.random.default_rng(31).standard_normal((4096, 64)),
                 P=8, validate=True)
    par = run_qr("tsqr", np.random.default_rng(31).standard_normal((4096, 64)),
                 P=8, validate=True, backend="parallel-mp", workers=workers)
    assert par.report == ser.report
    assert par.diagnostics.residual == ser.diagnostics.residual

    lines = [
        "E5 / multiprocessing engine: serial vs thread vs process warm replay",
        f"cores={cores}, workers={workers}, warm stream of {WARM_JOBS} "
        f"same-shape jobs, best of {REPS}",
        "",
        format_run_table(rows, columns=[
            "alg", "m", "n", "P", "workers", "serial_ms", "thread_warm_ms",
            "mp_warm_ms", "speedup_mp_vs_serial", "speedup_mp_vs_thread",
        ]),
    ]
    save_table("engine_mp", "\n".join(lines), rows=rows)

    bench_path = REPO_ROOT / "BENCH_engine.json"
    payload = json.loads(bench_path.read_text()) if bench_path.exists() else {}
    payload["mp"] = {
        "benchmark": "E5",
        "unit": "milliseconds wall-clock per warm job (best of repetitions)",
        "cores": cores,
        "workers": workers,
        "points": rows,
    }
    save_root_bench("engine", payload)

    # Acceptance (multi-core hosts only): >1.5x over serial somewhere,
    # and no E5 row loses to serial at all.
    if cores >= 2:
        assert any(r["speedup_mp_vs_serial"] > 1.5 for r in rows), rows
        assert not any(r["regression"] for r in rows), rows


if __name__ == "__main__":
    test_engine_speedup()
    test_telemetry_overhead()
    test_mp_speedup()
