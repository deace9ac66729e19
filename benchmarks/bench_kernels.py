"""K1 -- local kernel throughput: blocked vs unblocked Householder QR.

The numeric backend's ``local_geqrt`` routes real panels through LAPACK
``dgeqrt`` (the recursive Elmroth-Gustavson QR, compact-WY ``T``
included; see ``repro.backend.lapack``) instead of the per-column
reference loop (which is kept for complex dtypes and as the convention
oracle).  This bench measures both paths on benchmark-suite-scale
panels, asserts the blocked kernel is >= 3x faster once panels are
non-trivial, and records the speedups in ``BENCH_kernels.json`` at the
repo root so the perf trajectory is machine-readable.
"""

from __future__ import annotations

import time

import numpy as np

from repro.machine import Machine
from repro.qr.householder import local_geqrt

from conftest import save_root_bench, save_table

#: (m, n) panels: tsqr leaves and merges, caqr panels, a large square-ish.
SIZES = ((256, 16), (256, 32), (1024, 64), (4096, 128), (2048, 256))
REPS = 8


def _time(A: np.ndarray, blocked: bool) -> float:
    machine = Machine(1)
    local_geqrt(machine, 0, A, blocked=blocked)  # warm caches/LAPACK
    t0 = time.perf_counter()
    for _ in range(REPS):
        local_geqrt(machine, 0, A, blocked=blocked)
    return (time.perf_counter() - t0) / REPS


def test_kernel_speedup(benchmark):
    rng = np.random.default_rng(23)
    rows = []
    for m, n in SIZES:
        A = rng.standard_normal((m, n))
        ref = local_geqrt(Machine(1), 0, A, blocked=False)
        fast = local_geqrt(Machine(1), 0, A, blocked=True)
        # Same factorization (convention and all), not just same costs.
        assert np.allclose(ref.R, fast.R, atol=1e-8)
        assert np.allclose(ref.V, fast.V, atol=1e-8)
        t_loop = _time(A, blocked=False)
        t_blk = _time(A, blocked=True)
        rows.append(
            {
                "m": m,
                "n": n,
                "unblocked_ms": round(t_loop * 1e3, 3),
                "blocked_ms": round(t_blk * 1e3, 3),
                "speedup": round(t_loop / t_blk, 2),
            }
        )

    lines = [
        "K1 / local_geqrt: LAPACK-blocked vs per-column reference loop",
        f"{'m':>6} {'n':>5} {'loop(ms)':>10} {'blocked(ms)':>12} {'speedup':>8}",
    ]
    for r in rows:
        lines.append(
            f"{r['m']:>6} {r['n']:>5} {r['unblocked_ms']:>10.2f} "
            f"{r['blocked_ms']:>12.2f} {r['speedup']:>7.1f}x"
        )
    save_table("kernel_geqrt", "\n".join(lines), rows=rows)
    save_root_bench("kernels", {"geqrt": rows, "unit": "milliseconds per call"})

    # Panels of width >= 32 (every benchmark's dominant geqrt work) must
    # be at least 3x faster blocked.
    for r in rows:
        if r["n"] >= 32:
            assert r["speedup"] >= 3.0, rows

    A = rng.standard_normal((1024, 64))
    benchmark(lambda: local_geqrt(Machine(1), 0, A, blocked=True))
