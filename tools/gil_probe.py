#!/usr/bin/env python
"""Which entry points of the recorded kernels run concurrently on two threads?

For each foreign call a recorded kernel makes (and, for contrast, the
f2py wrappers of the same routines) at the ``tallskinny`` leaf size
4096 x 64: ms per call, the 2-thread / 1-thread wall-time ratio of the
same per-thread work (best of 5; 1.0 = the calls overlap, 2.0 = fully
serialised, i.e. the GIL is held), and the binding in use.  BLAS is
pinned to one thread like ``benchmarks/e2e``.  Information only: exits
non-zero only when an entry point cannot be resolved at all.

    python tools/gil_probe.py
"""

from __future__ import annotations

import os
import pathlib
import sys
import threading
import time

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

M, N, CALLS = 4096, 64, 12


def wall(fns) -> float:
    """Wall time of ``CALLS`` calls of each ``fn``, one thread per ``fn``."""
    threads = [threading.Thread(target=lambda f=f: [f() for _ in range(CALLS)]) for f in fns]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - t0


def main() -> int:
    import scipy.linalg
    from scipy.linalg.blas import dtrsm
    from scipy.linalg.lapack import dgeqrt

    from repro.backend import lapack

    rng = np.random.default_rng(0)
    A = np.asfortranarray(rng.standard_normal((M, N)))
    U = np.triu(rng.standard_normal((N, N))) + 8.0 * np.eye(N)
    Uf, B = np.asfortranarray(U), rng.standard_normal((N, N))

    def entry(make):  # one private set of buffers per thread
        return [make(A.copy(order="F"), np.empty((M, N), order="F")) for _ in range(2)]

    probes = {
        "lapack.geqrt  (dgeqrt)": (lapack.binding("dgeqrt"), entry(
            lambda a, o: lambda: (np.copyto(o, a), lapack.geqrt(o)))),
        "lapack.trsm   (dtrsm)": (lapack.binding("dtrsm"), entry(
            lambda a, o: lambda: lapack.trsm(Uf, a))),
        "numpy.matmul  (out=)": ("numpy", entry(lambda a, o: lambda: np.matmul(a, B, out=o))),
        "scipy.linalg.solve_triangular": ("f2py", entry(
            lambda a, o: lambda: scipy.linalg.solve_triangular(U, a.T, trans="T"))),
        "scipy.linalg.lapack.dgeqrt": ("f2py", entry(
            lambda a, o: lambda: (np.copyto(o, a), dgeqrt(N, o, overwrite_a=1)))),
        "scipy.linalg.blas.dtrsm": ("f2py", entry(
            lambda a, o: lambda: dtrsm(1.0, Uf, a, side=1, overwrite_b=1))),
    }
    # A shared host may take seconds to schedule a second busy thread on
    # its own core; measure only after both have been busy for a while.
    spin = probes["numpy.matmul  (out=)"][1]
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 3.0:
        wall(spin)
    print(f"{'entry point':32s} {'binding':8s} {'ms/call':>8s} {'2 threads / 1':>14s}")
    for name, (how, fns) in probes.items():
        one = min(wall(fns[:1]) for _ in range(5))
        two = min(wall(fns) for _ in range(5))
        print(f"{name:32s} {how:8s} {one / CALLS * 1e3:8.3f} {two / one:14.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
