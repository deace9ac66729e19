"""A serial tsqr job allocates about one copy of its input, not two.

Each leaf's ``V_p`` is written in place over the column-major buffer
its ``geqrt`` factored (``qr/tsqr.py``'s ``tsqr_V`` kernel), so the only
input-sized allocation of a numeric job is the leaves' ``V``: the
downsweep forms no ``m_p x n`` block ``W_p``.  Traced peak per job,
over the input's bytes: 2.28 with a ``W_p`` per leaf, 1.19 without.

``tracemalloc`` is process-wide, so CI runs this file on its own.
"""

from __future__ import annotations

import tracemalloc

from repro.workloads import gaussian, run_qr

#: Traced peak of one warm numeric job, in units of the input's bytes.
PEAK_OVER_INPUT = 1.3


def test_a_numeric_tsqr_job_peaks_near_one_input():
    A = gaussian(32768, 64, seed=0)
    run_qr("tsqr", A, 8, validate=False)  # imports, memos and caches warm
    tracemalloc.start()
    try:
        run_qr("tsqr", A, 8, validate=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_OVER_INPUT * A.nbytes, f"{peak / A.nbytes:.2f} x the input"
