"""Workload generators and the shared run harness.

Paper anchor: Section 8 (workloads and run harness).
"""

from repro.workloads.matrices import (
    GENERATORS,
    column_scaled,
    gaussian,
    graded,
    identity_tall,
    near_rank_deficient,
)
from repro.workloads.sweeps import (
    ALGORITHMS,
    QR_ALGORITHMS,
    RunResult,
    drive,
    format_run_table,
    run_qr,
)

__all__ = [
    "ALGORITHMS",
    "QR_ALGORITHMS",
    "GENERATORS",
    "drive",
    "RunResult",
    "column_scaled",
    "format_run_table",
    "gaussian",
    "graded",
    "identity_tall",
    "near_rank_deficient",
    "run_qr",
]
