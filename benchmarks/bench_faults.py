"""E4: fault-tolerance redundancy -- what the checksum code costs, exactly.

On a tall-skinny TSQR point, the coded run's ``CostReport`` excess over
the plain run is tabulated next to ``predict_overhead``'s closed form
(the two are asserted equal here and, cell by cell, in
``tests/test_faults.py``), and a run with a deterministic mid-stream
rank kill must recover exactly once with ``(V, T, R)`` bit-identical to
the fault-free coded run.  Every number in the table is a count, so the
result file is the same on any host.

What the code and a recovery cost in *wall-clock* is not measured here:
engine timings live in the repo benchmark (``BENCHMARK.json``,
``python3 benchmarks/e2e/run.py``), which has no fault workload yet.

Paper anchor: Section 5 (the protected TSQR), Section 3 (the cost
model the redundancy is accounted in); arXiv 2311.11943 (coded QR).
"""

from __future__ import annotations

import numpy as np

from conftest import save_table
from repro.faults import CodedRecovery, predict_overhead, run_coded_qr
from repro.workloads import format_run_table, gaussian, run_qr

ALG, M, N, P, F = "tsqr", 4096, 32, 8, 1
FAULT = "3@4"  # kill rank 3 at its 5th task-step: mid-upsweep


def test_fault_tolerance_overhead():
    """E4: exact encode redundancy and a bit-identical coded recovery."""
    A = gaussian(M, N, seed=11)
    plain = run_qr(ALG, A, P=P, validate=False, backend="parallel")
    coded = run_coded_qr(ALG, A, P=P, f=F)

    # The measured report's excess is exactly the closed-form prediction.
    predicted = predict_overhead(M, N, P, F)
    delta = coded.report.delta(plain.report)
    assert delta == predicted.as_delta(), (delta, predicted)

    faulted = run_coded_qr(ALG, A, P=P, f=F, fault=FAULT, recovery=CodedRecovery(F))
    # Recovery actually happened and reproduced the factors bit-for-bit.
    assert faulted.recoveries == 1, faulted.fired
    for got, want in zip(faulted.factors, coded.factors):
        assert np.array_equal(got, want)
    assert faulted.report == coded.report

    row = {
        "alg": ALG, "m": M, "n": N, "P": P, "f": F, "fault": FAULT,
        "recoveries": faulted.recoveries,
        "overhead_flops": predicted.flops,
        "overhead_words": predicted.words,
        "overhead_messages": predicted.messages,
        "plain_words": plain.report.total_words_sent,
        "plain_messages": plain.report.total_messages_sent,
    }
    lines = [
        "E4 / fault tolerance: checksum encode + coded recovery on TSQR",
        f"fault {FAULT}, CodedRecovery(f={F}); CostReport.delta == predict_overhead "
        "(exact), recovered factors bit-identical",
        "",
        format_run_table([row], columns=[
            "alg", "m", "n", "P", "f", "fault", "recoveries", "overhead_flops",
            "overhead_words", "overhead_messages", "plain_words", "plain_messages",
        ]),
    ]
    save_table("faults_overhead", "\n".join(lines), rows=[row])
