#!/usr/bin/env python
"""Record the golden cost pin: every algorithm's exact metering, as JSON.

Runs each QR algorithm (and the harness extensions) at one small shape
on the numeric and the symbolic backend and, numeric again, under the
non-unit ``cluster`` profile (so ``modeled_time`` pins the rounding order
of its float sums, not just integers), the three end-to-end benchmark
shapes on numeric and their paper-scale siblings on symbolic, the
checksum-coded runs of the 1D algorithms (:func:`repro.faults.run_coded_qr`),
and writes every :class:`~repro.machine.CostReport` field plus
``words_by_label`` to ``tests/data/golden_costs.json``.  Floats are
stored with :meth:`float.hex`, so the file pins them bit for bit;
``tests/test_golden_costs.py`` re-runs every case and asserts equality.

Re-record only when a change is *meant* to move the metering::

    PYTHONPATH=src python tools/record_golden_costs.py
"""

from __future__ import annotations

import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
OUT = REPO / "tests" / "data" / "golden_costs.json"

#: (algorithm, m, n, P, knobs): one small shape per algorithm.  caqr3d
#: also runs its inductive case (b < n) under both all-to-alls.
SMALL = [
    ("tsqr", 64, 4, 4, {}),
    ("house1d", 96, 6, 8, {}),
    ("caqr1d", 210, 5, 7, {}),
    ("house2d", 48, 24, 6, {}),
    ("caqr2d", 60, 30, 9, {}),
    ("caqr3d", 64, 32, 8, {}),
    ("caqr3d", 256, 64, 8, {"b": 16, "bstar": 4}),
    ("caqr3d", 96, 48, 12, {"b": 16, "bstar": 4, "method": "index"}),
    ("wide", 24, 48, 6, {}),
    ("applyq", 96, 6, 8, {}),
    ("mm1d", 96, 6, 8, {}),
    ("mm3d", 48, 24, 6, {}),
]

#: The end-to-end benchmark's shapes (numeric) and symbolic siblings.
BENCH = [
    ("tsqr", 32768, 64, 8, {}, "numeric"),
    ("caqr3d", 1024, 256, 8, {"delta": 0.5}, "numeric"),
    ("house2d", 384, 96, 8, {}, "numeric"),
    ("tsqr", 262144, 64, 512, {}, "symbolic"),
    ("caqr3d", 2048, 256, 32, {"delta": 0.5}, "symbolic"),
    ("house2d", 1024, 64, 64, {}, "symbolic"),
]

#: Checksum-coded cases: the SMALL tsqr / caqr1d shapes with ``f`` spare
#: ranks, fault-free on numeric and symbolic, and on parallel with one
#: fault that the checksums recover.
CODED = [
    (alg, m, n, P, {"f": f, **extra}, backend)
    for alg, m, n, P, _ in SMALL if alg in ("tsqr", "caqr1d")
    for f in (1, 2)
    for backend, extra in (("numeric", {}), ("symbolic", {}), ("parallel", {"fault": "1@2"}))
]

REPORT_FIELDS = (
    "processors", "critical_flops", "critical_words", "critical_messages",
    "total_flops", "total_words_sent", "total_messages_sent", "modeled_time",
)


def cases() -> list[tuple[str, int, int, int, dict, str, str]]:
    """Every pinned case as ``(alg, m, n, P, knobs, backend, profile)``."""
    small = [
        (a, m, n, P, k, b, prof) for a, m, n, P, k in SMALL
        for b, prof in (("numeric", "unit"), ("symbolic", "unit"), ("numeric", "cluster"))
    ]
    return small + [(*c, "unit") for c in BENCH + CODED]


def case_id(alg: str, m: int, n: int, P: int, knobs: dict, backend: str, profile: str) -> str:
    extra = "".join(f",{k}={v}" for k, v in sorted(knobs.items()))
    return f"{alg}:{m}x{n}:P={P}{extra}:{backend}:{profile}"


def encode(value):
    """A report field as JSON: ints as is, floats as ``float.hex``."""
    return value.hex() if isinstance(value, float) else int(value)


def measure(
    alg: str, m: int, n: int, P: int, knobs: dict, backend: str, profile: str
) -> dict:
    """One case's pinned metering, JSON-ready.

    A case whose knobs name ``f`` is a coded run; it also pins how many
    checksum groups its recovery spent.
    """
    from repro.faults import run_coded_qr
    from repro.machine import MACHINE_PROFILES
    from repro.workloads import gaussian, run_qr

    A = (m, n) if backend == "symbolic" else gaussian(m, n, seed=11)
    knobs = dict(knobs)
    f, fault = knobs.pop("f", 0), knobs.pop("fault", None)
    cost_params = MACHINE_PROFILES[profile]
    if not f:
        res = run_qr(alg, A, P, cost_params=cost_params, validate=False,
                     backend=backend, **knobs)
        words, extra = res.words_by_label, {}
    else:
        res = run_coded_qr(alg, A, P, f=f, fault=fault, cost_params=cost_params,
                           backend=backend, **knobs)
        words, extra = res.machine.words_by_label, {"recoveries": res.recoveries}
    report = {f: encode(getattr(res.report, f)) for f in REPORT_FIELDS}
    return {"report": report, "words_by_label": dict(sorted(words.items())), **extra}


def main() -> int:
    golden = {case_id(*c): measure(*c) for c in cases()}
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {OUT.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
