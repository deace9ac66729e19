"""The measuring process: one workload in one fresh interpreter.

``run.py`` starts this file as a subprocess (never imports it), so
imports, plan builds and the process pool are paid here and show up in
``setup_s``.  The last line of stdout is one JSON object with the raw
values; ``run.py`` attaches units and bounds from ``BENCHMARK.json``.

Modes:

``setup``    set up, tear down, report ``setup_s`` only (repeat samples)
``measure``  set up, timed rounds, cold loop, CLI loop, verification
``trace``    set up, traced rounds, per-layer probes, verification
``counts``   the exact-count metrics only (the smoke test's second seed)

With ``--smoke`` every loop runs its minimum count and a trace run also
runs the cold and CLI loops, so one process emits every declared metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

import host  # before numpy: main() pins the BLAS through it
from harness import ROOT, Bench
from spans import SpanLog
from workloads import WORKLOADS

RESULTS = Path(__file__).resolve().parent / "results"

#: One pass of a measure run; passes repeat until ``--seconds`` are used.
MEASURE_PASS = ("warm_round", "cold_unit", "cli_pair")
#: Share of ``--seconds`` a trace run spends in traced rounds; the rest
#: of the run is the fixed-count layer probes.
TRACE_ROUNDS_SHARE = 0.4


def teardown() -> None:
    """Drop cached plans so pools stop and their children are reaped."""
    from repro.engine.batch import clear_plan_cache

    clear_plan_cache()
    gc.collect()


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (KiB on Linux)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "measure", "trace", "counts"])
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.time() in the parent just before it started this process")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    os.environ.update(host.PIN_ENV)
    try:
        fp = host.fingerprint(ROOT, args.seed)
    except host.HostRefused as exc:
        print(f"refusing to record: {exc}", file=sys.stderr)
        return 3

    w = WORKLOADS[args.workload]
    trace = args.mode == "trace"
    rec = None
    if trace:
        from repro.telemetry import TelemetryRecorder

        rec = TelemetryRecorder()
    bench = Bench(w, args.seed, SpanLog(enabled=trace), rec)
    result: dict = {"workload": w.name, "mode": args.mode, "fingerprint": fp}

    if args.mode == "counts":
        import layers

        bench.make_inputs()
        result["metrics"] = layers.exact_counts(bench)
        print(json.dumps(result))
        return 0

    bench.setup()
    setup_s = time.time() - args.spawned_at
    if args.mode == "setup":
        teardown()
        result["metrics"] = {"setup_s": setup_s}
        print(json.dumps(result))
        return 0

    # A smoke run is a trace run that also runs the cold and CLI units,
    # so one process emits every declared metric.
    full = not trace or args.smoke
    units = MEASURE_PASS if full else ("warm_round",)
    if trace:
        units = tuple("rec_round" if u == "warm_round" else u for u in units)
    seconds = args.seconds * (1.0 if full else TRACE_ROUNDS_SHARE)
    bench.cycle(0.0 if args.smoke else seconds, units, 1 if args.smoke else 2)
    metrics: dict[str, float] = {}
    if full:
        metrics.update(bench.end_to_end(), setup_s=setup_s)
    else:
        # One cold unit, so a trace run also drops a pool and builds the
        # next: the sequence the pool-hygiene counters are there to watch.
        bench.cold_unit()
    if trace:
        import layers

        metrics.update(layers.probe(bench, fp, reps=1 if args.smoke else 5))

    bad = bench.verify()
    teardown()
    attempted = sum(bench.attempted.values())
    failed = sum(bench.failed.values())
    if trace:
        metrics["fail_frac"] = failed / attempted
        out = RESULTS / f"trace-{w.name}.json"
        bench.log.write_chrome(out, {"fingerprint": fp, "workload": w.name})
        result["trace_file"] = str(out.relative_to(ROOT))
        result["layer_table"] = bench.log.layer_table()
    if full:
        metrics["peak_rss_mb"] = peak_rss_mb()
    result.update(
        metrics=metrics, attempted=attempted, failed=failed,
        correct=failed == 0 and not bad,
        samples={k: bench.summary(k) for k in bench.samples},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
