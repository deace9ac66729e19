"""Command-line interface: run, sweep, plan, and trace algorithms.

Usage::

    python -m repro run   --alg caqr3d --m 256 --n 64 --P 16 --delta 0.5
    python -m repro sweep --alg caqr1d --m 8192 --n 64 --P 32 --knob b \\
                          --values 64,32,16,8
    python -m repro plan  --m 65536 --n 1024 --P 1024 --profile cluster
    python -m repro trace tsqr --m 4096 --n 64 --P 16 --workers 4
    python -m repro profiles

``run`` factors one matrix and prints the measured cost triple plus
diagnostics; ``sweep`` varies one knob and prints a table with modeled
times on every machine profile; ``plan`` asks the planner which
algorithm/knobs to use for a problem shape on a machine profile (see
:mod:`repro.planner`); ``trace`` runs once on the parallel engine with
telemetry enabled, writes a Perfetto-loadable Chrome trace
(``trace.json``) plus a metrics dump, and prints the model-vs-reality
drift table (see :mod:`repro.telemetry` and ``docs/observability.md``);
``profiles`` lists the built-in machine profiles.  ``run`` and ``plan
--run`` accept ``--telemetry`` to print a span/metrics summary for any
backend whose telemetry capability is ``"runtime"``.

Paper anchor: Section 8 (the evaluation's run/sweep/tune driver).
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from repro.backend import available_backends, resolve_backend
from repro.machine import MACHINE_PROFILES
from repro.workloads import ALGORITHMS, format_run_table, run_qr


def _backend_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--backend", choices=available_backends(), default="numeric",
        help="execution backend (registry-dispatched): symbolic = cost-only "
             "(no arithmetic, no validation; enables paper-scale m/n/P "
             "sweeps), parallel = same metering as numeric but the array "
             "work runs on a thread pool, parallel-mp = the same on a "
             "forked worker-process pool -- true multi-core, needs fork "
             "(see --workers and docs/architecture.md)",
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="worker count for --backend parallel (threads) or "
             "parallel-mp (processes); default: available cores, capped "
             "at 8",
    )
    p.add_argument(
        "--telemetry", action="store_true",
        help="record runtime spans/metrics during the run and print a "
             "summary (see `repro trace` for the full Chrome-trace + "
             "drift workflow)",
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alg", required=True, choices=ALGORITHMS)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--P", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-validate", action="store_true")
    _backend_args(p)


def _params_from(args) -> dict:
    out = {}
    for name in ("b", "bstar", "bb"):
        v = getattr(args, name, None)
        if v is not None:
            out[name] = v
    for name in ("eps", "delta"):
        v = getattr(args, name, None)
        if v is not None:
            out[name] = v
    return out


def _make_input(args):
    """Global input as the backend wants it: a real matrix, or its shape."""
    return resolve_backend(args.backend).make_input(args.m, args.n, seed=args.seed)


@contextlib.contextmanager
def _maybe_telemetry(args):
    """Install a fresh recorder for ``--telemetry`` runs (else a no-op)."""
    if not getattr(args, "telemetry", False):
        yield None
        return
    from repro import telemetry

    rec = telemetry.TelemetryRecorder()
    with telemetry.recording(rec):
        yield rec


def _print_telemetry(args, rec) -> None:
    """Summarize a ``--telemetry`` run, honoring the backend capability."""
    if rec is None:
        return
    from repro.telemetry import format_metrics

    impl = resolve_backend(args.backend)
    print()
    if impl.telemetry == "simulated":
        print(f"backend {impl.name!r} reports simulated time only "
              "(cost-only execution; no runtime spans are recorded)")
    print(format_metrics(rec))


def cmd_run(args) -> int:
    from repro.faults import CodedRecovery, FaultPlan, parse_policy, run_coded_qr
    from repro.machine import ParameterError, RankFailure

    A = _make_input(args)
    fault = getattr(args, "inject_fault", None)
    policy = parse_policy(getattr(args, "recovery", None))
    # A coded policy makes a checksum-protected run: spare ranks, XOR
    # parity, engine-side recovery (see docs/fault_tolerance.md).
    coded = isinstance(policy, CodedRecovery)
    try:
        with _maybe_telemetry(args) as rec:
            if coded:
                r = run_coded_qr(args.alg, A, P=args.P, f=policy.f,
                                 fault=fault, recovery=policy,
                                 backend=args.backend, workers=args.workers,
                                 **_params_from(args))
            else:
                r = run_qr(args.alg, A, P=args.P, validate=not args.no_validate,
                           backend=args.backend, workers=args.workers,
                           fault_plan=FaultPlan.parse(fault),
                           recovery=policy, **_params_from(args))
    except (ParameterError, RankFailure) as exc:
        print(f"run failed: {exc}")
        return 1
    if coded:
        print(format_run_table([{"algorithm": f"{args.alg}+coded:{r.f}",
                                 **r.report.as_row()}]))
        print(f"checksum overhead (exact): flops={r.predicted.flops} "
              f"words={r.predicted.words} messages={r.predicted.messages}")
        print(f"faults fired: {len(r.fired)}; recoveries: {r.recoveries}")
    else:
        print(format_run_table([r.row()]))
        ph = r.words_by_phase()
        if ph["alltoall"] or ph["dmm"]:
            print(f"word volume by phase: base/1d={ph['other']:.0f} "
                  f"dmm={ph['dmm']:.0f} all-to-all={ph['alltoall']:.0f}")
        print("modeled time by machine profile:")
        for name, prof in MACHINE_PROFILES.items():
            if name == "unit":
                continue
            print(f"  {name:<16} {r.report.time_under(prof):.3e} s")
    _print_telemetry(args, rec)
    return 0


def cmd_sweep(args) -> int:
    A = _make_input(args)
    values = []
    for tok in args.values.split(","):
        values.append(float(tok) if "." in tok else int(tok))
    rows = []
    with _maybe_telemetry(args) as rec:
        for v in values:
            r = run_qr(args.alg, A, P=args.P, validate=not args.no_validate,
                       backend=args.backend, workers=args.workers,
                       **{**_params_from(args), args.knob: v})
            row = r.row()
            row[args.knob] = v
            for name in ("cluster", "cloud", "supercomputer"):
                row[f"t({name})"] = r.report.time_under(MACHINE_PROFILES[name])
            rows.append(row)
    cols = ["algorithm", args.knob, "flops", "words", "messages",
            "t(cluster)", "t(cloud)", "t(supercomputer)"]
    print(format_run_table(rows, columns=cols,
                           title=f"{args.alg} sweep over {args.knob} "
                                 f"(m={args.m}, n={args.n}, P={args.P})"))
    _print_telemetry(args, rec)
    return 0


def cmd_plan(args) -> int:
    from repro.planner import DEFAULT_CONFIG, PlannerConfig, plan, plan_and_run, resolve_profile

    profile = resolve_profile(args.profile)
    config = DEFAULT_CONFIG
    if args.top is not None:
        config = PlannerConfig(max_measured=args.top)
    budget = args.budget if args.budget > 0 else None
    kw = dict(profile=profile, config=config, measure_budget=budget)
    with _maybe_telemetry(args) as rec:
        if args.run:
            from repro.machine import ParameterError

            try:
                result, run = plan_and_run(m=args.m, n=args.n, P=args.P,
                                           P_budget=args.P_budget, seed=args.seed,
                                           backend=args.backend, workers=args.workers, **kw)
            except ParameterError as exc:
                print(exc)
                return 1
        else:
            result = plan(args.m, args.n, args.P, P_budget=args.P_budget, **kw)
            run = None
    if not result.plans:
        print(result.explain())
        return 1
    print(result.table(top=args.show))
    s = result.stats
    print(f"[{s['measured']}/{s['candidates']} candidates measured in "
          f"{s['elapsed_s']:.3g}s; {s['pruned']} pruned by predicted cost"
          + (f"; {s['budget_skipped']} skipped by --budget" if s["budget_skipped"] else "")
          + "]")
    if result.rejected:
        print(f"excluded ({len(result.rejected)}):")
        seen = set()
        for r in result.rejected:
            line = f"  {r.label}: {r.reason}"
            if line not in seen:
                seen.add(line)
                print(line)
    if run is not None:
        print(f"\nwinner executed on the {args.backend} backend:")
        print(format_run_table([run.row()]))
    _print_telemetry(args, rec)
    return 0


def cmd_trace(args) -> int:
    """One traced run on the parallel engine: trace.json + drift table."""
    import time

    from repro.planner import resolve_profile
    from repro.telemetry import (
        TelemetryRecorder,
        drift_report,
        metrics_dump,
        recording,
        write_chrome_trace,
    )
    from repro.workloads.sweeps import build

    profile = resolve_profile(args.profile)
    impl = resolve_backend("parallel")
    A = impl.make_input(args.m, args.n, seed=args.seed)
    rec = TelemetryRecorder()
    t0 = time.perf_counter()
    # A build, not a run_many job: the trace must show a recording, so
    # it never replays a cached plan (and leaves the cache alone).
    with recording(rec):
        built, _ = build(args.alg, A, args.P, _params_from(args), False, impl,
                         args.workers, profile)
    wall = time.perf_counter() - t0

    trace = write_chrome_trace(rec, args.out)
    print(f"wrote {args.out} ({len(trace['traceEvents'])} trace events, "
          f"{len(rec.spans)} spans; load in https://ui.perfetto.dev)")
    if args.metrics_out:
        import json

        with open(args.metrics_out, "w") as fh:
            json.dump(metrics_dump(rec), fh, indent=2)
        print(f"wrote {args.metrics_out}")

    # The drift join re-runs the identical shape cost-only; the run's
    # resolved knobs (drive filled them into the build's params) keep
    # both sides on the same plan.
    dr = drift_report(args.alg, args.m, args.n, args.P, rec, wall,
                      params=built.params, profile=profile)
    print()
    print(dr.table())
    waits = rec.metrics.counter("engine.rendezvous.waits")
    tasks = rec.metrics.counter("engine.tasks")
    print(f"[{tasks:.0f} engine tasks, {waits:.0f} rendezvous waits, "
          f"workers={args.workers or 'auto'}]")
    engine = built.machine.engine
    print(engine.lanes_line())
    print(engine.writes_line())
    print(engine.build_line(built.record_s, built.materialize_s))
    return 0


def cmd_profiles(_args) -> int:
    print(f"{'name':<18} {'alpha':>10} {'beta':>10} {'gamma':>10}")
    for name, p in MACHINE_PROFILES.items():
        print(f"{name:<18} {p.alpha:>10.2e} {p.beta:>10.2e} {p.gamma:>10.2e}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="QR decomposition algorithms from Ballard et al., SPAA 2018"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="factor one matrix, print measured costs")
    _add_common(p_run)
    for name, typ in (("b", int), ("bstar", int), ("bb", int), ("eps", float), ("delta", float)):
        p_run.add_argument(f"--{name}", type=typ, default=None)
    p_run.add_argument(
        "--inject-fault", dest="inject_fault", default=None, metavar="RANK@STEP",
        help="kill RANK at its STEP-th task-step (parallel backend) or "
             "kernel dispatch (append ':dispatch'); comma-separate for "
             "several triggers (see docs/fault_tolerance.md)",
    )
    p_run.add_argument(
        "--recovery", default=None, metavar="POLICY",
        help="what to do when a rank dies: 'failfast', 'retry:<n>', or "
             "'coded:<f>' (adds f XOR-checksum spare ranks; tsqr/caqr1d "
             "on --backend parallel)",
    )
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one knob, print cost table")
    _add_common(p_sweep)
    p_sweep.add_argument("--knob", required=True, choices=["b", "bstar", "bb", "eps", "delta"])
    p_sweep.add_argument("--values", required=True, help="comma-separated knob values")
    for name, typ in (("b", int), ("bstar", int), ("bb", int), ("eps", float), ("delta", float)):
        p_sweep.add_argument(f"--{name}", type=typ, default=None)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_plan = sub.add_parser(
        "plan", help="rank algorithms/knobs for a problem shape on a machine profile"
    )
    p_plan.add_argument("--m", type=int, required=True)
    p_plan.add_argument("--n", type=int, required=True)
    group = p_plan.add_mutually_exclusive_group(required=True)
    group.add_argument("--P", type=int, default=None)
    group.add_argument("--P-budget", dest="P_budget", type=int, default=None,
                       help="search powers of two up to this processor budget")
    p_plan.add_argument("--profile", default="cluster",
                        help="profile name (see `profiles`) or 'alpha,beta,gamma'")
    p_plan.add_argument("--budget", type=float, default=240.0,
                        help="approx. wall-clock seconds for symbolic measurement "
                             "(predicted-best is always measured; <=0 or 'inf' "
                             "measures everything)")
    p_plan.add_argument("--top", type=int, default=None,
                        help="measure at most this many candidates")
    p_plan.add_argument("--show", type=int, default=None,
                        help="print at most this many ranked rows")
    p_plan.add_argument("--run", action="store_true",
                        help="execute the winner on --backend (generates a test matrix)")
    p_plan.add_argument("--seed", type=int, default=0)
    _backend_args(p_plan)
    p_plan.set_defaults(fn=cmd_plan)

    p_trace = sub.add_parser(
        "trace",
        help="run once on the parallel engine with telemetry: write a "
             "Chrome trace (Perfetto-loadable) and print the "
             "model-vs-reality drift table",
    )
    p_trace.add_argument("alg", choices=ALGORITHMS)
    p_trace.add_argument("--m", type=int, required=True)
    p_trace.add_argument("--n", type=int, required=True)
    p_trace.add_argument("--P", type=int, required=True)
    p_trace.add_argument("--workers", type=int, default=None,
                         help="engine thread count (default: cores, capped at 8)")
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--profile", default="cluster",
                         help="machine profile the drift table predicts "
                              "against (see `profiles`) or 'alpha,beta,gamma'")
    p_trace.add_argument("--out", default="trace.json",
                         help="Chrome trace-event JSON output path")
    p_trace.add_argument("--metrics-out", dest="metrics_out", default=None,
                         help="also dump the metrics registry as JSON here")
    for name, typ in (("b", int), ("bstar", int), ("bb", int), ("eps", float), ("delta", float)):
        p_trace.add_argument(f"--{name}", type=typ, default=None)
    p_trace.set_defaults(fn=cmd_trace)

    p_prof = sub.add_parser("profiles", help="list machine profiles")
    p_prof.set_defaults(fn=cmd_profiles)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
