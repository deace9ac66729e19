#!/usr/bin/env python3
"""End-to-end benchmark of the repo: one command, every metric by name.

    python3 benchmarks/e2e/run.py                      # all workloads, end to end
    python3 benchmarks/e2e/run.py --traced             # all workloads, per layer
    python3 benchmarks/e2e/run.py --workload squarish3d --seed 7 --seconds 30 --trace 0
    python3 benchmarks/e2e/run.py --repeat 10 --out a.jsonl
    python3 benchmarks/e2e/run.py --compare a.jsonl b.jsonl
    python3 benchmarks/e2e/run.py --smoke

This process only orchestrates: it pins the BLAS in the environment,
starts ``worker.py`` in a fresh interpreter per workload, counts what
that process left behind (shared memory, children, finalizer errors),
attaches the units declared in ``BENCHMARK.json`` and prints the result.
The last line of stdout is one JSON object; the exit code is non-zero
when any output was wrong.  See ``README.md`` for the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import host
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"
PERFLOG = HERE / "results" / "perflog.jsonl"

#: Set-ups timed per measure run (``setup_s`` is their median).
SETUP_SAMPLES = 3
#: The whole command must end within 180 s; leave room to report.
RUN_DEADLINE_S = 165.0
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
#: Counted here, after the worker has exited (it cannot see its own leaks).
HYGIENE = ("mp.leaked_shm", "mp.orphan_procs", "mp.finalizer_errors")
#: Metrics that must repeat bit for bit across runs and seeds of a shape.
EXACT = (
    "machine.critical_flops", "machine.critical_words", "machine.critical_messages",
    "machine.total_words_sent", "machine.total_messages_sent",
    "engine.plan_tasks", "engine.steps_after_fusion",
    "engine.rendezvous_remaining", "engine.rendezvous_eliminated",
)


def shm_names() -> set[str]:
    """POSIX shared-memory segments made by Python's ``shared_memory``."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def group_members(pgid: int) -> list[int]:
    """Live processes whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[-1].split()   # after "(comm)": state ppid pgrp ...
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


class WorkerProc:
    """One ``worker.py`` subprocess in its own process group."""

    def __init__(self, workload: str, seed: int, seconds: float, mode: str, smoke: bool = False) -> None:
        self.shm_before = shm_names()
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", repr(float(seconds)), "--mode", mode]
        if smoke:
            argv.append("--smoke")
        argv += ["--spawned-at", repr(time.time())]
        self.proc = subprocess.Popen(
            argv, env=host.child_env(ROOT), cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        )
        self.out = self.err = ""

    def wait(self, deadline: float) -> None:
        try:
            self.out, self.err = self.proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.kill_group()
            self.out, self.err = self.proc.communicate()
            self.err += "\nworker exceeded the run deadline and was killed\n"

    def kill_group(self) -> int:
        """SIGKILL whatever is left in the worker's process group."""
        left = group_members(self.proc.pid)
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        return len(left)

    def result(self) -> dict | None:
        """The worker's last stdout line, when it exited 0 and printed one."""
        lines = self.out.strip().splitlines()
        if self.proc.returncode != 0 or not lines:
            return None
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            return None

    def hygiene(self) -> dict[str, int]:
        """What the exited worker left behind; leftovers are then removed."""
        leaked = shm_names() - self.shm_before
        for name in leaked:
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except OSError:
                pass
        return {
            "mp.leaked_shm": len(leaked),
            "mp.orphan_procs": self.kill_group(),
            "mp.finalizer_errors": self.err.count("Exception ignored"),
        }


def load_spec() -> dict:
    spec = json.loads(SPEC.read_text())
    spec["units"] = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return spec


def declared(spec: dict, trace: bool) -> list[str]:
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> dict | None:
    """One contract run: set-up samples, the measuring worker, hygiene.

    Returns the run record, or ``None`` when a worker died or a declared
    metric is missing (the caller then exits non-zero without a result).
    """
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups: list[float] = []
    hygiene = dict.fromkeys(HYGIENE, 0)
    workers = [] if trace else [(name, seed, seconds, "setup")] * (SETUP_SAMPLES - 1)
    workers.append((name, seed, seconds, "trace" if trace else "measure"))
    res = None
    for args in workers:
        wp = WorkerProc(*args)
        wp.wait(deadline)
        res = wp.result()
        for key, count in wp.hygiene().items():
            hygiene[key] += count
        if res is None:
            sys.stderr.write(wp.err)
            print(f"worker ({args[3]}) for {name} exited {wp.proc.returncode} without a result",
                  file=sys.stderr)
            return None
        if "setup_s" in res["metrics"]:
            setups.append(res["metrics"]["setup_s"])
    if not res["correct"]:
        sys.stderr.write(wp.err)
    values = dict(res["metrics"])
    if trace:
        values.update(hygiene)
    else:
        values["setup_s"] = statistics.median(setups)
    missing = [m for m in declared(spec, trace) if m not in values]
    if missing:
        print(f"{name}: declared metrics not emitted: {missing}", file=sys.stderr)
        return None
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "fingerprint": res["fingerprint"],
        "correct": bool(res["correct"]), "attempted": res["attempted"], "failed": res["failed"],
        "samples": res["samples"], "setup_samples": setups,
        "metrics": {m: values[m] for m in declared(spec, trace)},
    }
    for extra in ("trace_file", "layer_table"):
        if extra in res:
            record[extra] = res[extra]
    return record


def log_record(record: dict, out: Path | None) -> None:
    """Append the run to the perflog (and to ``--out``), one JSON line each."""
    line = json.dumps({k: v for k, v in record.items() if k != "layer_table"})
    for path in filter(None, (PERFLOG, out)):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a") as fh:
            fh.write(line + "\n")


def contract_line(spec: dict, record: dict) -> str:
    """The single-run result object the benchmark contract asks for."""
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"], "failed": record["failed"],
        "metrics": {m: {"value": v, "unit": spec["units"][m]} for m, v in record["metrics"].items()},
    })


def print_record(spec: dict, record: dict) -> None:
    fp = record["fingerprint"]
    print(f"== {record['workload']}  seed={record['seed']}  trace={record['trace']}  "
          f"seconds={record['seconds']:g}  commit={fp['commit'][:12]}  cores={fp['cores']}  "
          f"blas_threads={fp['blas_threads']}  python={fp['python']}  numpy={fp['numpy']}  "
          f"scipy={fp['scipy']}")
    print(f"   {'samples (ms)':14s} {'n':>4s} {'min':>9s} {'p10':>9s} {'p50':>9s} {'p90':>9s} {'mean':>9s}")
    for key, q in record["samples"].items():
        print(f"   {key:14s} {q['n']:4d} {q['min']:9.1f} {q['p10']:9.1f} {q['p50']:9.1f} "
              f"{q['p90']:9.1f} {q['mean']:9.1f}")
    for m, v in record["metrics"].items():
        print(f"   {m:36s} {v:16.6g} {spec['units'][m]}")
    print(f"   jobs: {record['failed']} failed of {record['attempted']} attempted "
          f"(fail_frac {record['failed'] / record['attempted']:g})")
    if "layer_table" in record:
        print(f"   spans written to {record['trace_file']}; self time by layer call:")
        print(f"   {'span':34s} {'calls':>6s} {'total_ms':>10s} {'self_ms':>10s}")
        for row in record["layer_table"]:
            print(f"   {row['name']:34s} {row['calls']:6d} {row['total_s'] * 1e3:10.2f} "
                  f"{row['self_s'] * 1e3:10.2f}")


# ----------------------------------------------------------------------
# --repeat / --compare: medians and quartile spreads over several runs
# ----------------------------------------------------------------------

def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def by_cell(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> the values of every untraced run, in order."""
    cells: dict[tuple[str, str], list[float]] = {}
    for rec in records:
        if rec.get("trace"):
            continue
        for m, v in rec["metrics"].items():
            cells.setdefault((rec["workload"], m), []).append(v)
    return cells


def print_spreads(spec: dict, records: list[dict]) -> None:
    print(f"\n{'workload':18s} {'metric':22s} {'n':>3s} {'median':>12s} {'unit':5s} "
          f"{'iqr/med':>8s} {'bound':>6s}  steady (< bound/3)")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for (wl, m), vals in by_cell(records).items():
        s = spread(vals)
        print(f"{wl:18s} {m:22s} {len(vals):3d} {statistics.median(vals):12.5g} "
              f"{spec['units'][m]:5s} {s:8.4f} {bounds[m]:6.2f}  "
              f"{'yes' if s < bounds[m] / 3 else 'NO'}")


def read_jsonl(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def compare(spec: dict, path_a: str, path_b: str) -> int:
    """Apply each end-to-end bound per (metric, workload): A is the base."""
    a, b = by_cell(read_jsonl(path_a)), by_cell(read_jsonl(path_b))
    print(f"base A = {path_a}\n     B = {path_b}")
    print(f"{'workload':18s} {'metric':22s} {'A median':>12s} {'B median':>12s} {'unit':5s} "
          f"{'B/A':>7s} {'worse by':>9s} {'iqr A':>7s} {'iqr B':>7s} {'bound':>6s}  verdict")
    regressed = 0
    for metric in spec["end_to_end"]:
        m, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        for wl in WORKLOADS:
            va, vb = a.get((wl, m)), b.get((wl, m))
            if not va or not vb:
                print(f"{wl:18s} {m:22s} missing from {'A' if not va else 'B'}")
                regressed += 1
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if lower else (ma - mb) / ma
            sa, sb = spread(va), spread(vb)
            b_all_better = (max(vb) < min(va)) if lower else (min(vb) > max(va))
            if max(sa, sb) > bound and not b_all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
                regressed += 1
            else:
                verdict = "ok"
            print(f"{wl:18s} {m:22s} {ma:12.5g} {mb:12.5g} {metric['unit']:5s} {mb / ma:7.3f} "
                  f"{worse:+9.3f} {sa:7.3f} {sb:7.3f} {bound:6.2f}  {verdict}")
    return 1 if regressed else 0


# ----------------------------------------------------------------------
# --smoke: the benchmark's self-test
# ----------------------------------------------------------------------

def smoke(spec: dict, seed: int) -> int:
    """Every declared metric is emitted, named, finite; exact counts repeat.

    The workloads run side by side (timings are not judged here), each
    once with minimum counts in a worker that emits both metric sets,
    plus a counts-only worker on the next seed.
    """
    t0 = time.monotonic()
    deadline = t0 + RUN_DEADLINE_S
    problems: list[str] = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    procs = {(wl, mode): WorkerProc(wl, seed + (mode == "counts"), 0.0, mode, smoke=True)
             for wl in WORKLOADS for mode in ("trace", "counts")}
    for wp in procs.values():
        wp.wait(deadline)
    checks = 0
    for wl in WORKLOADS:
        full, counts = procs[wl, "trace"], procs[wl, "counts"]
        hygiene = full.hygiene()
        counts.hygiene()
        res, res2 = full.result(), counts.result()
        if res is None or res2 is None:
            sys.stderr.write(full.err + counts.err)
            problems.append(f"{wl}: a worker exited without a result")
            continue
        if not res["correct"]:
            sys.stderr.write(full.err)
            problems.append(f"{wl}: outputs wrong ({res['failed']} of {res['attempted']} failed)")
        values = {**res["metrics"], **hygiene}
        for m in spec["end_to_end"] + spec["per_layer"]:
            checks += 1
            name = m["name"]
            if not NAME_RE.fullmatch(name) or not m["unit"]:
                problems.append(f"{wl}: metric {name!r} has a bad name or no unit")
            if name not in values:
                problems.append(f"{wl}: {name} not emitted")
            elif not math.isfinite(values[name]):
                problems.append(f"{wl}: {name} = {values[name]} is not finite")
        for name in EXACT:
            checks += 1
            if values.get(name) != res2["metrics"].get(name):
                problems.append(f"{wl}: exact count {name} differs across seeds: "
                                f"{values.get(name)} != {res2['metrics'].get(name)}")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print(f"smoke: {checks} checks on {len(WORKLOADS)} workloads in "
          f"{time.monotonic() - t0:.1f} s: {'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS), help="default: all three")
    ap.add_argument("--seed", type=int, default=0, help="seeds the input pool (and the CLI runs)")
    ap.add_argument("--seconds", type=float, help="timed seconds per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="1: traced run, per-layer metrics; 0: end-to-end metrics")
    ap.add_argument("--traced", action="store_const", const=1, dest="trace", help="same as --trace 1")
    ap.add_argument("--repeat", type=int, default=1, help="runs per workload, on seeds seed..seed+N-1")
    ap.add_argument("--out", type=Path, help="also append each run to this JSON-lines file")
    ap.add_argument("--smoke", action="store_true", help="self-test: names, units, finiteness, exact counts")
    ap.add_argument("--compare", nargs=2, metavar=("A.jsonl", "B.jsonl"),
                    help="judge B against base A with the declared bounds")
    args = ap.parse_args(argv)

    spec = load_spec()
    if args.compare:
        return compare(spec, *args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(spec, args.seed)

    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    names = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    for name in names:
        for seed in range(args.seed, args.seed + args.repeat):
            record = run_workload(spec, name, seed, seconds, bool(args.trace))
            if record is None:
                return 1
            print_record(spec, record)
            log_record(record, args.out)
            records.append(record)
    if args.repeat > 1 and not args.trace:
        print_spreads(spec, records)
    correct = all(r["correct"] for r in records)
    if len(records) == 1:
        print(contract_line(spec, records[0]))
    else:
        print(json.dumps({
            "correct": correct,
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {f"{r['workload']}/{r['seed']}": r["metrics"] for r in records},
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
