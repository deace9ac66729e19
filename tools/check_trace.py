#!/usr/bin/env python
"""Validate a Chrome trace-event JSON file (CI gate for `repro trace`).

Checks the structural contract Perfetto / chrome://tracing rely on:

* top level is an object with a nonempty ``traceEvents`` list;
* every event has ``ph``, ``pid``, ``tid``, and ``name``;
* every complete event (``ph == "X"``) has numeric ``ts >= 0`` and
  ``dur >= 0``;
* at least one complete event exists (a trace of pure metadata means
  the recorder saw no spans -- instrumentation regressed).

Usage: ``python tools/check_trace.py trace.json``.  Exits 0 when the
file is loadable, 1 with a diagnostic otherwise.
"""

from __future__ import annotations

import json
import sys


def check(path: str) -> list[str]:
    """All structural problems found in the trace file at ``path``."""
    try:
        with open(path) as fh:
            trace = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"cannot load {path}: {exc}"]
    problems: list[str] = []
    if not isinstance(trace, dict):
        return [f"top level must be an object, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents must be a nonempty list"]
    n_complete = 0
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        for key in ("ph", "pid", "tid", "name"):
            if key not in ev:
                problems.append(f"event {i}: missing {key!r}")
        if ev.get("ph") == "X":
            n_complete += 1
            for key in ("ts", "dur"):
                v = ev.get(key)
                if not isinstance(v, (int, float)) or v < 0:
                    problems.append(
                        f"event {i} ({ev.get('name')!r}): {key} must be a "
                        f"nonnegative number, got {v!r}"
                    )
        if len(problems) > 20:
            problems.append("... (more problems suppressed)")
            break
    if n_complete == 0:
        problems.append("no complete ('X') events: the trace recorded no spans")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: check_trace.py TRACE_JSON", file=sys.stderr)
        return 2
    problems = check(argv[1])
    if problems:
        for p in problems:
            print(f"check_trace: {p}", file=sys.stderr)
        return 1
    with open(argv[1]) as fh:
        n = len(json.load(fh)["traceEvents"])
    print(f"check_trace: {argv[1]} OK ({n} events)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
