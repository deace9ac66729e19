"""Shared helpers for the benchmark suite.

Each benchmark regenerates one table or figure of the paper (see
DESIGN.md section 4).  Results are written twice:

* ``benchmarks/results/<name>.txt`` -- the formatted table EXPERIMENTS.md
  cites verbatim;
* ``benchmarks/results/<name>.json`` -- the same result machine-readable
  (pass ``rows=``/``data=`` to :func:`save_table`, or call
  :func:`save_json` directly).

These benches report the paper's deterministic counts (plus the three
root ``BENCH_{kernels,planner,theorem1_symbolic}.json`` files written
through :func:`save_root_bench`).  Engine wall-clock is not measured
here: the repo benchmark (``BENCHMARK.json``, ``benchmarks/e2e``) is
the one source of performance numbers.
"""

from __future__ import annotations

import json
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).parent.parent


def save_table(name: str, text: str, rows: list | None = None, data: dict | None = None) -> None:
    """Persist a formatted result table and echo it.

    ``rows`` (a list of flat dicts) and/or ``data`` (an arbitrary
    JSON-serializable dict) additionally produce
    ``results/<name>.json``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")
    if rows is not None or data is not None:
        payload: dict = {"name": name}
        if rows is not None:
            payload["rows"] = rows
        if data is not None:
            payload.update(data)
        save_json(name, payload)


def save_json(name: str, payload: dict) -> None:
    """Persist a machine-readable result as ``results/<name>.json``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n")
    print(f"[saved to {path}]")


def save_root_bench(name: str, payload: dict) -> None:
    """Write a ``BENCH_<name>.json`` perf-trajectory file at the repo root."""
    path = REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n")
    print(f"[saved to {path}]")

