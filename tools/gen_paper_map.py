#!/usr/bin/env python
"""Generate (or verify) ``docs/paper_map.md``: paper anchor -> code -> proof.

Each ``src/repro`` module declares the paper anchor it implements in a
``Paper anchor:`` docstring line (enforced by
``tools/check_docstrings.py``).  This script joins those anchors with
the table below -- which test file certifies each module and which
benchmark id from EXPERIMENTS.md exercises it -- into one
cross-reference table.

Usage, from the repo root::

    python tools/gen_paper_map.py           # rewrite docs/paper_map.md
    python tools/gen_paper_map.py --check   # verify it is current (CI)

``--check`` fails when: the committed file differs from regeneration,
a module exists without a row (or a row without a module), an anchor
line is missing, a referenced test file does not exist, or a benchmark
id is not in EXPERIMENTS.md's inventory.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
OUT = REPO / "docs" / "paper_map.md"

#: module (relative to src/) -> (test files, benchmark ids).  Anchors come
#: from the module docstrings; this table only records where each module
#: is *certified*: "--" means covered indirectly (infrastructure modules
#: are exercised by every algorithm test above them).
MODULE_MAP: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "repro/__init__.py": (("tests/test_integration.py",), ()),
    "repro/__main__.py": (("tests/test_cli.py",), ()),
    "repro/cli.py": (("tests/test_cli.py",), ()),
    "repro/analysis/__init__.py": (("tests/test_analysis.py",), ()),
    "repro/analysis/constraints.py": (("tests/test_constraints.py",), ("F2",)),
    "repro/analysis/fitting.py": (("tests/test_analysis.py",), ("F3", "F4")),
    "repro/analysis/lower_bounds.py": (("tests/test_analysis.py",), ("F5",)),
    "repro/analysis/tables.py": (("tests/test_analysis.py",), ("T2", "T3")),
    "repro/analysis/theorems.py": (("tests/test_analysis.py",), ("F3", "F4", "P1")),
    "repro/analysis/tradeoff.py": (("tests/test_analysis.py",), ("F1", "F2", "F6")),
    "repro/backend/__init__.py": (("tests/test_symbolic.py",), ()),
    "repro/backend/lapack.py": (
        ("tests/test_householder.py", "tests/test_tsqr.py"), ("K1",)),
    "repro/backend/ops.py": (
        ("tests/test_backend_equivalence.py",), ("K1",)),
    "repro/backend/registry.py": (
        ("tests/test_registry.py", "tests/test_engine.py"), ("E1",)),
    "repro/backend/symbolic.py": (
        ("tests/test_symbolic.py", "tests/test_backend_equivalence.py"), ("F4b",)),
    "repro/collectives/__init__.py": (("tests/test_collectives.py",), ("T1",)),
    "repro/collectives/alltoall.py": (
        ("tests/test_collectives.py", "tests/test_collective_costs.py",
         "tests/test_mm3d_route.py"), ("T1", "A1")),
    "repro/collectives/bidirectional.py": (
        ("tests/test_collectives.py", "tests/test_collective_costs.py"), ("T1", "A2")),
    "repro/collectives/binomial.py": (
        ("tests/test_collectives.py", "tests/test_collective_costs.py"), ("T1", "A2")),
    "repro/collectives/bounds.py": (("tests/test_collective_costs.py",), ("T1",)),
    "repro/collectives/context.py": (("tests/test_collectives.py",), ()),
    "repro/collectives/schedule.py": (
        ("tests/test_collective_oracle.py", "tests/test_collective_schedule.py"), ("T1", "A2")),
    "repro/collectives/dispatch.py": (("tests/test_collectives.py",), ("A2",)),
    "repro/collectives/rendezvous.py": (
        ("tests/test_engine.py", "tests/test_faults.py"), ("E1", "E4")),
    "repro/dist/__init__.py": (("tests/test_dist.py",), ()),
    "repro/engine/__init__.py": (("tests/test_engine.py",), ("E1",)),
    "repro/engine/batch.py": (("tests/test_engine.py",), ("E1",)),
    "repro/engine/compile.py": (
        ("tests/test_compile.py", "tests/test_write_rule.py",
         "tests/test_property_based.py"), ("E1",)),
    "repro/engine/executor.py": (
        ("tests/test_engine.py", "tests/test_compile.py", "tests/test_faults.py"),
        ("E1", "E4")),
    "repro/engine/lazy.py": (("tests/test_engine.py",), ("E1",)),
    "repro/engine/mp.py": (
        ("tests/test_mp_backend.py", "tests/test_property_based.py"), ("E5",)),
    "repro/faults/__init__.py": (("tests/test_faults.py",), ("E4",)),
    "repro/faults/coded.py": (("tests/test_faults.py",), ("E4",)),
    "repro/faults/inject.py": (("tests/test_faults.py",), ("E4",)),
    "repro/faults/policy.py": (("tests/test_faults.py",), ("E4",)),
    "repro/engine/plan.py": (("tests/test_engine.py",), ("E1",)),
    "repro/dist/blockcyclic.py": (("tests/test_dist.py",), ("T2",)),
    "repro/dist/distmatrix.py": (
        ("tests/test_dist.py", "tests/test_failure_modes.py"), ()),
    "repro/dist/layouts.py": (("tests/test_dist.py",), ()),
    "repro/dist/redistribute.py": (
        ("tests/test_dist.py", "tests/test_cost_contracts.py"), ("A1",)),
    "repro/machine/__init__.py": (("tests/test_machine.py",), ()),
    "repro/machine/clocks.py": (("tests/test_machine.py",), ()),
    "repro/machine/cost_model.py": (
        ("tests/test_machine.py", "tests/test_cost_contracts.py"), ("F6",)),
    "repro/machine/exceptions.py": (("tests/test_failure_modes.py",), ()),
    "repro/machine/machine.py": (
        ("tests/test_machine.py", "tests/test_cost_contracts.py"), ()),
    "repro/machine/tracing.py": (("tests/test_end_to_end_tracing.py",), ()),
    "repro/matmul/__init__.py": (("tests/test_matmul.py",), ()),
    "repro/matmul/costs.py": (("tests/test_matmul.py",), ()),
    "repro/matmul/grid.py": (("tests/test_matmul.py",), ("A4",)),
    "repro/matmul/local.py": (("tests/test_matmul.py",), ()),
    "repro/matmul/mm1d.py": (
        ("tests/test_matmul.py", "tests/test_cost_contracts.py"), ()),
    "repro/matmul/mm3d.py": (
        ("tests/test_matmul.py", "tests/test_cost_contracts.py",
         "tests/test_mm3d_route.py"), ("A4",)),
    "repro/matmul/operands.py": (
        ("tests/test_matmul.py", "tests/test_mm3d_route.py"), ()),
    "repro/planner/__init__.py": (("tests/test_planner.py",), ("P1",)),
    "repro/planner/candidates.py": (("tests/test_planner.py",), ("P1",)),
    "repro/planner/measure.py": (("tests/test_planner.py",), ("P1",)),
    "repro/planner/plan.py": (
        ("tests/test_planner.py", "tests/test_cli.py"), ("P1",)),
    "repro/planner/pruning.py": (("tests/test_planner.py",), ("P1",)),
    "repro/qr/__init__.py": (("tests/test_integration.py",), ()),
    "repro/telemetry/__init__.py": (("tests/test_telemetry.py",), ("E3",)),
    "repro/telemetry/recorder.py": (("tests/test_telemetry.py",), ("E3",)),
    "repro/telemetry/export.py": (("tests/test_telemetry.py",), ("E3",)),
    "repro/telemetry/drift.py": (("tests/test_telemetry.py",), ("E3",)),
    "repro/qr/applyq.py": (
        ("tests/test_extensions.py", "tests/test_cost_contracts.py",
         "tests/test_qr_eg_template.py"), ()),
    "repro/qr/baselines/__init__.py": (("tests/test_baselines.py",), ()),
    "repro/qr/baselines/caqr2d.py": (("tests/test_baselines.py",), ("T2",)),
    "repro/qr/baselines/house1d.py": (
        ("tests/test_baselines.py", "tests/test_panel_kernels.py"), ("T3",)),
    "repro/qr/baselines/house2d.py": (
        ("tests/test_baselines.py", "tests/test_panel_kernels.py"), ("T2",)),
    "repro/qr/baselines/panel2d.py": (
        ("tests/test_baselines.py", "tests/test_panel_kernels.py"), ()),
    "repro/qr/caqr1d.py": (
        ("tests/test_caqr1d.py", "tests/test_cost_contracts.py"),
        ("T3", "F1", "F3", "A3")),
    "repro/qr/caqr3d.py": (
        ("tests/test_caqr3d.py", "tests/test_cost_contracts.py"),
        ("T2", "F2", "F4", "F4b")),
    "repro/qr/householder.py": (("tests/test_householder.py",), ("K1",)),
    "repro/qr/params.py": (("tests/test_qreg_params.py",), ("A3",)),
    "repro/qr/qreg.py": (
        ("tests/test_qreg_params.py", "tests/test_qr_eg_template.py"), ("A5",)),
    "repro/qr/qreg_iter.py": (("tests/test_qreg_params.py",), ("A5",)),
    "repro/qr/tsqr.py": (
        ("tests/test_tsqr.py", "tests/test_cost_contracts.py"), ("T3", "F6")),
    "repro/qr/validate.py": (
        ("tests/test_property_based.py", "tests/test_workloads.py"), ()),
    "repro/qr/wide.py": (
        ("tests/test_extensions.py", "tests/test_property_extensions.py"), ()),
    "repro/util/__init__.py": (("tests/test_util.py",), ()),
    "repro/util/memo.py": (("tests/test_memo.py",), ()),
    "repro/util/partition.py": (("tests/test_util.py",), ()),
    "repro/workloads/__init__.py": (("tests/test_workloads.py",), ()),
    "repro/workloads/matrices.py": (("tests/test_workloads.py",), ()),
    "repro/workloads/sweeps.py": (
        ("tests/test_workloads.py", "tests/test_backend_equivalence.py"), ("F6", "P1")),
}

HEADER = """\
# Paper-to-code map

One row per library module: the paper anchor it implements (from its
module docstring's `Paper anchor:` line), the test file(s) that certify
it, and the benchmark id(s) from [EXPERIMENTS.md](../EXPERIMENTS.md)
that exercise it at evaluation scale.  `--` means the module is
infrastructure certified indirectly by every algorithm test above it.

**Generated by `python tools/gen_paper_map.py`; verified in CI by
`python tools/gen_paper_map.py --check`.  Edit the module docstrings
(anchors) or the script's `MODULE_MAP` (tests/benchmarks), not this
file.**

| paper anchor | module | tests | benchmarks |
|---|---|---|---|
"""


def anchor_of(module_rel: str) -> str | None:
    """The docstring's ``Paper anchor:`` payload, or None.

    The payload may wrap over several docstring lines; continuation
    lines (up to a blank line or the docstring end) are joined with
    single spaces so the rendered table never truncates mid-phrase.
    """
    doc = ast.get_docstring(ast.parse((SRC / module_rel).read_text()))
    if not doc:
        return None
    m = re.search(
        r"^Paper anchor:\s*(.+?)(?=\n\s*\n|\Z)", doc, flags=re.MULTILINE | re.DOTALL
    )
    if not m:
        return None
    return " ".join(m.group(1).split()).rstrip(".")


def generate() -> tuple[str, list[str]]:
    """Render the table; return (markdown, problems)."""
    problems: list[str] = []
    existing = {str(p.relative_to(SRC)) for p in SRC.rglob("*.py")}
    for mod in sorted(existing - set(MODULE_MAP)):
        problems.append(f"module missing from MODULE_MAP: src/{mod}")
    for mod in sorted(set(MODULE_MAP) - existing):
        problems.append(f"MODULE_MAP row for nonexistent module: src/{mod}")

    bench_ids = set(re.findall(
        r"^\|\s*([A-Z]\d+b?)\s*\|", (REPO / "EXPERIMENTS.md").read_text(),
        flags=re.MULTILINE))
    lines = [HEADER]
    for mod in sorted(MODULE_MAP):
        if mod not in existing:
            continue
        tests, benches = MODULE_MAP[mod]
        anchor = anchor_of(mod)
        if anchor is None:
            problems.append(f"src/{mod}: no 'Paper anchor:' docstring line")
            anchor = "(missing)"
        for t in tests:
            if not (REPO / t).exists():
                problems.append(f"src/{mod}: referenced test {t} does not exist")
        for b in benches:
            if b not in bench_ids:
                problems.append(
                    f"src/{mod}: benchmark id {b!r} not in EXPERIMENTS.md inventory")
        test_cell = "<br>".join(f"`{t}`" for t in tests) or "--"
        bench_cell = ", ".join(benches) or "--"
        lines.append(f"| {anchor} | `src/{mod}` | {test_cell} | {bench_cell} |\n")
    return "".join(lines), problems


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    check = "--check" in args
    text, problems = generate()
    if problems:
        print("paper map FAILED:")
        for p in problems:
            print(f"  {p}")
        return 1
    if check:
        if not OUT.exists() or OUT.read_text() != text:
            print(f"paper map FAILED: {OUT.relative_to(REPO)} is stale; "
                  "regenerate with `python tools/gen_paper_map.py`")
            return 1
        print(f"paper map check passed ({len(MODULE_MAP)} modules)")
        return 0
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(text)
    print(f"wrote {OUT.relative_to(REPO)} ({len(MODULE_MAP)} modules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
