"""Golden cost pin: absolute metering of every algorithm, bit for bit.

``tests/data/golden_costs.json`` holds every ``CostReport`` field and
``words_by_label`` of each QR algorithm (and the harness extensions) at
one small shape -- numeric, symbolic, and numeric under the non-unit
``cluster`` profile -- plus the end-to-end benchmark's three shapes and
their symbolic siblings and the checksum-coded tsqr / caqr1d runs (with
the recoveries a faulted one spent), recorded before the collectives charged
memoized schedules (floats as ``float.hex``).  ``test_backend_equivalence``
only compares backends with each other, so a change both make together
(they share the machine's charge loop) shows up here and nowhere else.

Re-record with ``tools/record_golden_costs.py`` only when a change is
meant to move the metering.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = json.loads((REPO / "tests" / "data" / "golden_costs.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "record_golden_costs", REPO / "tools" / "record_golden_costs.py"
)
recorder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(recorder)

CASES = {recorder.case_id(*c): c for c in recorder.cases()}


def test_every_recorded_case_is_still_run():
    assert sorted(CASES) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(CASES))
def test_metering_matches_the_golden_pin(name):
    assert recorder.measure(*CASES[name]) == GOLDEN[name]
