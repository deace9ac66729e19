"""Recording stays lean: a tripwire on what recording leaves behind.

Recording a plan on an engine machine appends one task per kernel and
notes its dataflow as it goes (each task's ``Ref`` positions, the
plan's consumer map).  The GC-tracked objects a recording leaves alive
per recorded task -- tasks, argument tuples, ``Ref``s, the consumer
lists, the callers' kernel partials -- are capped here for the
``grid2d-percolumn`` and ``squarish3d`` plans.  Objects per task are
also work per task: each is allocated while recording and scanned by
the cyclic collector until it is old.  The count is process-wide, so
CI also runs this file on its own.
"""

import gc

import pytest

from repro.machine import Machine
from repro.workloads import drive, gaussian

# (alg, m, n, knobs) on P = 8 -> (the recorded task count, the cap on
# GC-tracked objects left per recorded task).  Caps measured at 5.46 and
# 5.81 when the consumer map moved into recording; before it, the same
# plans left 5.29 and 6.32 (no consumer lists, but a ``Writes`` and its
# ``fresh`` tuple per write and a function, a cell and a closure tuple
# per getitem / reshape).  The counts are pinned so a cap is read over
# the plan it was set on (caqr3d recorded 2022 tasks before tsqr's
# ``vstack``s and root ``getitem``s went into its kernels).
CAPS = {
    ("house2d", 384, 96, ()): (3819, 5.5),
    ("caqr3d", 1024, 256, (("delta", 0.5),)): (1959, 5.9),
}


def _record(alg, A, knobs):
    machine = Machine(8, backend="parallel", workers=2)
    factors = drive(alg, machine, A, dict(knobs), validate=False)
    return machine, factors


@pytest.mark.parametrize("alg,m,n,knobs", list(CAPS), ids=str)
def test_recording_leaves_few_gc_objects_per_task(alg, m, n, knobs):
    A = gaussian(m, n, seed=0)
    _record(alg, A, knobs)  # warm the process-global memos (schedules, routes)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        machine, factors = _record(alg, A, knobs)
        made = len(gc.get_objects()) - before
    finally:
        gc.enable()
    tasks = len(machine.plan.tasks)
    pinned, cap = CAPS[alg, m, n, knobs]
    assert tasks == pinned
    per_task = made / tasks
    assert per_task <= cap, f"{per_task:.2f} GC-tracked objects per task"
