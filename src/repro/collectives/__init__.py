"""Collective communication on the simulated machine (paper Section 3, App. A).

Eight collectives over :class:`CommContext` processor groups, in three
algorithm families:

* binomial trees (:mod:`~repro.collectives.binomial`):
  scatter, gather, broadcast, reduce, all-reduce;
* bidirectional exchange (:mod:`~repro.collectives.bidirectional`):
  reduce-scatter, all-gather, and large-block broadcast / reduce /
  all-reduce built from them;
* index all-to-all (:mod:`~repro.collectives.alltoall`): the radix-2
  algorithm of [BHK+97] and the two-phase balanced variant of [HBJ96].

A collective is a schedule: the binomial and bidirectional ones are
built once per ``(size, root)`` and memoized
(:mod:`~repro.collectives.schedule`), and a call prices the schedule's
messages off its payloads' word counts and has the machine charge it
in one loop (:meth:`~repro.machine.Machine.charge`); the all-to-alls
derive their rounds from the blocks' ``(source, destination, size)``
vectors and charge them the same way.
:mod:`~repro.collectives.dispatch` auto-selects the cheaper variant per
Table 1; :mod:`~repro.collectives.bounds` holds the Table 1 formulas;
:mod:`~repro.collectives.rendezvous` provides the blocking
synchronization primitives the parallel engine uses to execute these
collectives on real threads.

>>> import numpy as np
>>> from repro.machine import Machine
>>> machine = Machine(4)
>>> ctx = CommContext.world(machine)
>>> got = gather(ctx, 0, [np.full(2, float(p)) for p in range(4)])
>>> [g.tolist() for g in got]
[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]
>>> int(machine.report().critical_messages)   # binomial-tree gather
4

Paper anchor: Section 3, Table 1, Appendix A.
"""

from repro.collectives.alltoall import (
    all_to_all_blocks,
    all_to_all_index,
    all_to_all_two_phase,
)
from repro.collectives.bidirectional import (
    all_gather,
    all_reduce_bidirectional,
    broadcast_bidirectional,
    reduce_bidirectional,
    reduce_scatter,
)
from repro.collectives.binomial import (
    all_reduce_binomial,
    broadcast_binomial,
    gather,
    reduce_binomial,
    scatter,
)
from repro.collectives.bounds import TABLE1
from repro.collectives.context import CommContext
from repro.collectives.dispatch import all_reduce, broadcast, reduce

__all__ = [
    "TABLE1",
    "CommContext",
    "all_gather",
    "all_reduce",
    "all_reduce_bidirectional",
    "all_reduce_binomial",
    "all_to_all_blocks",
    "all_to_all_index",
    "all_to_all_two_phase",
    "broadcast",
    "broadcast_bidirectional",
    "broadcast_binomial",
    "gather",
    "reduce",
    "reduce_bidirectional",
    "reduce_binomial",
    "reduce_scatter",
    "scatter",
]
