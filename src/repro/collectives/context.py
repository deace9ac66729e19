"""Communication contexts: processor groups over a machine.

A :class:`CommContext` is an ordered group of machine ranks, analogous to
an MPI communicator.  Collectives operate on *group ranks* ``0..size-1``;
the context maps them to machine ranks.  Disjoint contexts can run
collectives "simultaneously" -- the per-processor clocks in the machine
make the cost accounting come out as a parallel schedule would (paper
Section 3's simultaneous grid-fiber collectives in Lemma 4).  The ranks
are validated once, here: the collectives charge their schedules on
the machine ranks without checking them again.

>>> from repro.machine import Machine
>>> ctx = CommContext(Machine(8), [2, 4, 6])   # a 3-rank subgroup
>>> ctx.size, ctx.global_rank(1), ctx.group_rank(6)
(3, 4, 2)
>>> CommContext.world(Machine(2)).ranks
[0, 1]

Paper anchor: Section 3 (processor groups executing collectives).
"""

from __future__ import annotations

from typing import Sequence

from repro.machine import Machine, MachineError


class CommContext:
    """An ordered subgroup of a machine's processors.

    Parameters
    ----------
    machine:
        The underlying simulated machine.
    ranks:
        Distinct machine ranks forming the group, in group-rank order.
        ``ranks[i]`` is the machine rank of group rank ``i``.
    """

    def __init__(self, machine: Machine, ranks: Sequence[int]) -> None:
        ranks = list(ranks)
        if not ranks:
            raise MachineError("CommContext requires a nonempty rank list")
        if len(set(ranks)) != len(ranks):
            raise MachineError(f"CommContext ranks must be distinct, got {ranks}")
        for r in ranks:
            if not (0 <= r < machine.P):
                raise MachineError(f"rank {r} out of range for machine with P={machine.P}")
        self.machine = machine
        self.ranks = ranks
        self._inv = {r: i for i, r in enumerate(ranks)}

    @classmethod
    def world(cls, machine: Machine) -> "CommContext":
        """The full-machine context (all ``P`` ranks in order)."""
        return cls(machine, range(machine.P))

    @property
    def size(self) -> int:
        return len(self.ranks)

    def global_rank(self, group_rank: int) -> int:
        """Machine rank of ``group_rank``."""
        return self.ranks[group_rank]

    def group_rank(self, machine_rank: int) -> int:
        """Group rank of a machine rank (KeyError if not a member)."""
        return self._inv[machine_rank]

    def subgroup(self, group_ranks: Sequence[int]) -> "CommContext":
        """Context over a subset of this group (indices are group ranks)."""
        return CommContext(self.machine, [self.ranks[i] for i in group_ranks])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CommContext(size={self.size}, ranks={self.ranks})"
