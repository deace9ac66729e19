"""One least-recently-used map under a byte budget, shared by threads.

The process pays for each shape's work once and reuses it (paper
Section 8.4) at three layers, and each keeps its entries in a
:class:`Memo`:

* the plan cache, :data:`repro.engine.batch._PLAN_CACHE`, under
  ``PLAN_CACHE_BYTES`` (256 MiB): the task values of each built plan,
  counted once, when the plan is admitted after its first execute;
* the schedule memo, :data:`repro.collectives.schedule.schedule_memo`,
  under ``SCHEDULE_MEMO_BYTES`` (8 MiB): every tuple and number a
  collective schedule keeps alive, counted when it is built;
* the route memo, :data:`repro.matmul.mm3d.route_memo`, under
  ``ROUTE_MEMO_BYTES`` (32 MiB): what an ``mm3d`` route keeps alive,
  including the index vectors kernels expand after it was stored, so
  its size is re-read whenever the memo totals its entries.

A ``put`` trims the least recently used *other* entries until the total
fits :attr:`Memo.budget`, so a memo holds at most its budget plus the
entry just put.  What to build on a miss, how to count it and what to
do with an evicted entry stay with the owner.

>>> memo = Memo(budget=10)
>>> memo.put("a", "A", 4), memo.put("b", "B", 4)
([], [])
>>> memo.get("a")
'A'
>>> memo.put("c", "C", 4)          # "b" is now the least recently used
[('b', 'B')]
>>> memo.keys(), memo.nbytes()
(['a', 'c'], 8)
>>> memo.put("d", "D", 99)         # over budget on its own: kept alone
[('a', 'A'), ('c', 'C')]
>>> memo.get("b") is None, len(memo)
(True, 1)

Paper anchor: Section 8.4 (tuning and re-running across problem shapes).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

__all__ = ["Memo"]


def _size(nbytes: int | Callable[[], int]) -> int:
    return nbytes() if callable(nbytes) else nbytes


class Memo:
    """An LRU map from keys to values whose counted bytes stay within ``budget``.

    Every method takes the memo's lock, so threads may share one memo.
    """

    def __init__(self, budget: int) -> None:
        #: Bytes the entries may count together, besides the newest.
        self.budget = budget
        #: key -> (value, bytes or a callable returning them), least recent first.
        self._entries: OrderedDict[Hashable, tuple[Any, int | Callable[[], int]]] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Any:
        """The value under ``key``, now the most recently used; ``None`` if absent."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: Hashable, value: Any, nbytes: int | Callable[[], int]) -> list[tuple]:
        """Store ``value`` under ``key`` as the most recently used entry.

        ``nbytes`` is what the entry counts: an int, or a callable
        returning its bytes now, for a value that keeps growing after it
        is stored (re-read whenever the memo totals its entries).  The
        least recently used other entries are dropped until the total
        fits the budget; returns them as ``(key, value)`` pairs, least
        recent first.
        """
        evicted = []
        with self._lock:
            self._entries[key] = (value, nbytes)
            self._entries.move_to_end(key)
            total = self._total()
            while total > self.budget and len(self._entries) > 1:
                old, (victim, size) = self._entries.popitem(last=False)
                total -= _size(size)
                evicted.append((old, victim))
        return evicted

    def _total(self) -> int:
        return sum(_size(size) for _, size in self._entries.values())

    def nbytes(self) -> int:
        """Bytes the entries held now count."""
        with self._lock:
            return self._total()

    def keys(self) -> list:
        """The keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def entries(self) -> list:
        """The values, least recently used first."""
        with self._lock:
            return [value for value, _ in self._entries.values()]

    def clear(self) -> list[tuple]:
        """Drop every entry; returns them as ``(key, value)`` pairs, least recent first."""
        with self._lock:
            dropped = [(key, value) for key, (value, _) in self._entries.items()]
            self._entries.clear()
        return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
