"""Blocking rendezvous primitives for genuinely concurrent collectives.

When the parallel engine (:mod:`repro.engine`) executes a plan on real
threads, every cross-rank value handoff inside a collective -- a tree
edge of a binomial scatter/gather/broadcast/reduce, a pairwise leg of a
bidirectional exchange, a routed bundle of an all-to-all -- goes through
one of these primitives instead of plain shared memory:

* :class:`Rendezvous` -- a one-shot single-producer slot.  The producer
  :meth:`~Rendezvous.put`\\ s exactly once; any number of consumers
  :meth:`~Rendezvous.get` the value, blocking until it is published.
  This is the send/recv pair of the machine model made physical.
* :class:`RendezvousGroup` -- a one-shot fan-out slot with a *declared*
  consumer set: the broadcast-along-a-grid-row / reduce-along-a-grid-
  column edges of the 2D block-cyclic algorithms (paper Section 8.1),
  where one panel task's value is taken by every processor of a grid
  row.  Each consumer takes independently; a starving take names the
  consumer in its timeout, and an undeclared taker is a protocol error.

Both carry a *timeout*: a consumer that would wait forever (a cycle, a
lost producer, a crashed worker) raises :class:`RendezvousTimeout`
instead of deadlocking, which is what the engine's no-deadlock guard
tests exercise for every collective.

Both are also *abortable*: when the engine learns a producer will never
publish (its task raised, a rank was killed by fault injection, the
plan deadlocked elsewhere), it poisons the slot with
:meth:`~Rendezvous.abort` and every blocked or future consumer raises
:class:`RendezvousAborted` immediately -- milliseconds instead of the
full timeout -- with the real cause chained as ``__cause__``.

>>> rv = Rendezvous()
>>> rv.put(41 + 1)
>>> rv.get(timeout=1.0)
42
>>> fan = RendezvousGroup([1, 2], label="panel_T")
>>> fan.put("T")
>>> fan.take(1, timeout=1.0), fan.take(2, timeout=1.0)
('T', 'T')
>>> poisoned = Rendezvous("dead_edge")
>>> poisoned.abort(RuntimeError("rank 3 died"))
True
>>> poisoned.get(timeout=1.0)
Traceback (most recent call last):
    ...
repro.collectives.rendezvous.RendezvousAborted: rendezvous 'dead_edge' aborted before publish: RuntimeError('rank 3 died')

Paper anchor: Section 3 (send/receive happens-before edges), Appendix A
(the collectives these rendezvous synchronize at execution time);
Section 8.1 (the grid-row fan-out patterns of the 2D baselines).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Iterable

__all__ = [
    "Rendezvous",
    "RendezvousAborted",
    "RendezvousError",
    "RendezvousGroup",
    "RendezvousTimeout",
    "abort_release_message",
    "starvation_message",
]

#: Default seconds a consumer waits before declaring a deadlock.
DEFAULT_TIMEOUT = 120.0


# ----------------------------------------------------------------------
# Shared diagnostic protocol (thread and process executors)
# ----------------------------------------------------------------------
# The thread engine's RendezvousGroup and the multiprocessing engine's
# inbox handoffs (repro.engine.mp) enforce the same contract -- one-shot
# publish, abort poisons with the first cause, starvation names the
# starved party -- so their error text comes from one formatter.  A
# deadlock report must carry four facts to be actionable: who starved
# (consumer rank), on what (producer task), for how long, and *where*
# (executor flavor and OS pid -- a thread pool shares the driver's pid,
# a worker-process pool does not).

def starvation_message(
    label: str, consumer: int | None, elapsed: float, producer: str,
    flavor: str = "thread", pid: int | None = None,
) -> str:
    """The canonical :class:`RendezvousTimeout` text for a starved take."""
    pid = os.getpid() if pid is None else pid
    return (
        f"rendezvous group {label!r}: consumer rank {consumer} "
        f"starved for {elapsed:.2f}s waiting on producer task "
        f"{producer!r} (never published; possible deadlock) "
        f"[executor={flavor} pid={pid}]"
    )


def abort_release_message(
    label: str, consumer: int | None, producer: str, cause: BaseException | None,
    flavor: str = "thread", pid: int | None = None,
) -> str:
    """The canonical :class:`RendezvousAborted` text for a poisoned take."""
    pid = os.getpid() if pid is None else pid
    return (
        f"rendezvous group {label!r}: consumer rank {consumer} "
        f"released; producer task {producer!r} aborted "
        f"({cause!r}) [executor={flavor} pid={pid}]"
    )


class RendezvousError(RuntimeError):
    """A rendezvous protocol violation (e.g. two puts into one slot)."""


class RendezvousTimeout(RendezvousError):
    """A blocking wait exceeded its timeout (deadlock guard tripped)."""


class RendezvousAborted(RendezvousError):
    """The slot was poisoned: its producer will never publish.

    Raised by :meth:`Rendezvous.get` / :meth:`RendezvousGroup.take` the
    moment a consumer touches an aborted slot (blocked consumers wake
    immediately).  The original failure -- the exception the engine
    aborted the plan with -- is chained as ``__cause__``.
    """


class Rendezvous:
    """One-shot single-producer, multi-consumer value slot.

    The producing task publishes its value once with :meth:`put`; every
    consumer that depends on it across a rank boundary blocks in
    :meth:`get` until the value is available.  The slot never resets --
    a second ``put`` is a protocol violation and raises.

    A slot whose producer is known to be lost is *poisoned* with
    :meth:`abort`: consumers (blocked or future) raise
    :class:`RendezvousAborted` immediately with the cause chained, and a
    late ``put`` from a producer that lost the race is dropped.
    """

    __slots__ = ("_event", "_value", "_label", "_poison")

    def __init__(self, label: str = "") -> None:
        self._event = threading.Event()
        self._value: Any = None
        self._label = label
        self._poison: BaseException | None = None

    @property
    def ready(self) -> bool:
        """True once the producer has published (and the slot is healthy)."""
        return self._event.is_set() and self._poison is None

    @property
    def aborted(self) -> bool:
        """True once the slot has been poisoned by :meth:`abort`."""
        return self._poison is not None

    def put(self, value: Any) -> None:
        """Publish ``value`` and wake every waiting consumer.

        A put into an aborted slot is dropped silently: the abort won,
        and the value is undeliverable (its consumers are failing with
        the abort cause).  The producing task still completes normally,
        so its value remains readable through the plan on a retry.
        """
        if self._poison is not None:
            return
        if self._event.is_set():
            raise RendezvousError(
                f"rendezvous {self._label!r} received a second put"
            )
        self._value = value
        self._event.set()

    def abort(self, exc: BaseException) -> bool:
        """Poison the slot: consumers raise immediately, chaining ``exc``.

        Idempotent (the first cause wins) and a no-op when the producer
        already published -- consumers of a ready slot are unaffected.
        Returns True when this call poisoned the slot.
        """
        if self._event.is_set():
            return False  # published (healthy) or already poisoned
        self._poison = exc
        self._event.set()
        return True

    def get(self, timeout: float = DEFAULT_TIMEOUT) -> Any:
        """Block until the value is published, then return it.

        Raises :class:`RendezvousTimeout` after ``timeout`` seconds --
        the engine's guard against a send that never happens -- or
        :class:`RendezvousAborted` (immediately, cause chained) when the
        slot was poisoned via :meth:`abort`.
        """
        if not self._event.wait(timeout):
            raise RendezvousTimeout(
                f"rendezvous {self._label!r} timed out after {timeout}s "
                "(sender never published; possible deadlock)"
            )
        if self._poison is not None:
            raise RendezvousAborted(
                f"rendezvous {self._label!r} aborted before publish: "
                f"{self._poison!r}"
            ) from self._poison
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "aborted" if self.aborted else ("ready" if self.ready else "pending")
        return f"Rendezvous({self._label!r}, {state})"


class RendezvousGroup:
    """One-producer fan-out slot over a declared set of consumer ranks.

    The 2D block-cyclic algorithms broadcast a panel's reflectors and
    kernel row-wise and reduce trailing-update contributions
    column-wise, so one produced value is consumed by *several* ranks
    of a grid row or column.  The engine wires each such producer to a
    ``RendezvousGroup`` naming the consuming ranks: every consumer
    :meth:`take`\\ s the value independently (blocking until the single
    :meth:`put`), an undeclared taker is a protocol violation, and a
    timeout names the starved consumer -- the same deadlock guard
    discipline as :class:`Rendezvous`, with fan-out observability.
    """

    __slots__ = ("_rv", "consumers", "_label", "producer", "flavor")

    def __init__(
        self, consumers: Iterable[int], label: str = "", producer: str = "",
        flavor: str = "thread",
    ) -> None:
        self.consumers = frozenset(int(c) for c in consumers)
        if not self.consumers:
            raise RendezvousError(
                f"RendezvousGroup {label!r} requires at least one consumer"
            )
        self._rv = Rendezvous(label)
        self._label = label
        #: Human-readable description of the producing task (the engine
        #: passes ``"t<tid>:<label> (rank <r>)"``) -- named in timeout
        #: errors so a deadlock report says *what* never published.
        self.producer = producer or label
        #: Executor flavor named in timeout/abort diagnostics ("thread"
        #: for the in-process engine; the mp engine's process-side
        #: handoffs report "process" through the same formatters).
        self.flavor = flavor

    @property
    def ready(self) -> bool:
        """True once the producer has published."""
        return self._rv.ready

    @property
    def aborted(self) -> bool:
        """True once the slot has been poisoned by :meth:`abort`."""
        return self._rv.aborted

    def put(self, value: Any) -> None:
        """Publish ``value`` once; wakes every waiting consumer."""
        self._rv.put(value)

    def abort(self, exc: BaseException) -> bool:
        """Poison the fan-out slot (see :meth:`Rendezvous.abort`)."""
        return self._rv.abort(exc)

    def take(self, consumer: int, timeout: float = DEFAULT_TIMEOUT) -> Any:
        """Block until published, then return the value for ``consumer``.

        Raises :class:`RendezvousError` for an undeclared consumer,
        :class:`RendezvousTimeout` on starvation -- naming the starved
        consumer rank, the producing task, the elapsed wait, and the
        executor flavor + worker pid, so a deadlock report is
        actionable without re-running under a debugger -- and
        :class:`RendezvousAborted` (immediately, cause chained) when
        the producer was lost and the slot poisoned.
        """
        if consumer not in self.consumers:
            raise RendezvousError(
                f"rank {consumer} is not a declared consumer of rendezvous "
                f"group {self._label!r} (declared: {sorted(self.consumers)})"
            )
        start = time.perf_counter()
        try:
            return self._rv.get(timeout)
        except RendezvousAborted as exc:
            raise RendezvousAborted(
                abort_release_message(
                    self._label, consumer, self.producer, exc.__cause__,
                    flavor=self.flavor,
                )
            ) from exc.__cause__
        except RendezvousTimeout:
            elapsed = time.perf_counter() - start
            raise RendezvousTimeout(
                starvation_message(
                    self._label, consumer, elapsed, self.producer,
                    flavor=self.flavor,
                )
            ) from None

    def get(self, timeout: float = DEFAULT_TIMEOUT, consumer: int | None = None) -> Any:
        """:class:`Rendezvous`-compatible accessor (optionally checked)."""
        if consumer is not None:
            return self.take(consumer, timeout)
        return self._rv.get(timeout)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "ready" if self.ready else "pending"
        return (
            f"RendezvousGroup({self._label!r}, {state}, "
            f"consumers={sorted(self.consumers)})"
        )
