"""Execution plans: rank-tagged task streams recorded by a parallel machine.

A :class:`Plan` is the deferred half of a ``backend="parallel"`` run.
While the algorithm executes its (unchanged) control flow, the machine
meters costs eagerly -- clocks, words, messages, exactly as the serial
numeric backend does -- and every piece of *array arithmetic* is
appended here as a :class:`Task` instead of being computed.  A task is

* **rank-tagged**: the simulated processor whose program order it
  belongs to (``None`` for harness-side work such as buffer
  allocation), so the plan decomposes into per-rank task streams;
* **dataflow-linked**: its arguments may contain :class:`Ref` handles
  to earlier tasks' results, which are the DAG edges the executor
  honors (cross-rank edges additionally pass through a blocking
  :class:`~repro.collectives.rendezvous.Rendezvous` at run time).

Tasks within one rank's stream execute in program order (the engine
walks each stream in recording order); tasks of different ranks run
concurrently whenever their dataflow allows -- which is the paper's DAG
semantics executed for real instead of simulated.

Input leaves (:meth:`Plan.add_input`) hold the distributed input blocks
and are the replay boundary: :meth:`Plan.rebind` swaps in a new job's
blocks and :meth:`Plan.reset` re-arms every task, so a stream of
same-shape QR jobs re-executes only the array kernels while skipping
all of the Python-side simulation (see :func:`repro.engine.run_many`).

Paper anchor: Section 3 (the execution DAG of tasks and happens-before
edges).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

__all__ = ["EngineError", "Plan", "Ref", "Task"]


class EngineError(RuntimeError):
    """An error in building or executing an execution plan."""


class Ref:
    """A handle to one output of an earlier task, used inside task args.

    ``index`` selects an element of a multi-output task's result tuple;
    ``None`` takes the whole result.
    """

    __slots__ = ("task", "index")

    def __init__(self, task: "Task", index: int | None = None) -> None:
        self.task = task
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sel = "" if self.index is None else f"[{self.index}]"
        return f"Ref(t{self.task.tid}{sel})"


class Task:
    """One deferred unit of work: ``value = fn(*resolved_args)``.

    ``args`` may contain :class:`Ref` handles (also nested inside
    lists/tuples/dicts); the executor resolves them to the producing
    tasks' values before calling ``fn``.  Input leaves have ``fn=None``
    and carry their value directly.
    """

    __slots__ = (
        "tid", "rank", "label", "fn", "args",
        "value", "done", "is_input", "rendezvous",
    )

    def __init__(
        self,
        tid: int,
        rank: int | None,
        label: str,
        fn: Callable[..., Any] | None,
        args: tuple,
    ) -> None:
        self.tid = tid
        self.rank = rank
        self.label = label
        self.fn = fn
        self.args = args
        self.value: Any = None
        self.done = False
        self.is_input = False
        #: Set by the executor, per attempt, when a consumer runs on
        #: another worker; the value handoff then goes through this
        #: blocking slot.
        self.rendezvous = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Task(t{self.tid}, rank={self.rank}, {self.label!r})"


def _scan_refs(obj: Any, out: list[Task]) -> None:
    """Collect the producing tasks of every :class:`Ref` inside ``obj``."""
    if isinstance(obj, Ref):
        out.append(obj.task)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _scan_refs(item, out)
    elif isinstance(obj, dict):
        for item in obj.values():
            _scan_refs(item, out)


class Plan:
    """An append-only DAG of rank-tagged tasks plus its input leaves."""

    def __init__(self) -> None:
        self.tasks: list[Task] = []
        self.inputs: list[Task] = []
        #: Last task of each rank's stream (program-order chaining).
        self._tails: dict[int, Task] = {}
        #: Tasks no later task depends on yet (for barrier joins).
        self._frontier: dict[int, Task] = {}
        #: Pending barrier join every subsequent task must follow.
        self._barrier_task: Task | None = None

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def add(
        self,
        fn: Callable[..., Any],
        args: tuple = (),
        rank: int | None = None,
        label: str = "",
    ) -> Task:
        """Append a task computing ``fn(*args)`` on ``rank``'s stream.

        Dataflow edges are the :class:`Ref` handles inside ``args``,
        which the plan compiler reads off the arguments; program order
        within a rank is the order of its stream.  The tasks this one
        follows -- its producers, its rank's previous task, the most
        recent barrier -- leave the frontier, which is what
        ``LazyArray``'s exclusive-buffer rule consults.
        """
        deps: list[Task] = []
        _scan_refs(args, deps)
        prev = self._tails.get(rank) if rank is not None else None
        if prev is not None and prev not in deps:
            deps.append(prev)
        if self._barrier_task is not None and self._barrier_task not in deps:
            deps.append(self._barrier_task)
        task = Task(len(self.tasks), rank, label, fn, args)
        self.tasks.append(task)
        if rank is not None:
            self._tails[rank] = task
        for d in deps:
            self._frontier.pop(d.tid, None)
        self._frontier[task.tid] = task
        return task

    def add_input(self, value: Any, label: str = "input") -> Task:
        """Append an input leaf holding ``value`` (the replay boundary)."""
        task = Task(len(self.tasks), None, label, None, ())
        task.value = value
        task.done = True
        task.is_input = True
        self.tasks.append(task)
        self.inputs.append(task)
        return task

    def add_constant(
        self, fn: Callable[..., Any], args: tuple = (), label: str = "const"
    ) -> Task:
        """Append a dependency-free constant-producing task (e.g. zeros)."""
        task = Task(len(self.tasks), None, label, fn, args)
        self.tasks.append(task)
        self._frontier[task.tid] = task
        return task

    def barrier(self) -> Task | None:
        """Record a phase boundary: every later task follows this one.

        Mirrors :meth:`repro.machine.Machine.barrier`'s clock join at
        the recording level: the frontier collapses to the barrier, so
        no buffer produced before it counts as exclusively held
        afterwards.  Execution needs no join -- values cross the
        boundary as ordinary dataflow.  Returns the barrier task
        (``None`` when the plan is empty).
        """
        if not self._frontier:
            return None
        task = Task(len(self.tasks), None, "barrier", lambda *_: None, ())
        self.tasks.append(task)
        self._frontier = {task.tid: task}
        self._barrier_task = task
        self._tails = {}
        return task

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def rebind(self, values: Sequence[Any]) -> None:
        """Swap new values into the input leaves (same count and shapes)."""
        if len(values) != len(self.inputs):
            raise EngineError(
                f"rebind got {len(values)} values for {len(self.inputs)} input leaves"
            )
        for leaf, value in zip(self.inputs, values):
            old = leaf.value
            if getattr(old, "shape", None) != getattr(value, "shape", None):
                raise EngineError(
                    f"rebind shape mismatch on leaf t{leaf.tid}: "
                    f"{getattr(value, 'shape', None)} != {getattr(old, 'shape', None)}"
                )
            leaf.value = value

    def reset(self) -> None:
        """Re-arm every non-input task for re-execution (plan replay)."""
        for task in self.tasks:
            if not task.is_input:
                task.done = False
                task.value = None
                task.rendezvous = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of tasks not yet executed."""
        return sum(1 for t in self.tasks if not t.done)

    def stats(self) -> dict[str, int]:
        """Task counts for reports: total / inputs / per-rank streams."""
        ranks = {t.rank for t in self.tasks if t.rank is not None}
        return {
            "tasks": len(self.tasks),
            "inputs": len(self.inputs),
            "streams": len(ranks),
            "pending": self.pending,
        }

    def __len__(self) -> int:
        return len(self.tasks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return f"Plan(tasks={s['tasks']}, streams={s['streams']}, inputs={s['inputs']})"
