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

Recording keeps no dataflow state: :meth:`Plan.add` appends and
returns, and who reads what is analysed once, by the plan compiler's
consumer map (:mod:`repro.engine.compile`), when every consumer is
known.  A task that writes arguments in place says so in
:attr:`Task.writes`; whether a write may touch the producer's buffer is
the compiler's decision.  :meth:`repro.machine.Machine.barrier` records
nothing here: it joins the simulated clocks only.

Input leaves (:meth:`Plan.add_input`) hold the distributed input blocks
and are the replay boundary: :meth:`Plan.rebind` swaps in a new job's
blocks and :meth:`Plan.reset` re-arms every task, so a stream of
same-shape QR jobs re-executes only the array kernels while skipping
all of the Python-side simulation (see :func:`repro.engine.run_many`).

Paper anchor: Section 3 (the execution DAG of tasks and happens-before
edges).
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Sequence

__all__ = ["EngineError", "Plan", "Ref", "Task", "Writes"]


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


class Writes(NamedTuple):
    """What an ``updates=`` task knows about its writes at record time.

    ``updates`` are the positions in ``args`` (each a bare :class:`Ref`)
    of the arrays ``fn`` writes; ``fresh`` the subset whose array was
    allocated for its holder (``zeros`` / ``eye`` / ``copy`` / a kernel
    result / a previous write) rather than made by an operator or handed
    over by a transfer;
    ``splat`` says ``fn`` returns a tuple of outputs.  The task's value
    is ``(*written arrays, *outputs)``.
    """

    updates: tuple[int, ...]
    fresh: tuple[int, ...]
    splat: bool


class Task:
    """One deferred unit of work: ``value = fn(*resolved_args)``.

    ``args`` may contain :class:`Ref` handles (also nested inside
    lists/tuples/dicts); the executor resolves them to the producing
    tasks' values before calling ``fn``.  Input leaves have ``fn=None``
    and carry their value directly.  ``writes`` is ``None`` unless the
    task writes arguments in place (:class:`Writes`).  ``fresh`` says
    the task's results (the outputs after any written arrays) are new
    arrays sharing memory with no argument and with each other -- the
    contract of every ``machine.kernel`` and of ``zeros`` / ``eye`` /
    ``copy``.
    """

    __slots__ = (
        "tid", "rank", "label", "fn", "args",
        "value", "done", "is_input", "rendezvous", "writes", "fresh",
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
        self.writes: Writes | None = None
        self.fresh = False

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
        #: Flops the recording machine metered for these tasks (set by
        #: :meth:`repro.machine.Machine.materialize`); ``None`` for a
        #: plan built by hand.  The compiler reports the grain from it.
        self.flops: float | None = None

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
        within a rank is the order of its stream.  ``rank=None`` is
        harness-side work (constants such as ``zeros``, joins).
        """
        task = Task(len(self.tasks), rank, label, fn, args)
        self.tasks.append(task)
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
