"""Execution plans: rank-tagged task streams recorded by a parallel machine.

A :class:`Plan` is the deferred half of a ``backend="parallel"`` run.
While the algorithm executes its (unchanged) control flow, the machine
meters costs eagerly -- clocks, words, messages, exactly as the serial
numeric backend does -- and every piece of *array arithmetic* is
appended here as a :class:`Task` instead of being computed.  A task is

* **rank-tagged**: the simulated processor whose program order it
  belongs to (``None`` for harness-side work such as buffer
  allocation), so the plan decomposes into per-rank task streams;
* **dataflow-linked**: its top-level arguments may be :class:`Ref`
  handles to earlier tasks' results, which are the DAG edges the
  executor honors (cross-rank edges additionally pass through a blocking
  :class:`~repro.collectives.rendezvous.Rendezvous` at run time).  A
  ``Ref`` never sits inside a container argument, so an edge is one
  argument position.

Tasks within one rank's stream execute in program order (the engine
walks each stream in recording order); tasks of different ranks run
concurrently whenever their dataflow allows -- which is the paper's DAG
semantics executed for real instead of simulated.

Recording notes the dataflow as it appends, in plain ints: each task's
:attr:`Task.refs` (the positions of its ``Ref`` arguments) and the
plan's **consumer map** (:attr:`Plan.consumers`, producer tid -> the
tids that read it, in tid order), which the plan compiler
(:mod:`repro.engine.compile`) reads once every consumer is known.  A
task that writes arguments in place says so in :attr:`Task.writes`;
whether a write may touch the producer's buffer is the compiler's
decision.  :meth:`repro.machine.Machine.barrier` records
nothing here: it joins the simulated clocks only.

A plan is plain data: a task's ``fn`` is a module-level function, a
``functools.partial`` of one, or a closure over constants -- never over
a lazy array, the plan or an engine -- so the only references between
tasks are ``Ref -> Task``, and a plan nobody holds is freed by
reference counting, without waiting for the cyclic garbage collector
(the consumer map holds tids, not tasks, for the same reason).

Input leaves (:meth:`Plan.add_input`) hold the distributed input blocks
and are the replay boundary: :meth:`Plan.rebind` swaps in a new job's
blocks and :meth:`Plan.reset` re-arms every task, so a stream of
same-shape QR jobs re-executes only the array kernels while skipping
all of the Python-side simulation (see :func:`repro.engine.run_many`).
A task with a *slot* keeps its value across the reset and writes its
next result into it (:func:`repro.engine.compile.assign_slots`).

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

    ``args`` may hold :class:`Ref` handles as top-level arguments (never
    inside a list, tuple or dict), at the positions ``refs`` lists; the
    executor resolves them to the producing tasks' values before calling
    ``fn``.  Input leaves have ``fn=None`` and carry their value
    directly.  ``writes`` is ``None`` unless the
    task writes arguments in place (:class:`Writes`).  ``fresh`` says
    the task's results (the outputs after any written arrays) are new
    arrays sharing memory with no argument and with each other -- the
    contract of every ``machine.kernel`` and of ``zeros`` / ``eye`` /
    ``copy``.  ``slot`` says a replay hands the task its last value to
    write into (:func:`repro.engine.compile.assign_slots`), so
    :meth:`Plan.reset` keeps that value.
    """

    __slots__ = (
        "tid", "rank", "label", "fn", "args", "refs",
        "value", "done", "is_input", "rendezvous", "writes", "fresh", "slot",
    )

    def __init__(
        self,
        tid: int,
        rank: int | None,
        label: str,
        fn: Callable[..., Any] | None,
        args: tuple,
        refs: tuple[int, ...] = (),
        writes: Writes | None = None,
        fresh: bool = False,
    ) -> None:
        self.tid = tid
        self.rank = rank
        self.label = label
        self.fn = fn
        self.args = args
        self.refs = refs
        self.value: Any = None
        self.done = False
        self.is_input = False
        #: Set by the executor, per attempt, when a consumer runs on
        #: another worker; the value handoff then goes through this
        #: blocking slot.
        self.rendezvous = None
        self.writes = writes
        self.fresh = fresh
        self.slot = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Task(t{self.tid}, rank={self.rank}, {self.label!r})"


#: The argument types a handle may not hide in.
CONTAINERS = (list, tuple, dict)


def _nests_handle(obj: Any) -> bool:
    """True when container ``obj`` holds a :class:`Ref` or a lazy array."""
    items = obj.values() if isinstance(obj, dict) else obj
    for item in items:
        if isinstance(item, Ref) or getattr(item, "_repro_lazy_", False):
            return True
        if isinstance(item, CONTAINERS) and _nests_handle(item):
            return True
    return False


def check_flat(label: str, arg: Any) -> None:
    """Raise :class:`EngineError` when container ``arg`` holds a handle."""
    if _nests_handle(arg):
        raise EngineError(
            f"task {label!r}: a Ref or lazy array inside a "
            f"{type(arg).__name__} argument; pass it as a top-level argument"
        )


def _scan_refs(args: tuple, label: str) -> tuple[int, ...]:
    """The positions of the :class:`Ref` arguments; rejects nested handles."""
    positions = []
    for i, a in enumerate(args):
        if type(a) is Ref:
            positions.append(i)
        elif isinstance(a, CONTAINERS):
            check_flat(label, a)
    return tuple(positions)


class Plan:
    """An append-only DAG of rank-tagged tasks plus its input leaves."""

    def __init__(self) -> None:
        self.tasks: list[Task] = []
        self.inputs: list[Task] = []
        #: The consumer map, kept by :meth:`add`: per producer tid, the
        #: tids of the tasks with a ``Ref`` to any of its outputs, each
        #: once, in tid order (``()`` while nothing reads it).  Ints, not
        #: tasks, so the map ties no task to a later one.
        self.consumers: list = []
        #: Consumer-map edges between two ranked tasks of different ranks.
        self.cross_rank_edges = 0
        #: One object per distinct ``refs`` tuple and :class:`Writes`
        #: (:meth:`writes`), shared by the tasks instead of one each.
        self._shared: dict = {}
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
        refs: tuple[int, ...] | None = None,
        writes: Writes | None = None,
        fresh: bool = False,
    ) -> Task:
        """Append a task computing ``fn(*args)`` on ``rank``'s stream.

        Dataflow edges are the :class:`Ref` handles among ``args``;
        program order within a rank is the order of its stream.
        ``rank=None`` is harness-side work (constants such as ``zeros``,
        joins).  ``refs`` are the positions of the ``Ref`` arguments
        when the caller already knows them (:func:`repro.engine.defer`
        does, from its own walk of the arguments); otherwise ``args``
        are scanned here, and a ``Ref`` or lazy array inside a list,
        tuple or dict argument raises :class:`EngineError`: spread it
        into top-level arguments.  Each edge is noted in
        :attr:`consumers` as the task is appended.  ``writes`` and
        ``fresh`` become the task's :attr:`Task.writes` /
        :attr:`Task.fresh`.
        """
        if refs is None:
            refs = _scan_refs(args, label)
        refs = self._shared.setdefault(refs, refs)  # one tuple per distinct value
        tasks = self.tasks
        tid = len(tasks)
        task = Task(tid, rank, label, fn, args, refs, writes, fresh)
        tasks.append(task)
        consumers = self.consumers
        consumers.append(())
        for i in refs:
            dep = args[i].task
            readers = consumers[dep.tid]
            if not readers:
                consumers[dep.tid] = [tid]
            elif readers[-1] != tid:  # one consumer counts once per producer
                readers.append(tid)
            else:
                continue
            if rank is not None and dep.rank is not None and dep.rank != rank:
                self.cross_rank_edges += 1
        return task

    def writes(self, updates: tuple[int, ...], fresh: tuple[int, ...], splat: bool) -> Writes:
        """The plan's one :class:`Writes` of these fields, shared by the
        tasks that write alike."""
        key = (updates, fresh, splat)
        writes = self._shared.get(key)
        if writes is None:
            writes = self._shared[key] = Writes(updates, fresh, splat)
        return writes

    def add_input(self, value: Any, label: str = "input") -> Task:
        """Append an input leaf holding ``value`` (the replay boundary)."""
        task = Task(len(self.tasks), None, label, None, ())
        task.value = value
        task.done = True
        task.is_input = True
        self.tasks.append(task)
        self.consumers.append(())
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
        """Re-arm every non-input task for re-execution (plan replay).

        A task with a :attr:`Task.slot` keeps its value: its next run
        writes into those buffers instead of allocating new ones.
        """
        for task in self.tasks:
            if not task.is_input:
                task.done = False
                if not task.slot:
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
