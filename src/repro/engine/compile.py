"""Plan compiler: pin ranks to workers, decide in-place writes, pre-resolve args.

An executor that interpreted a recorded :class:`~repro.engine.plan.Plan`
directly would pay ``Ref`` resolution (an isinstance chain per argument)
on every task and a blocking rendezvous on every cross-rank edge.  So
no engine interprets a plan: both execute the schedule compiled here.

:func:`compile_plan` runs **once** between recording and execution (every
replay reuses it).  It reads the engine's one dataflow analysis -- the
**consumer map**, producer tid -> the tids of the tasks that read any of
its outputs -- which recording already kept
(:attr:`Plan.consumers <repro.engine.plan.Plan.consumers>`, filled by
:meth:`Plan.add <repro.engine.plan.Plan.add>` as each task is appended,
along with the task's ``Ref`` positions and the plan's cross-rank edge
count), and derives the rest from it:

1. **Worker-affinity scheduling** -- rank ``r``'s stream is owned by
   worker ``r % W`` (the partition :mod:`repro.engine.mp` already uses),
   and each worker's lane is the flat list of its owned tasks in tid
   order.  Every task's dependencies have lower tids, so a blocked
   worker always waits on a worker that is strictly ahead of it in tid
   space: a wait cycle would need each participant to sit *below*
   another's block point, a contradiction -- the schedule is
   deadlock-free by construction.  A cross-rank edge whose producer and
   consumer land on the **same worker** becomes a plain ``task.value``
   read (program order within the worker's walk); only genuinely
   cross-worker edges keep a rendezvous slot (:class:`Publisher`).
   A **one-lane** compile skips everything that only sorts out
   cross-lane edges: every task is the lane's, there is no publisher,
   and every cross-rank edge is elided, so it walks no edge outside the
   write rule below.
2. **The write rule** -- an ``updates=`` task ``W`` (``lazy[idx] =
   value`` is one) is handed the producer's own buffer at position
   ``i`` **iff** (a) the array there is *fresh* (allocated for its
   holder: ``zeros`` / ``eye`` / ``copy`` / a kernel result / a previous
   write), (b) its producer is not an input leaf, (c) **every other
   reader of that output has run before** ``W`` -- it is a
   fresh-result task (a ``machine.kernel``: its results alias nothing,
   so nothing it hands on can see the write) owned by ``W``'s worker,
   with a lower tid -- and (d) the producer is not already ``done``
   when the schedule is compiled (a done value may have escaped to the
   caller through ``resolve``).
   Readers are tracked per output: reading another output of a
   multi-output kernel is no conflict, since results alias each other
   no more than their arguments.  Every other position is copied first
   (:attr:`CompiledPlan.copies`); the map sees consumers recorded
   *after* the writer, which no record-time test can.  Sound because a
   lane walks its tasks in tid order, so a same-worker reader with a
   lower tid has finished before ``W`` starts.
3. **Argument pre-resolution** -- a task's ``Ref`` handles are always
   top-level arguments (:meth:`Plan.add <repro.engine.plan.Plan.add>`
   rejects a nested one) at the positions recording noted
   (:attr:`Task.refs <repro.engine.plan.Task.refs>`), so binding
   visits only those positions of each task, never its constants, into
   one :class:`BoundTask` record of plain data: the recorded
   ``args`` tuple and one ``(position, producer, index)`` triple per
   ``Ref`` -- in ``reads`` when the lane reads ``producer.value``
   straight off the task, in ``fetches`` when the value comes through
   the lane's fetch (a remote producer, an mp input leaf).  The
   per-execution hot path is :meth:`BoundTask.run` with the lane's
   fetch passed in at call time: no dict lookups, no isinstance chains
   and no closure, so a binding holds no reference to its engine.  An
   ``updates=`` task copies its compiled :attr:`CompiledPlan.copies`
   positions into the argument list that call builds.

After a plan's first execute, :func:`assign_slots` gives a task a
**slot** -- a replay hands it its own last value to write into, so a
warm job allocates (and page-faults in) almost nothing -- where that
value is a buffer the task owns and nothing outside the plan can hold:
a fresh-result kernel that takes ``out=``
(:func:`repro.machine.takes_out`) or the write rule's copies of an
``updates=`` task, unless one of its arrays shares a base buffer with
the outputs the caller resolves (the escape rule).  Every reader of a
task's last value ran in the last execute, before the replay writes it.

None of this changes a computed value.  The compiled artifact is
engine-agnostic: the thread :class:`~repro.engine.executor.Engine`
runs bound streams with an in-process rendezvous fetch, and
:class:`~repro.engine.mp.MpEngine`'s forked workers bind the same
streams with ``replicate_rankless=True`` and run them with an
inbox-queue fetch.

Paper anchor: Section 3 (the execution DAG; compilation only places
its tasks on lanes, never changes its dataflow); Section 8.4
(amortizing one plan -- one *compiled* plan -- over a stream of jobs).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.engine.plan import Plan, Ref, Task

__all__ = ["REPLICATED", "BoundTask", "CompiledPlan", "Publisher", "assign_slots",
           "bind_stream", "buffers", "compile_plan", "grain", "rearm"]

#: Owner sentinel for rankless tasks replicated in every worker (the
#: multiprocessing engine's convention; threads single-own them instead).
REPLICATED = -1


@dataclass(slots=True)
class Publisher:
    """A cross-worker producer and the consumer ranks it must serve.

    The thread engine wires one
    :class:`~repro.collectives.rendezvous.RendezvousGroup` per publisher
    (declaring ``consumers`` so starvation diagnostics name ranks); the
    mp engine sends the value to ``dest_workers`` inbox queues instead.
    ``consumers`` uses ``-1`` for rankless consumers, which take the
    slot unchecked (their ``consumer=None`` get bypasses declaration).
    """

    task: Task
    consumers: frozenset
    dest_workers: frozenset


@dataclass(slots=True)
class CompiledPlan:
    """The once-per-plan schedule: ownership, lanes, edges, copies, statistics.

    Pure data -- binding it to an engine (that engine's fetch
    primitives) happens per worker in :func:`bind_stream`.
    """

    workers: int
    n_tasks: int
    #: tid -> worker index, REPLICATED, or None (input leaves).
    owner: list
    #: Per-worker list of :class:`~repro.engine.plan.Task` in tid order.
    streams: list
    #: Cross-worker producers (:class:`Publisher` per producer).
    publishers: list
    #: ``updates=`` task tid -> the ``updates`` positions it copies
    #: before writing (the rest are written in the producer's buffer).
    copies: dict
    stats: dict


def _reads(reader: Task, ref: Ref) -> bool:
    """True when ``reader`` holds a :class:`Ref` to the output ``ref`` names.

    An index of ``None`` (a whole value) on either side overlaps all.
    """
    args = reader.args
    for i in reader.refs:
        a = args[i]
        if a.task is ref.task and (a.index is None or ref.index is None or a.index == ref.index):
            return True
    return False


def _in_place(task: Task, plan: Plan, owner: list) -> set[int]:
    """The ``updates`` positions ``task`` writes in the producer's buffer.

    Condition (c), per reader of the output: it does not read that
    output at all, or it is a fresh-result task that ``task``'s lane
    runs first (same owner, lower tid).  A reader that *writes* the
    output is no exception: only a version's last reader may write it in
    place, so an earlier one copied, and what it hands on aliases
    nothing either.
    """
    tasks, consumers = plan.tasks, plan.consumers
    tid = task.tid
    lane = owner[tid]
    out = set()
    for i in task.writes.fresh:
        ref = task.args[i]
        dep = ref.task
        if dep.is_input or dep.done:
            continue
        for r in consumers[dep.tid]:
            if r == tid:
                continue
            reader = tasks[r]
            if reader.fresh and r < tid and owner[r] == lane:
                continue  # ran before the write
            if _reads(reader, ref):
                break
        else:
            out.add(i)
    return out


def rearm(plan: Plan, tasks: Iterable[Task]) -> None:
    """Re-arm ``tasks`` for re-execution, with the buffers others wrote.

    A task cannot simply run again on a producer whose buffer a done
    task wrote in place: the producer holds the *written* buffer (a
    writer re-run would apply its write twice; an earlier reader would
    read the new value).  So every such producer a re-armed task reads
    is re-armed with it, transitively.  What was written in place is
    read off the executed values -- a written array that *is* its
    producer's value went in place (:attr:`CompiledPlan.copies` as the
    engine bound it) -- so the answer holds whichever compile of a
    growing plan ran the writer.
    """
    written: set[int] = set()
    for t in plan.tasks:
        if t.done and t.writes is not None:
            for k, i in enumerate(t.writes.updates):
                ref = t.args[i]
                dep = ref.task
                if not dep.done:
                    continue
                held = dep.value if ref.index is None else dep.value[ref.index]
                if t.value[k] is held:
                    written.add(dep.tid)
    todo = list(tasks)
    while todo:
        task = todo.pop()
        deps = (task.args[i].task for i in task.refs)
        todo.extend(dep for dep in deps if dep.done and dep.tid in written)
        task.done = False
        task.value = None
        task.rendezvous = None


def _assign_owners(plan: Plan, W: int, replicate_rankless: bool) -> list:
    """tid -> owner worker (REPLICATED for mp-style rankless tasks).

    Ranked tasks go to ``rank % W``.  In thread mode a rankless task is
    single-owned by its first consumer's worker (resolved in reverse tid
    order -- consumers always have higher tids), defaulting to worker 0,
    so it runs exactly once and ``Engine.tasks_run`` counts each
    recorded task once.  On one lane every owner is that lane.
    """
    tasks = plan.tasks
    if W == 1:
        rankless = REPLICATED if replicate_rankless else 0
        return [
            None if t.is_input else (rankless if t.rank is None else 0) for t in tasks
        ]
    owner: list = [None] * len(tasks)
    unowned = []
    for task in tasks:
        if task.is_input:
            continue
        if task.rank is not None:
            owner[task.tid] = task.rank % W
        elif replicate_rankless:
            owner[task.tid] = REPLICATED
        else:
            unowned.append(task.tid)
    consumers = plan.consumers
    for tid in reversed(unowned):
        readers = consumers[tid]
        o = owner[readers[0]] if readers else 0
        owner[tid] = 0 if o is None else o
    return owner


def grain(plan: Plan) -> float | None:
    """The plan's metered flops per recorded (non-input) task.

    ``None`` when the plan carries no metered flops (one built by hand)
    or has no task.  The thread engine picks a plan's lanes from it, and
    :func:`compile_plan` reports it as ``stats["flops_per_task"]``.
    """
    tasks = len(plan.tasks) - len(plan.inputs)
    return plan.flops / tasks if plan.flops is not None and tasks else None


def _publishers(plan: Plan, W: int, owner: list) -> tuple[list, int]:
    """The cross-worker producers, and the cross-rank edges kept on one worker.

    Walks the consumer map once; a one-lane plan has neither publishers
    nor any edge it does not elide, so :func:`compile_plan` skips this.
    """
    tasks = plan.tasks
    everyone = frozenset(range(W))
    elided = 0
    pubs: dict[int, tuple[set[int], set[int]]] = {}  # tid -> (ranks, workers)
    for dep_tid, readers in enumerate(plan.consumers):
        if not readers:
            continue
        dep = tasks[dep_tid]
        d_owner = owner[dep_tid]
        if dep.is_input or d_owner == REPLICATED:
            continue  # leaves and replicated values are everywhere-local
        for c in readers:
            consumer = tasks[c]
            c_owner = owner[c]
            if c_owner == d_owner:
                if (dep.rank is not None and consumer.rank is not None
                        and dep.rank != consumer.rank):
                    elided += 1
                continue
            ranks, dests = pubs.setdefault(dep_tid, (set(), set()))
            ranks.add(-1 if consumer.rank is None else consumer.rank)
            if c_owner == REPLICATED:
                dests.update(everyone - {d_owner})
            else:
                dests.add(c_owner)
    publishers = [
        Publisher(tasks[tid], frozenset(ranks), frozenset(dests))
        for tid, (ranks, dests) in sorted(pubs.items())
    ]
    return publishers, elided


def compile_plan(plan: Plan, workers: int, replicate_rankless: bool = False) -> CompiledPlan:
    """Compile ``plan`` for ``workers`` execution lanes.

    Deterministic and pure: compiling the same plan with the same
    arguments yields the same schedule in every process (the mp workers
    each compile post-fork and agree without communicating).

    ``replicate_rankless`` selects the mp ownership convention (rankless
    tasks run in every worker, so their values never cross a process
    boundary); thread engines leave it off and single-own them.

    Reads the consumer map and the cross-rank edge count that recording
    kept (:attr:`Plan.consumers <repro.engine.plan.Plan.consumers>`).
    One lane owns every task and elides every cross-rank edge, so a
    one-lane compile walks no edge outside the write rule.
    """
    W = max(1, int(workers))
    tasks = plan.tasks
    owner = _assign_owners(plan, W, replicate_rankless)

    # Streams: each worker's owned (or replicated) tasks in tid order.
    if W == 1:
        streams = [[t for t in tasks if not t.is_input]]
    else:
        streams = [[] for _ in range(W)]
        for task in tasks:
            o = owner[task.tid]
            if o is None:
                continue
            if o == REPLICATED:
                for lane in streams:
                    lane.append(task)
            else:
                streams[o].append(task)

    # The write rule: (a) from the record, (b) and (d) from the producer,
    # (c) from the consumer map and the lanes.
    copies: dict[int, tuple[int, ...]] = {}
    in_place = 0
    for task in tasks:
        if task.writes is not None:
            inplace = _in_place(task, plan, owner)
            in_place += len(inplace)
            copies[task.tid] = tuple(i for i in task.writes.updates if i not in inplace)

    cross_rank = plan.cross_rank_edges
    if W == 1:
        publishers, elided = [], cross_rank
    else:
        publishers, elided = _publishers(plan, W, owner)

    stats = {
        "workers": W,
        "tasks": len(tasks) - len(plan.inputs),
        "flops_per_task": grain(plan),
        # One step per lane entry (a replicated task counts once a lane).
        "steps": sum(len(lane) for lane in streams),
        "cross_rank_edges": cross_rank,
        "rendezvous_edges": len(publishers),
        "elided_edges": elided,
        "writes_in_place": in_place,
        "writes_copied": sum(len(c) for c in copies.values()),
    }
    return CompiledPlan(W, len(tasks), owner, streams, publishers, copies, stats)


# ----------------------------------------------------------------------
# Binding: one record per task, read at call time
# ----------------------------------------------------------------------

class BoundTask:
    """A task bound to one lane: ``run(fetch)`` computes its value.

    Plain data: ``args`` is the recorded argument tuple; ``reads`` holds
    one ``(position, producer, index)`` per :class:`Ref` this lane reads
    straight off ``producer.value``, ``fetches`` one per Ref whose value
    comes through the lane's ``fetch(producer, consumer)`` -- a remote
    producer, or an input leaf in an mp worker.  ``reads is None`` marks
    a task with no Ref argument.  ``copies`` is ``None`` unless the task
    writes in place (:attr:`CompiledPlan.copies` of its tid).
    """

    __slots__ = ("task", "fn", "args", "reads", "fetches", "copies")

    def __init__(self, task: Task, reads: tuple | None, fetches: tuple,
                 copies: tuple | None) -> None:
        self.task = task
        self.fn = task.fn
        self.args = task.args
        self.reads = reads
        self.fetches = fetches
        self.copies = copies

    def run(self, fetch: Callable[[Task, Task], Any]) -> Any:
        """Compute the task's value, reading its arguments now.

        Producer values are read at call time, so one binding serves
        every replay of the plan.
        """
        reads = self.reads
        if reads is None:
            return self.fn(*self.args)
        vals = list(self.args)
        for i, dep, sel in reads:
            vals[i] = dep.value if sel is None else dep.value[sel]
        for i, dep, sel in self.fetches:
            value = fetch(dep, self.task)
            vals[i] = value if sel is None else value[sel]
        if self.copies is None:
            return self.fn(*vals)
        return _run_updating(self.fn, self.task, self.copies, vals)


def _run_updating(fn, task, copies, vals):
    """Run an ``updates=`` task: copy shared targets, run, re-emit.

    ``vals`` is the argument list :meth:`BoundTask.run` built; the
    copies go into it -- into the task's last written arrays when it has
    a slot.  The task's value is ``(*written arrays, *outputs)``; the
    written arrays are the new values of the lazy arguments ``defer``
    rebound.  A kernel that only writes (it returns ``None``) has no
    outputs.
    """
    writes = task.writes
    last = task.value if task.slot else None
    for i in copies:
        src = vals[i]
        buf = None if last is None else last[writes.updates.index(i)]
        if buf is not None and _same_k_layout(buf, src):
            np.copyto(buf, src)
            vals[i] = buf
        else:
            # order="K": the kernel sees the memory order it would have
            # been handed in place (a column-major buffer stays so).
            vals[i] = src.copy(order="K")
    out = fn(*vals)
    written = tuple(vals[i] for i in writes.updates)
    if out is None:
        return written
    return written + (tuple(out) if writes.splat else (out,))


def _same_k_layout(buf: np.ndarray, src: np.ndarray) -> bool:
    """True when ``buf`` has the strides ``src.copy(order="K")`` would get.

    For one- and two-dimensional arrays: a K copy is C-ordered unless
    ``src`` is F-contiguous or strides farther along its second axis.
    """
    if buf.shape != src.shape or buf.dtype != src.dtype or src.ndim not in (1, 2):
        return False
    size = buf.itemsize
    if src.ndim == 1:
        return buf.strides == (size,)
    rows, cols = src.shape
    fortran = not src.flags.c_contiguous and (
        src.flags.f_contiguous or abs(src.strides[0]) < abs(src.strides[1])
    )
    return buf.strides == ((size, rows * size) if fortran else (cols * size, size))


def buffers(value: Any) -> Iterator[np.ndarray]:
    """The base buffer of each array in a task value (an array or a tuple)."""
    for a in value if isinstance(value, tuple) else (value,):
        if isinstance(a, np.ndarray):
            while isinstance(a.base, np.ndarray):
                a = a.base
            yield a


def _takes_out(fn: Any) -> bool:
    while isinstance(fn, partial):
        fn = fn.func
    return getattr(fn, "takes_out", False)


def _into_slot(fn: Callable[..., Any], task: Task, *args: Any) -> Any:
    """``fn(*args)`` writing into ``task``'s last value: a slotted kernel."""
    return fn(*args, out=task.value)


def assign_slots(
    plan: Plan, cplan: CompiledPlan, lanes: list[list[BoundTask]], outputs: Iterable[int]
) -> list[Task]:
    """Give the tasks of an executed plan their slots; return the slotted tasks.

    Called once per compiled plan, after an execute that ran all of it.
    A task gets a slot (:attr:`Task.slot <repro.engine.plan.Task>`, kept
    by :meth:`Plan.reset <repro.engine.plan.Plan.reset>`) when

    (a) it is a fresh-result task whose kernel takes ``out=``
        (:func:`repro.machine.takes_out`), which its binding in ``lanes``
        is then handed, or an ``updates=`` task the write rule copies
        for (``cplan.copies``), whose copies go into its last ones; and
    (b) none of its arrays shares a base buffer with the values of
        ``outputs``, the tids the caller resolves: those arrays have
        escaped the plan, and a replay must not write them.
    """
    tasks = plan.tasks
    escaped = {id(b) for tid in outputs for b in buffers(tasks[tid].value)}
    copies = cplan.copies
    slotted = []
    for task in tasks:
        if task.writes is None:
            if not task.fresh or task.is_input or not _takes_out(task.fn):
                continue
        elif not copies[task.tid]:
            continue
        if task.value is None or any(id(b) in escaped for b in buffers(task.value)):
            continue
        task.slot = True
        slotted.append(task)
    for lane in lanes:
        for bt in lane:
            if bt.task.slot and bt.copies is None:
                bt.fn = partial(_into_slot, bt.fn, bt.task)
    return slotted


def bind_stream(cplan: CompiledPlan, widx: int, fetch_inputs: bool = False) -> list[BoundTask]:
    """Bind worker ``widx``'s stream: one :class:`BoundTask` per task.

    Each :class:`Ref` argument -- at the positions recording noted in
    :attr:`Task.refs <repro.engine.plan.Task.refs>` -- becomes a
    ``reads`` triple when this lane can read the producer's value
    directly, else a ``fetches`` triple for the fetch the lane passes to
    :meth:`BoundTask.run`.  An input leaf is read directly unless
    ``fetch_inputs`` (an mp worker reads its leaves from shared memory;
    a thread lane reads ``leaf.value`` at call time, so ``Plan.rebind``
    is honored on replays); a task is when this lane owns it or every
    lane runs it, as on a thread engine's one lane.  Both read producer
    values at *call* time, so one binding is reused across every replay
    of the plan.
    """
    owner = cplan.owner
    copies = cplan.copies
    one_lane = cplan.workers == 1 and not fetch_inputs
    bound = []
    for t in cplan.streams[widx]:
        refs = t.refs
        if not refs:
            bound.append(BoundTask(t, None, (), None))
            continue
        args = t.args
        if one_lane:
            direct = []
            for i in refs:
                a = args[i]
                direct.append((i, a.task, a.index))
            reads, fetches = tuple(direct), ()
        else:
            direct = []
            fetched = []
            for i in refs:
                a = args[i]
                dep = a.task
                if dep.is_input:
                    local = not fetch_inputs
                else:
                    o = owner[dep.tid]
                    local = o == widx or o == REPLICATED
                (direct if local else fetched).append((i, dep, a.index))
            reads, fetches = tuple(direct), tuple(fetched)
        bound.append(BoundTask(
            t, reads, fetches, copies[t.tid] if t.writes is not None else None,
        ))
    return bound
