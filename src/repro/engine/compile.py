"""Plan compiler: pin ranks to workers, decide in-place writes, pre-resolve args.

An executor that interpreted a recorded :class:`~repro.engine.plan.Plan`
directly would pay ``Ref`` resolution (an isinstance chain per argument)
on every task and a blocking rendezvous on every cross-rank edge.  So
no engine interprets a plan: both execute the schedule compiled here.

:func:`compile_plan` runs **once** between recording and execution (every
replay reuses it).  It builds the engine's one dataflow analysis -- the
**consumer map**, producer tid -> the tasks that read any of its
outputs -- and derives the rest from it:

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
   rejects a nested one), so binding walks each task's arguments once
   into one :class:`BoundTask` record of plain data: the recorded
   ``args`` tuple and one ``(position, producer, index)`` triple per
   ``Ref`` -- in ``reads`` when the lane reads ``producer.value``
   straight off the task, in ``fetches`` when the value comes through
   the lane's fetch (a remote producer, an mp input leaf).  The
   per-execution hot path is :meth:`BoundTask.run` with the lane's
   fetch passed in at call time: no dict lookups, no isinstance chains
   and no closure, so a binding holds no reference to its engine.  An
   ``updates=`` task copies its compiled :attr:`CompiledPlan.copies`
   positions into the argument list that call builds.

None of the three changes a computed value.  The compiled artifact is
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
from typing import Any, Callable, Iterable

from repro.engine.plan import Plan, Ref, Task

__all__ = ["REPLICATED", "BoundTask", "CompiledPlan", "Publisher",
           "bind_stream", "compile_plan", "grain", "rearm"]

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


def _consumers_by_tid(plan: Plan) -> dict[int, list[Task]]:
    """Producer tid -> consumer tasks (via Ref edges), in tid order."""
    cons: dict[int, list[Task]] = {}
    for task in plan.tasks:
        if task.is_input:
            continue
        for a in task.args:
            if type(a) is not Ref:
                continue
            dep = a.task
            readers = cons.get(dep.tid)
            if readers is None:
                cons[dep.tid] = [task]
            elif readers[-1] is not task:  # one consumer counts once per producer
                readers.append(task)
    return cons


def _reads(args: tuple, ref: Ref) -> bool:
    """True when ``args`` hold a :class:`Ref` to the output ``ref`` names.

    An index of ``None`` (a whole value) on either side overlaps all.
    """
    return any(
        type(a) is Ref and a.task is ref.task
        and (a.index is None or ref.index is None or a.index == ref.index)
        for a in args
    )


def _ran_before(reader: Task, writer: Task, ref: Ref, owner: list) -> bool:
    """Condition (c) for one reader: it cannot see ``writer`` write ``ref``.

    True when ``reader`` does not read that output at all, or is a
    fresh-result task that ``writer``'s lane runs first (same owner,
    lower tid).  A reader that *writes* the output is no exception: only
    a version's last reader may write it in place, so an earlier one
    copied, and what it hands on aliases nothing either.
    """
    if reader.fresh and reader.tid < writer.tid and owner[reader.tid] == owner[writer.tid]:
        return True
    return not _reads(reader.args, ref)


def _in_place(task: Task, cons: dict[int, list[Task]], owner: list) -> set[int]:
    """The ``updates`` positions ``task`` writes in the producer's buffer."""
    out = set()
    for i in task.writes.fresh:
        ref = task.args[i]
        dep = ref.task
        if dep.is_input or dep.done:
            continue
        for r in cons[dep.tid]:
            if r is not task and not _ran_before(r, task, ref, owner):
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
        todo.extend(
            a.task for a in task.args
            if type(a) is Ref and a.task.done and a.task.tid in written
        )
        task.done = False
        task.value = None
        task.rendezvous = None


def _assign_owners(
    plan: Plan, W: int, replicate_rankless: bool,
    cons: dict[int, list[Task]],
) -> list:
    """tid -> owner worker (REPLICATED for mp-style rankless tasks).

    Ranked tasks go to ``rank % W``.  In thread mode a rankless task is
    single-owned by its first consumer's worker (resolved in reverse tid
    order -- consumers always have higher tids), defaulting to worker 0,
    so it runs exactly once and ``Engine.tasks_run`` counts each
    recorded task once.
    """
    owner: list = [None] * len(plan.tasks)
    for task in plan.tasks:
        if task.is_input:
            continue
        if task.rank is not None:
            owner[task.tid] = task.rank % W
        elif replicate_rankless:
            owner[task.tid] = REPLICATED
    if not replicate_rankless:
        for task in reversed(plan.tasks):
            if task.is_input or task.rank is not None:
                continue
            first = next(iter(cons.get(task.tid, ())), None)
            o = owner[first.tid] if first is not None else 0
            owner[task.tid] = 0 if o is None else o
    return owner


def grain(plan: Plan) -> float | None:
    """The plan's metered flops per recorded (non-input) task.

    ``None`` when the plan carries no metered flops (one built by hand)
    or has no task.  The thread engine picks a plan's lanes from it, and
    :func:`compile_plan` reports it as ``stats["flops_per_task"]``.
    """
    tasks = sum(1 for t in plan.tasks if not t.is_input)
    return plan.flops / tasks if plan.flops is not None and tasks else None


def compile_plan(plan: Plan, workers: int, replicate_rankless: bool = False) -> CompiledPlan:
    """Compile ``plan`` for ``workers`` execution lanes.

    Deterministic and pure: compiling the same plan with the same
    arguments yields the same schedule in every process (the mp workers
    each compile post-fork and agree without communicating).

    ``replicate_rankless`` selects the mp ownership convention (rankless
    tasks run in every worker, so their values never cross a process
    boundary); thread engines leave it off and single-own them.
    """
    W = max(1, int(workers))
    cons = _consumers_by_tid(plan)
    owner = _assign_owners(plan, W, replicate_rankless, cons)

    # Streams: each worker's owned (or replicated) tasks in tid order.
    streams: list[list[Task]] = [[] for _ in range(W)]
    for task in plan.tasks:
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
    for task in plan.tasks:
        if task.writes is not None:
            inplace = _in_place(task, cons, owner)
            in_place += len(inplace)
            copies[task.tid] = tuple(i for i in task.writes.updates if i not in inplace)

    # Edge analysis: classify every Ref edge between non-input tasks.
    cross_rank = 0
    elided = 0
    pubs: dict[int, tuple[set[int], set[int]]] = {}  # tid -> (ranks, workers)
    for dep_tid, consumers in cons.items():
        dep = plan.tasks[dep_tid]
        if dep.is_input:
            continue
        d_owner = owner[dep_tid]
        for consumer in consumers:
            c_owner = owner[consumer.tid]
            is_cross_rank = (
                dep.rank is not None
                and consumer.rank is not None
                and dep.rank != consumer.rank
            )
            if is_cross_rank:
                cross_rank += 1
            if d_owner == REPLICATED:
                continue  # replicated values are everywhere-local
            dest = set(range(W)) if c_owner == REPLICATED else {c_owner}
            dest.discard(d_owner)
            if not dest:
                if is_cross_rank:
                    elided += 1
                continue
            ranks, dests = pubs.setdefault(dep_tid, (set(), set()))
            ranks.add(-1 if consumer.rank is None else consumer.rank)
            dests.update(dest)
    publishers = [
        Publisher(plan.tasks[tid], frozenset(ranks), frozenset(dests))
        for tid, (ranks, dests) in sorted(pubs.items())
    ]

    tasks = sum(1 for t in plan.tasks if not t.is_input)
    stats = {
        "workers": W,
        "tasks": tasks,
        "flops_per_task": grain(plan),
        # One step per lane entry (a replicated task counts once a lane).
        "steps": sum(len(lane) for lane in streams),
        "cross_rank_edges": cross_rank,
        "rendezvous_edges": len(publishers),
        "elided_edges": elided,
        "writes_in_place": in_place,
        "writes_copied": sum(len(c) for c in copies.values()),
    }
    return CompiledPlan(W, len(plan.tasks), owner, streams, publishers, copies, stats)


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
        return _run_updating(self.fn, self.task.writes, self.copies, vals)


def _run_updating(fn, writes, copies, vals):
    """Run an ``updates=`` task: copy shared targets, run, re-emit.

    ``vals`` is the argument list :meth:`BoundTask.run` built; the
    copies go into it.  The task's value is ``(*written arrays,
    *outputs)``; the written arrays are the new values of the lazy
    arguments ``defer`` rebound.  A kernel that only writes (it returns
    ``None``) has no outputs.
    """
    for i in copies:
        # order="K": the kernel sees the memory order it would have been
        # handed in place (a column-major buffer stays column-major).
        vals[i] = vals[i].copy(order="K")
    out = fn(*vals)
    written = tuple(vals[i] for i in writes.updates)
    if out is None:
        return written
    return written + (tuple(out) if writes.splat else (out,))


def _direct(dep: Task, widx: int, owner: list, fetch_inputs: bool) -> bool:
    """True when lane ``widx`` reads ``dep.value`` straight off ``dep``.

    An input leaf does unless ``fetch_inputs`` (an mp worker reads its
    leaves from shared memory; a thread lane reads ``leaf.value`` at call
    time, so ``Plan.rebind`` is honored on replays); a task does when
    this lane owns it or every lane runs it.
    """
    if dep.is_input:
        return not fetch_inputs
    o = owner[dep.tid]
    return o == widx or o == REPLICATED


def bind_stream(cplan: CompiledPlan, widx: int, fetch_inputs: bool = False) -> list[BoundTask]:
    """Bind worker ``widx``'s stream: one :class:`BoundTask` per task.

    Each :class:`Ref` argument becomes a ``reads`` triple when this lane
    can read the producer's value directly, else a ``fetches`` triple
    for the fetch the lane passes to :meth:`BoundTask.run`;
    ``fetch_inputs`` sends input leaves through the fetch too (the mp
    workers').  Both read producer values at *call* time, so one binding
    is reused across every replay of the plan.
    """
    owner = cplan.owner
    copies = cplan.copies
    bound = []
    for t in cplan.streams[widx]:
        reads = []
        fetches = []
        for i, a in enumerate(t.args):
            if type(a) is Ref:
                entry = (i, a.task, a.index)
                if _direct(a.task, widx, owner, fetch_inputs):
                    reads.append(entry)
                else:
                    fetches.append(entry)
        bound.append(BoundTask(
            t,
            tuple(reads) if reads or fetches else None,
            tuple(fetches),
            copies[t.tid] if t.writes is not None else None,
        ))
    return bound
