"""Plan compiler: fuse task chains, pin ranks to workers, pre-resolve args.

A recorded :class:`~repro.engine.plan.Plan` is deliberately fine-grained
-- one task per local kernel -- which makes the DAG faithful to the
paper but would make an executor that interpreted it directly pay
per-task dispatch, ``Ref`` resolution (an isinstance chain per
argument), and a blocking rendezvous per cross-rank edge.  On plans
whose kernels are small, that overhead dominates the BLAS work.  So no
engine interprets a plan: both execute the schedule compiled here, and
nothing else.

:func:`compile_plan` runs **once** between plan recording and execution
(and is reused verbatim by every replay) and applies three
transformations, none of which changes a single computed value:

1. **Worker-affinity scheduling** -- rank ``r``'s stream is owned by
   worker ``r % W`` (the partition :mod:`repro.engine.mp` already uses),
   and each worker walks its owned tasks in tid order.  Every task's
   dependencies have lower tids, so a blocked worker always waits on a
   worker that is strictly ahead of it in tid space: a wait cycle would
   need each participant to sit *below* another's block point, a
   contradiction -- the schedule is deadlock-free by construction.  A
   cross-rank edge whose producer and consumer land on the **same
   worker** becomes a plain ``task.value`` read (program order within
   the worker's walk); only genuinely cross-worker edges keep a
   rendezvous slot.
2. **Task fusion** -- maximal runs of consecutive same-rank tasks whose
   *only* consumer is the next task in the run collapse into one fused
   step executing a pre-resolved closure list.  Fused interiors provably
   have no cross-worker consumers (their sole consumer shares the rank,
   hence the worker), so fusion eliminates per-task pool dispatch and
   queue traffic without reordering anything: the fused step runs its
   members in exactly the tid order they were recorded in.  Every
   member still writes ``task.value`` and flips ``done``, so incremental
   materialization, retry-after-fault (a partially-run chain resumes at
   its first not-``done`` member), and ``CodedRecovery``'s plan surgery
   all keep working unchanged.
3. **Argument pre-resolution** -- each task's argument tree is walked
   once at bind time and specialized into a flat tuple of zero-argument
   value makers (constant / local read / input fetch / remote fetch),
   so the per-execution hot path is ``fn(*make_args())`` with no dict
   lookups and no isinstance chains.

The compiled artifact is engine-agnostic: the thread
:class:`~repro.engine.executor.Engine` binds streams with an in-process
rendezvous fetch, and :class:`~repro.engine.mp.MpEngine`'s forked
workers bind the same streams with ``replicate_rankless=True`` and an
inbox-queue fetch.  Telemetry reports a fused step as one span carrying
a ``fused_n`` attribute (see ``docs/observability.md``).

Paper anchor: Section 3 (the execution DAG; compilation only re-blocks
its schedule, never its dataflow); Section 8.4 (amortizing one plan --
now one *compiled* plan -- over a stream of jobs).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.engine.plan import Plan, Ref, Task, _scan_refs

__all__ = ["REPLICATED", "BoundStep", "BoundTask", "CompiledPlan", "Publisher",
           "bind_stream", "compile_plan"]

#: Owner sentinel for rankless tasks replicated in every worker (the
#: multiprocessing engine's convention; threads single-own them instead).
REPLICATED = -1


class Publisher:
    """A cross-worker producer and the consumer ranks it must serve.

    The thread engine wires one
    :class:`~repro.collectives.rendezvous.RendezvousGroup` per publisher
    (declaring ``consumers`` so starvation diagnostics name ranks); the
    mp engine sends the value to ``dest_workers`` inbox queues instead.
    ``consumers`` uses ``-1`` for rankless consumers, which take the
    slot unchecked (their ``consumer=None`` get bypasses declaration).
    """

    __slots__ = ("task", "consumers", "dest_workers")

    def __init__(self, task: Task, consumers: frozenset, dest_workers: frozenset) -> None:
        self.task = task
        self.consumers = consumers
        self.dest_workers = dest_workers

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Publisher(t{self.task.tid} -> ranks {sorted(self.consumers)}, "
            f"workers {sorted(self.dest_workers)})"
        )


class Step:
    """One schedulable unit of a worker stream: a task or a fused chain."""

    __slots__ = ("tasks", "label", "tid", "rank")

    def __init__(self, tasks: list[Task]) -> None:
        self.tasks = tasks
        first = tasks[0]
        self.tid = first.tid
        self.rank = first.rank
        if len(tasks) > 1:
            self.label = f"fused:{first.label}..{tasks[-1].label}"
        else:
            self.label = first.label

    @property
    def fused(self) -> bool:
        return len(self.tasks) > 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Step({self.label!r}, n={len(self.tasks)})"


class CompiledPlan:
    """The once-per-plan schedule: ownership, streams, edges, statistics.

    Pure data -- binding it to an engine (closures over that engine's
    fetch primitives) happens per worker in :func:`bind_stream`.
    """

    __slots__ = ("workers", "n_tasks", "replicate_rankless", "owner",
                 "streams", "publishers", "sends", "stats")

    def __init__(self, workers: int, n_tasks: int, replicate_rankless: bool,
                 owner: list, streams: list, publishers: list,
                 sends: dict, stats: dict) -> None:
        self.workers = workers
        self.n_tasks = n_tasks
        self.replicate_rankless = replicate_rankless
        #: tid -> worker index, REPLICATED, or None (input leaves).
        self.owner = owner
        #: Per-worker list of :class:`Step` in tid order.
        self.streams = streams
        #: Cross-worker producers (:class:`Publisher` per producer).
        self.publishers = publishers
        #: Producer tid -> frozenset of destination worker indices.
        self.sends = sends
        self.stats = stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats
        return (
            f"CompiledPlan(workers={self.workers}, tasks={s['tasks']}, "
            f"steps={s['steps']}, fused={s['fused_tasks']}, "
            f"rendezvous={s['rendezvous_edges']}, elided={s['elided_edges']})"
        )


def _consumers_by_tid(plan: Plan) -> dict[int, list[Task]]:
    """Producer tid -> consumer tasks (via Ref edges), in tid order."""
    cons: dict[int, list[Task]] = {}
    for task in plan.tasks:
        if task.is_input:
            continue
        producers: list[Task] = []
        _scan_refs(task.args, producers)
        seen: set[int] = set()
        for dep in producers:
            if dep.tid in seen:
                continue  # one consumer counts once per producer
            seen.add(dep.tid)
            cons.setdefault(dep.tid, []).append(task)
    return cons


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
    raw_streams: list[list[Task]] = [[] for _ in range(W)]
    for task in plan.tasks:
        o = owner[task.tid]
        if o is None:
            continue
        if o == REPLICATED:
            for lane in raw_streams:
                lane.append(task)
        else:
            raw_streams[o].append(task)

    # Fusion: consecutive stream neighbors (a, b) collapse when a is
    # ranked, b continues the same rank, and a's *only* consumer is b --
    # then a's value cannot be needed anywhere else (same rank => same
    # worker => no cross-worker consumer) and running them back-to-back
    # is the rank's program order anyway.
    fused_chains = 0
    fused_tasks = 0
    streams: list[list[Step]] = []
    for lane in raw_streams:
        steps: list[Step] = []
        i = 0
        while i < len(lane):
            chain = [lane[i]]
            while i + 1 < len(lane):
                a, b = lane[i], lane[i + 1]
                if a.rank is None or a.rank != b.rank:
                    break
                a_cons = cons.get(a.tid, ())
                if len(a_cons) != 1 or a_cons[0] is not b:
                    break
                chain.append(b)
                i += 1
            i += 1
            if len(chain) > 1:
                fused_chains += 1
                fused_tasks += len(chain)
            steps.append(Step(chain))
        streams.append(steps)

    # Edge analysis: classify every Ref edge between non-input tasks.
    cross_rank = 0
    elided = 0
    sends: dict[int, set[int]] = {}
    pub_ranks: dict[int, set[int]] = {}
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
            sends.setdefault(dep_tid, set()).update(dest)
            pub_ranks.setdefault(dep_tid, set()).add(
                -1 if consumer.rank is None else consumer.rank
            )
    publishers = [
        Publisher(plan.tasks[tid], frozenset(pub_ranks[tid]), frozenset(dests))
        for tid, dests in sorted(sends.items())
    ]

    n_exec = sum(1 for t in plan.tasks if not t.is_input)
    stats = {
        "workers": W,
        "tasks": n_exec,
        "steps": sum(len(s) for s in streams),
        "fused_chains": fused_chains,
        "fused_tasks": fused_tasks,
        "cross_rank_edges": cross_rank,
        "rendezvous_edges": len(publishers),
        "elided_edges": elided,
    }
    return CompiledPlan(
        W, len(plan.tasks), replicate_rankless, owner, streams,
        publishers, {tid: frozenset(d) for tid, d in sends.items()}, stats,
    )


# ----------------------------------------------------------------------
# Binding: specialize argument resolution into zero-arg closures
# ----------------------------------------------------------------------

class BoundTask:
    """A task plus its pre-resolved argument maker: ``fn(*make_args())``."""

    __slots__ = ("task", "fn", "make_args")

    def __init__(self, task: Task, make_args: Callable[[], tuple]) -> None:
        self.task = task
        self.fn = task.fn
        self.make_args = make_args


class BoundStep:
    """A :class:`Step` with every member bound for one specific worker."""

    __slots__ = ("tasks", "label", "tid", "rank")

    def __init__(self, step: Step, tasks: list[BoundTask]) -> None:
        self.tasks = tasks
        self.label = step.label
        self.tid = step.tid
        self.rank = step.rank


def _maker(
    obj: Any,
    consumer: Task,
    widx: int,
    owner: list,
    input_fetch: Callable[[Task], Any] | None,
    remote_fetch: Callable[[Task, Task], Any],
) -> Callable[[], Any] | None:
    """A zero-arg value maker for ``obj``, or ``None`` when constant."""
    if isinstance(obj, Ref):
        dep, sel = obj.task, obj.index
        if dep.is_input:
            if input_fetch is None:
                # Thread mode: leaves live in this address space; read
                # at call time so Plan.rebind is honored on replays.
                if sel is None:
                    return lambda: dep.value
                return lambda: dep.value[sel]
            if sel is None:
                return lambda: input_fetch(dep)
            return lambda: input_fetch(dep)[sel]
        o = owner[dep.tid]
        if o == widx or o == REPLICATED:
            if sel is None:
                return lambda: dep.value
            return lambda: dep.value[sel]
        if sel is None:
            return lambda: remote_fetch(dep, consumer)
        return lambda: remote_fetch(dep, consumer)[sel]
    if isinstance(obj, (list, tuple)):
        subs = [_maker(o, consumer, widx, owner, input_fetch, remote_fetch)
                for o in obj]
        if all(s is None for s in subs):
            return None
        fns = [s if s is not None else (lambda v=v: v)
               for s, v in zip(subs, obj)]
        if isinstance(obj, list):
            return lambda: [f() for f in fns]
        return lambda: tuple(f() for f in fns)
    if isinstance(obj, dict):
        subs = {k: _maker(v, consumer, widx, owner, input_fetch, remote_fetch)
                for k, v in obj.items()}
        if all(s is None for s in subs.values()):
            return None
        pairs = [(k, s if s is not None else (lambda v=obj[k]: v))
                 for k, s in subs.items()]
        return lambda: {k: f() for k, f in pairs}
    return None


def _args_maker(task: Task, widx: int, owner: list,
                input_fetch, remote_fetch) -> Callable[[], tuple]:
    subs = [_maker(a, task, widx, owner, input_fetch, remote_fetch)
            for a in task.args]
    if all(s is None for s in subs):
        args = task.args
        return lambda: args
    fns = [s if s is not None else (lambda v=v: v)
           for s, v in zip(subs, task.args)]
    # Arity-specialized tuple construction for the common small cases.
    if len(fns) == 1:
        f0, = fns
        return lambda: (f0(),)
    if len(fns) == 2:
        f0, f1 = fns
        return lambda: (f0(), f1())
    if len(fns) == 3:
        f0, f1, f2 = fns
        return lambda: (f0(), f1(), f2())
    return lambda: tuple(f() for f in fns)


def bind_stream(
    cplan: CompiledPlan,
    widx: int,
    input_fetch: Callable[[Task], Any] | None,
    remote_fetch: Callable[[Task, Task], Any],
) -> list[BoundStep]:
    """Bind worker ``widx``'s stream to an engine's fetch primitives.

    ``input_fetch(leaf)`` materializes an input leaf's current value
    (``None`` means "read ``leaf.value`` directly" -- the thread mode);
    ``remote_fetch(dep, consumer)`` blocks on a cross-worker producer.
    The returned closures read producer values at *call* time, so one
    binding is reused across every replay of the plan.
    """
    owner = cplan.owner
    return [
        BoundStep(step, [
            BoundTask(t, _args_maker(t, widx, owner, input_fetch, remote_fetch))
            for t in step.tasks
        ])
        for step in cplan.streams[widx]
    ]
