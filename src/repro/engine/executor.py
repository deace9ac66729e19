"""The engine proper: run an execution plan on a real thread pool.

:class:`Engine` executes a :class:`~repro.engine.plan.Plan` with
dataflow scheduling: a task becomes eligible when all of its
dependencies (dataflow edges, program order within its rank's stream,
barriers) have completed, and eligible tasks of *different* ranks run
concurrently on a ``ThreadPoolExecutor``.  The local kernels the tasks
wrap -- LAPACK factorizations, BLAS multiplies -- release the GIL, so
with ``workers > 1`` on a multi-core host the per-rank streams execute
genuinely in parallel, which is the machine model's DAG semantics made
physical.

Cross-rank dependencies are *rendezvous* edges: the producer publishes
its value through a one-shot blocking
:class:`~repro.collectives.rendezvous.Rendezvous` slot and the consumer
takes it from there (never from shared state), with a timeout guard
that raises instead of deadlocking.  Every collective's tree edges,
pairwise exchanges, and routed bundles synchronize this way.

``workers`` is a *cap*, not a promise.  A plan whose tasks are
Python-bound (small kernels, GIL held) gains nothing from a second
thread but handoffs, while a plan of large BLAS/LAPACK kernels does --
and which of the two a recorded plan is depends on the host.  So the
engine measures: the first execute of a plan runs on ``workers`` lanes;
the replays that follow (:func:`repro.engine.run_many` streams)
alternate ``workers`` lanes with **one inline lane** -- the same bound
steps walked by the caller's thread, no pool, no rendezvous -- and
after :data:`LANE_SAMPLES` timings of each the engine keeps the faster,
``workers`` lanes unless one lane wins by 10%.  ``Engine.lanes`` says
what the last execute ran on.  ``workers=1`` never measures: it is the
inline lane from the start.

**Failure semantics.**  When any task raises, the engine *aborts* the
attempt: every wired-but-unpublished rendezvous is poisoned with the
original exception, so consumers blocked in a wait release in
milliseconds (raising
:class:`~repro.collectives.rendezvous.RendezvousAborted` with the cause
chained) instead of burning the deadlock-guard timeout, and no worker
thread outlives :meth:`Engine.execute`.  A typed
:class:`~repro.machine.exceptions.RankFailure` (deterministic fault
injection, :mod:`repro.faults`) is re-raised unwrapped; an installed
recovery policy (``FailFast`` / ``RetryTask`` / ``CodedRecovery``, see
:mod:`repro.faults.policy`) may instead repair the plan -- e.g.
reconstruct the dead rank's input from checksums -- and re-execute just
the tasks that are no longer ``done``.

Paper anchor: Section 3 (executing the task DAG with real concurrency).
"""

from __future__ import annotations

import os
import queue
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any

# The engine guard shares the rendezvous consumer timeout: one value,
# one diagnostic story.
from repro.collectives.rendezvous import DEFAULT_TIMEOUT, RendezvousGroup
from repro.engine.compile import CompiledPlan, bind_stream, compile_plan
from repro.engine.plan import EngineError, Plan, Ref, Task
from repro.machine.exceptions import RankFailure
from repro.telemetry.recorder import NULL_RECORDER

__all__ = ["Engine", "EngineDeadlockError", "EngineExecutionError", "default_workers"]

#: Replays timed per lane count before the engine settles (min of each).
LANE_SAMPLES = 2
#: One lane is chosen only when it takes at most this share of the
#: ``workers``-lane time (ties and near-ties keep ``workers``).
LANE_MARGIN = 0.9


class EngineDeadlockError(EngineError):
    """No task completed within the timeout while work was outstanding."""


class EngineExecutionError(EngineError):
    """A task's thunk raised; the original exception is chained."""


def _clear_poison(plan: Plan) -> None:
    """Strip stale rendezvous from every task before a retry attempt.

    After an aborted attempt the unpublished slots carry the failure as
    poison, and even a *done* producer may hold an aborted slot (its put
    lost the race and was dropped).  ``_resolve_args`` would consult
    those stale slots, so drop them all: done producers are read
    directly, and re-wiring gives the rest fresh slots.
    """
    for task in plan.tasks:
        task.rendezvous = None


def default_workers() -> int:
    """Default worker count: the available cores, capped at 8."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    return max(1, min(8, cores))


def _resolve_args(
    obj: Any,
    consumer_rank: int | None,
    timeout: float,
    rec: Any = None,
    waits: list[float] | None = None,
) -> Any:
    """Materialize the :class:`Ref` handles inside a task's arguments.

    A cross-rank reference is taken from the producer's rendezvous slot
    (blocking, with the deadlock-guard timeout); a same-rank or
    rankless reference reads the producer's value directly -- that edge
    is ordinary program order, not a message.

    With an enabled telemetry recorder ``rec``, every blocking take is
    timed: the seconds accumulate into ``waits[0]`` (the consuming
    task's wait share) and are attributed per producer through
    :meth:`~repro.telemetry.TelemetryRecorder.rendezvous_wait`.
    """
    if isinstance(obj, Ref):
        task = obj.task
        if (
            task.rendezvous is not None
            and task.rank is not None
            and task.rank != consumer_rank
        ):
            if rec is not None:
                t0 = time.perf_counter()
                value = task.rendezvous.get(timeout, consumer=consumer_rank)
                waited = time.perf_counter() - t0
                waits[0] += waited
                rec.rendezvous_wait(task.label, consumer_rank, waited)
            else:
                value = task.rendezvous.get(timeout, consumer=consumer_rank)
        else:
            value = task.value
        return value if obj.index is None else value[obj.index]
    if isinstance(obj, list):
        return [_resolve_args(o, consumer_rank, timeout, rec, waits) for o in obj]
    if isinstance(obj, tuple):
        return tuple(_resolve_args(o, consumer_rank, timeout, rec, waits) for o in obj)
    if isinstance(obj, dict):
        return {
            k: _resolve_args(v, consumer_rank, timeout, rec, waits)
            for k, v in obj.items()
        }
    return obj


class Engine:
    """Executes plans on ``workers`` threads with rendezvous handoffs."""

    def __init__(
        self,
        workers: int | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        telemetry: Any = None,
        fault_plan: Any = None,
        recovery: Any = None,
    ) -> None:
        self.workers = int(workers) if workers is not None else default_workers()
        if self.workers < 1:
            raise EngineError(f"Engine requires workers >= 1, got {self.workers}")
        self.timeout = float(timeout)
        #: Cumulative tasks executed (across execute() calls), for reports.
        self.tasks_run = 0
        #: Telemetry recorder; the disabled default costs one branch per
        #: task.  The owning Machine (or run_many) re-points this at the
        #: currently installed recorder.
        self.telemetry = telemetry if telemetry is not None else NULL_RECORDER
        #: Deterministic fault injection (duck-typed FaultPlan); consulted
        #: once per task-step in :meth:`_run_task`.
        self.fault_plan = fault_plan
        #: Recovery policy (duck-typed; see repro.faults.policy).  When a
        #: RankFailure escapes an attempt, ``handle(failure, plan, self,
        #: attempt)`` may repair the plan and request a re-execution of
        #: whatever is no longer done.
        self.recovery = recovery
        #: Checksum context installed by repro.faults.coded.run_coded_qr;
        #: CodedRecovery reads it to reconstruct a dead rank's block.
        self.coded_ctx = None
        #: Run plans through the :mod:`repro.engine.compile` pass (task
        #: fusion, worker affinity, pre-resolved args).  Off, the engine
        #: uses the original dataflow scheduler -- the A/B baseline the
        #: conformance tests and ``--no-compile`` exercise.
        self.compile = True
        # Compiled-schedule cache: one compile+bind per plan object,
        # invalidated when the plan grows (incremental materialize) --
        # and with it the lane choice and its samples.
        self._cplan: CompiledPlan | None = None
        self._cplan_for: Plan | None = None
        self._bound: list[_BoundStream] = []
        self._inline: list | None = None
        #: Lanes the current (or last) compiled execute ran on.
        self.lanes = self.workers
        #: Seconds of the cached plan's timed replays, per lane count.
        self._lane_s: dict[int, list[float]] = {self.workers: [], 1: []}
        #: True once the cached plan has had one whole execution.
        self._ran = False
        self._clock = time.perf_counter
        # Mutable cells shared with the bound fetch closures (the
        # binding outlives any single execute() call).
        self._ctimeout = [self.timeout]
        self._progress = [0]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        plan: Plan,
        timeout: float | None = None,
        outputs: Any = None,
    ) -> None:
        """Run every pending task in ``plan`` to completion.

        A :class:`~repro.machine.exceptions.RankFailure` escaping an
        attempt is offered to the installed recovery policy; when the
        policy repairs the plan (resetting tasks to not-done), only that
        remainder is re-executed.  Without a policy -- or when the policy
        declines -- the failure is re-raised unwrapped.

        ``outputs`` is an optional hint naming the tids the caller will
        resolve afterwards.  The in-process engine ignores it (every
        task's value already lives in this address space); out-of-process
        engines (:class:`repro.engine.mp.MpEngine`) use it to ship only
        the needed values back.
        """
        del outputs  # every value is local; nothing to ship
        timeout = self.timeout if timeout is None else float(timeout)
        attempt = 0
        while True:
            pending = [t for t in plan.tasks if not t.done]
            if not pending:
                return
            compiled = self._compiled(plan) if self.compile else None
            timed = compiled is not None and self._measuring(pending)
            if compiled is None:
                self._wire_rendezvous(plan, pending)
            else:
                self.lanes = self._next_lanes() if timed else self._chosen_lanes()
            rec = self.telemetry
            if rec.enabled:
                rec.metrics.gauge("engine.lanes", self.lanes)
            try:
                if compiled is not None:
                    t0 = self._clock()
                    self._execute_compiled(pending, timeout)
                    if timed:
                        self._lane_s[self.lanes].append(self._clock() - t0)
                elif self.workers == 1:
                    self._execute_inline(pending, timeout)
                else:
                    self._execute_pool(plan, pending, timeout)
            except RankFailure as failure:
                # Tasks that finished before the failure stay done; count
                # them now because the success path below won't run.
                self.tasks_run += sum(1 for t in pending if t.done)
                if rec.enabled:
                    rec.fault_detected(failure.rank, failure.step)
                policy = self.recovery
                if policy is None:
                    raise
                t0 = rec.now() if rec.enabled else time.perf_counter()
                if not policy.handle(failure, plan, self, attempt):
                    raise
                _clear_poison(plan)
                if rec.enabled:
                    rec.fault_recovered(
                        failure.rank,
                        type(policy).__name__,
                        t0,
                        rec.now() - t0,
                    )
                attempt += 1
                continue
            self.tasks_run += len(pending)
            if compiled is not None and len(pending) == compiled.stats["tasks"]:
                self._ran = True
            return

    def _wire_rendezvous(self, plan: Plan, pending: list[Task]) -> None:
        """Attach a rendezvous slot to every cross-rank-consumed producer.

        A producer with several cross-rank consumers -- the broadcast/
        reduce-along-a-grid-row fans of the 2D algorithms -- gets a
        :class:`RendezvousGroup` declaring the consuming ranks, so a
        starved take names the rank and an undeclared take fails loudly.
        """
        fans: dict[int, set[int]] = {}
        producers: dict[int, Task] = {}
        for task in pending:
            for dep in task.deps:
                if (
                    dep.rank is not None
                    and task.rank is not None
                    and dep.rank != task.rank
                    and dep.rendezvous is None
                    # A producer that already ran (incremental
                    # materialize) will never publish again; its value
                    # is read directly, like a same-rank edge.
                    and not dep.done
                ):
                    fans.setdefault(dep.tid, set()).add(task.rank)
                    producers[dep.tid] = dep
        for tid, consumers in fans.items():
            dep = producers[tid]
            dep.rendezvous = RendezvousGroup(
                consumers,
                label=(
                    f"t{dep.tid}:{dep.label} "
                    f"rank{dep.rank}->ranks{sorted(consumers)}"
                ),
                producer=f"t{dep.tid}:{dep.label} (rank {dep.rank})",
            )

    def _run_task(self, task: Task, timeout: float) -> None:
        fp = self.fault_plan
        if fp is not None and task.rank is not None:
            # Deterministic injection point: counts this rank's task-steps
            # and raises RankFailure when the plan says this rank dies here.
            fp.on_task(task.rank, task.label, telemetry=self.telemetry)
        rec = self.telemetry
        if not rec.enabled:
            args = _resolve_args(task.args, task.rank, timeout)
            task.value = task.fn(*args)
            if task.rendezvous is not None:
                task.rendezvous.put(task.value)
            task.done = True
            return
        # Telemetry path: the span covers resolve (rendezvous waits) +
        # kernel + publish; the wait share is recorded separately so the
        # drift report can attribute blocked time per phase.
        t0 = rec.now()
        waits = [0.0]
        args = _resolve_args(task.args, task.rank, timeout, rec, waits)
        task.value = task.fn(*args)
        if task.rendezvous is not None:
            task.rendezvous.put(task.value)
        task.done = True
        rec.task_span(task.label, task.tid, task.rank, t0, rec.now() - t0, waits[0])

    def _execute_inline(self, pending: list[Task], timeout: float) -> None:
        """Single-worker mode: run in topological (creation) order."""
        for task in pending:
            try:
                self._run_task(task, timeout)
            except RankFailure:
                # Typed fault-injection failure: propagate unwrapped so
                # execute()'s recovery loop (or the caller) sees the rank
                # and step, not an EngineExecutionError shell.
                raise
            except Exception as exc:
                raise EngineExecutionError(
                    f"task t{task.tid} ({task.label!r}, rank={task.rank}) failed: {exc}"
                ) from exc

    @staticmethod
    def _abort(pending: list[Task], cause: BaseException) -> None:
        """Unblock every rendezvous consumer after a failure or deadlock.

        Poisons each unpublished slot with ``cause`` so workers blocked
        in a rendezvous wait raise ``RendezvousAborted`` in milliseconds
        (the real cause chained) instead of burning the full timeout;
        their thunks then fail and are ignored -- the first failure is
        the one reported -- and no worker thread outlives ``execute()``.
        """
        for task in pending:
            rv = task.rendezvous
            if rv is not None and not rv.ready:
                rv.abort(cause)

    def _execute_pool(self, plan: Plan, pending: list[Task], timeout: float) -> None:
        """Dataflow scheduling onto a thread pool."""
        waiting: dict[int, int] = {}
        children: dict[int, list[Task]] = {}
        for task in pending:
            open_deps = [d for d in task.deps if not d.done]
            waiting[task.tid] = len(open_deps)
            for d in open_deps:
                children.setdefault(d.tid, []).append(task)

        done_q: "queue.SimpleQueue[tuple[Task, BaseException | None]]" = queue.SimpleQueue()

        def run(task: Task) -> None:
            try:
                self._run_task(task, timeout)
                done_q.put((task, None))
            except BaseException as exc:  # noqa: BLE001 - reported to the driver
                done_q.put((task, exc))

        remaining = len(pending)
        failure: tuple[Task, BaseException] | None = None
        deadlock: EngineDeadlockError | None = None
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            for task in pending:
                if waiting[task.tid] == 0:
                    pool.submit(run, task)
            while remaining:
                try:
                    task, exc = done_q.get(timeout=timeout)
                except queue.Empty:
                    deadlock = EngineDeadlockError(
                        f"no task completed within {timeout}s; "
                        f"{remaining} tasks outstanding (deadlock guard)"
                    )
                    self._abort(pending, deadlock)
                    break
                remaining -= 1
                if exc is not None:
                    failure = (task, exc)
                    self._abort(pending, exc)
                    break
                for child in children.get(task.tid, ()):
                    waiting[child.tid] -= 1
                    if waiting[child.tid] == 0:
                        pool.submit(run, child)
        # The `with` block joined every worker: threads woken by the
        # poison fail fast and none outlive this call.
        if failure is not None:
            task, exc = failure
            injected = exc if isinstance(exc, RankFailure) else (
                exc.__cause__ if isinstance(exc.__cause__, RankFailure) else None
            )
            if injected is not None:
                raise injected
            raise EngineExecutionError(
                f"task t{task.tid} ({task.label!r}, rank={task.rank}) failed: {exc}"
            ) from exc
        if deadlock is not None:
            raise deadlock

    # ------------------------------------------------------------------
    # Compiled execution (repro.engine.compile)
    # ------------------------------------------------------------------
    def _compiled(self, plan: Plan) -> CompiledPlan | None:
        """The compiled schedule for ``plan``, rebuilt when it grows.

        A rebuild also forgets the lane choice: the new schedule's first
        execute runs on ``workers`` lanes and measuring starts over.
        """
        if self._cplan_for is plan and self._cplan.n_tasks == len(plan.tasks):
            return self._cplan
        cplan = compile_plan(plan, self.workers)
        self._bound = [
            _BoundStream(self, cplan, widx) for widx in range(cplan.workers)
        ]
        self._cplan = cplan
        self._cplan_for = plan
        self._inline = None
        self._lane_s = {self.workers: [], 1: []}
        self._ran = False
        return cplan

    # ------------------------------------------------------------------
    # Lane selection: measured, per compiled plan, over its replays
    # ------------------------------------------------------------------
    def _lane_verdict(self) -> tuple[float, float] | None:
        """Best ``(one-lane, workers-lane)`` seconds, once both are sampled."""
        one, full = self._lane_s[1], self._lane_s[self.workers]
        if self.workers == 1 or min(len(one), len(full)) < LANE_SAMPLES:
            return None
        return min(one), min(full)

    def _chosen_lanes(self) -> int:
        """``workers`` until the samples say one lane is clearly faster."""
        best = self._lane_verdict()
        return 1 if best and best[0] <= LANE_MARGIN * best[1] else self.workers

    def _measuring(self, pending: list[Task]) -> bool:
        """True when this execute is a replay the lane choice may time.

        Only whole-plan replays of the already-executed cached plan
        count, and never with a fault plan or recovery policy installed:
        an attempt that may die and resume times nothing comparable
        (and retry attempts, which only a policy grants, never qualify).
        """
        return (
            self.workers > 1
            and self._ran
            and self._lane_verdict() is None
            and len(pending) == self._cplan.stats["tasks"]
            and self.fault_plan is None
            and self.recovery is None
        )

    def _next_lanes(self) -> int:
        """Alternate: the lane count with fewer samples, ``workers`` first."""
        samples = self._lane_s
        return self.workers if len(samples[self.workers]) <= len(samples[1]) else 1

    def lanes_line(self) -> str:
        """One line for reports: the chosen lane count and its evidence.

        >>> Engine(workers=1).lanes_line()
        'lanes: 1 of 1 workers (not measured)'
        """
        head = f"lanes: {self._chosen_lanes()} of {self.workers} workers"
        best = self._lane_verdict()
        if best is None:
            return f"{head} (not measured)"
        return (
            f"{head} (measured {best[0] * 1e3:.0f} ms on one lane vs "
            f"{best[1] * 1e3:.0f} ms on {self.workers})"
        )

    def _inline_steps(self) -> list:
        """Every stream's bound steps, merged for one thread to walk.

        Ordered by each step's *last* task.  That keeps every stream's
        own order, and puts each step after the steps it reads from: a
        value read from outside a step comes from the last task of its
        own step (the interior of a fused chain has no consumer but the
        next member), which has a lower tid than the reader.  So every
        fetch finds its producer done and no rendezvous is needed.
        """
        if self._inline is None:
            self._inline = sorted(
                (step for bs in self._bound for step in bs.steps),
                key=lambda step: step.tasks[-1].task.tid,
            )
        return self._inline

    def _execute_compiled(self, pending: list[Task], timeout: float) -> None:
        """Run the not-done remainder on the compiled worker streams."""
        self._ctimeout[0] = timeout
        if self.lanes == 1:
            # One lane, zero rendezvous: run in the caller's thread (no
            # guard, matching the uncompiled inline mode).
            steps = self._bound[0].steps if self.workers == 1 else self._inline_steps()
            self._run_stream(steps, self._bound[0].waits, None)
            return
        # Wire a rendezvous on every cross-worker producer that has yet
        # to run; one already done (incremental materialize, or a retry
        # resuming past it) is read directly by its consumers.
        for pub in self._cplan.publishers:
            task = pub.task
            if not task.done and task.rendezvous is None:
                task.rendezvous = RendezvousGroup(
                    pub.consumers,
                    label=(
                        f"t{task.tid}:{task.label} "
                        f"rank{task.rank}->ranks{sorted(pub.consumers)}"
                    ),
                    producer=f"t{task.tid}:{task.label} (rank {task.rank})",
                )
        live = [
            bs for bs in self._bound
            if any(not bt.task.done for step in bs.steps for bt in step.tasks)
        ]
        if not live:
            return
        self._execute_compiled_pool(live, pending, timeout)

    def _execute_compiled_pool(
        self, live: list["_BoundStream"], pending: list[Task], timeout: float
    ) -> None:
        """One pool job per live stream, with a progress-based guard.

        Streams block *inside* rendezvous fetches rather than parking in
        the scheduler, so the deadlock guard watches a per-task progress
        counter: no task completing for ``timeout`` seconds while work
        is outstanding trips :class:`EngineDeadlockError`, mirroring the
        uncompiled driver's ``done_q.get(timeout=...)`` guard.
        """
        progress = self._progress
        done_q: "queue.SimpleQueue[BaseException | None]" = queue.SimpleQueue()

        def run(bs: "_BoundStream") -> None:
            try:
                self._run_stream(bs.steps, bs.waits, progress)
                done_q.put(None)
            except BaseException as exc:  # noqa: BLE001 - reported to the driver
                done_q.put(exc)

        remaining = len(live)
        failure: BaseException | None = None
        deadlock: EngineDeadlockError | None = None
        poll = min(timeout, 0.25)
        with ThreadPoolExecutor(max_workers=min(self.workers, len(live))) as pool:
            for bs in live:
                pool.submit(run, bs)
            last = progress[0]
            stall = 0.0
            while remaining:
                try:
                    exc = done_q.get(timeout=poll)
                except queue.Empty:
                    if progress[0] != last:
                        last = progress[0]
                        stall = 0.0
                        continue
                    stall += poll
                    if stall + 1e-9 >= timeout:
                        outstanding = sum(1 for t in pending if not t.done)
                        deadlock = EngineDeadlockError(
                            f"no task completed within {timeout}s; "
                            f"{outstanding} tasks outstanding (deadlock guard)"
                        )
                        self._abort(pending, deadlock)
                        break
                    continue
                remaining -= 1
                last = progress[0]
                stall = 0.0
                if exc is not None:
                    failure = exc
                    self._abort(pending, exc)
                    break
        # The `with` block joined every worker (poisoned slots release
        # blocked streams in milliseconds).
        if failure is not None:
            injected = failure if isinstance(failure, RankFailure) else (
                failure.__cause__
                if isinstance(failure.__cause__, RankFailure)
                else None
            )
            if injected is not None:
                raise injected
            raise failure
        if deadlock is not None:
            raise deadlock

    def _run_stream(
        self, steps: list, waits: list[float], progress: list[int] | None
    ) -> None:
        """Walk bound steps in order, skipping done tasks.

        Fused steps execute their members back to back and report one
        telemetry span carrying ``fused_n``; a step interrupted by a
        failure resumes at its first not-done member on the next attempt
        (the per-task ``done`` flags are the resume points), which keeps
        fault-injection step counts identical to the uncompiled path.
        """
        fp = self.fault_plan
        cur: Task | None = None
        try:
            for step in steps:
                rec = self.telemetry
                enabled = rec.enabled
                if enabled:
                    t0 = rec.now()
                    waits[0] = 0.0
                ran = 0
                for bt in step.tasks:
                    task = bt.task
                    if task.done:
                        continue
                    cur = task
                    if fp is not None and task.rank is not None:
                        fp.on_task(task.rank, task.label, telemetry=rec)
                    task.value = bt.fn(*bt.make_args())
                    rv = task.rendezvous
                    if rv is not None:
                        rv.put(task.value)
                    task.done = True
                    ran += 1
                    if progress is not None:
                        progress[0] += 1
                if enabled and ran:
                    dur = rec.now() - t0
                    if len(step.tasks) > 1:
                        rec.task_span(
                            step.label, step.tid, step.rank, t0, dur,
                            waits[0], fused_n=ran,
                        )
                    else:
                        rec.task_span(
                            step.label, step.tid, step.rank, t0, dur, waits[0]
                        )
        except RankFailure:
            raise
        except Exception as exc:
            if cur is not None:
                raise EngineExecutionError(
                    f"task t{cur.tid} ({cur.label!r}, rank={cur.rank}) "
                    f"failed: {exc}"
                ) from exc
            raise EngineExecutionError(str(exc)) from exc  # pragma: no cover

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Engine(workers={self.workers}, lanes={self.lanes})"


class _BoundStream:
    """One worker's bound steps plus its rendezvous-wait accumulator.

    The remote fetch closes over the owning engine's mutable timeout
    cell and reads ``engine.telemetry`` at call time, so a binding is
    valid across replays even as ``run_many`` re-points the recorder.
    """

    __slots__ = ("steps", "waits")

    def __init__(self, engine: Engine, cplan: CompiledPlan, widx: int) -> None:
        waits = [0.0]
        ctimeout = engine._ctimeout

        def remote_fetch(dep: Task, consumer: Task) -> Any:
            if dep.done:
                return dep.value
            rv = dep.rendezvous
            if rv is None:
                # The producer finished between the two reads above.
                if dep.done:  # pragma: no cover - narrow race
                    return dep.value
                raise EngineError(
                    f"compiled fetch: producer t{dep.tid} ({dep.label!r}) "
                    "has no rendezvous and is not done"
                )
            rec = engine.telemetry
            if rec.enabled:
                t0 = time.perf_counter()
                value = rv.get(ctimeout[0], consumer=consumer.rank)
                waited = time.perf_counter() - t0
                waits[0] += waited
                rec.rendezvous_wait(dep.label, consumer.rank, waited)
            else:
                value = rv.get(ctimeout[0], consumer=consumer.rank)
            return value

        self.waits = waits
        self.steps = bind_stream(cplan, widx, None, remote_fetch)
