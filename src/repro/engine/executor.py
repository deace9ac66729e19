"""The engine proper: run an execution plan on a real thread pool.

:class:`Engine` executes a :class:`~repro.engine.plan.Plan` as compiled
worker streams.  Before a plan first runs,
:func:`~repro.engine.compile.compile_plan` partitions its tasks over
``workers`` lanes (rank ``r`` belongs to lane ``r % workers``), decides
which writes may go in place and pre-resolves every argument; each lane
is a flat list of bound tasks, walked in tid order -- a topological
order, so the walk is deadlock-free by construction -- on a
``ThreadPoolExecutor`` thread.  The local kernels the tasks wrap --
LAPACK factorizations, BLAS multiplies -- release the GIL, so with
``workers > 1`` on a multi-core host the lanes execute genuinely in
parallel, which is the machine model's DAG semantics made physical.
The schedule is compiled and bound once per plan and reused by every
replay.

Cross-lane dependencies are *rendezvous* edges: the producer publishes
its value through a one-shot blocking
:class:`~repro.collectives.rendezvous.RendezvousGroup` slot and the
consumer takes it from there, with a timeout guard that raises instead
of deadlocking; an edge whose two ends share a lane is a plain read in
program order.  Every attempt wires fresh slots, so nothing a failed
attempt poisoned can leak into the next one.

``workers`` is a *cap*, not a promise.  A plan whose tasks are
Python-bound (small kernels, GIL held) gains nothing from a second
thread but handoffs, while a plan of large BLAS/LAPACK kernels does.
The first execute of a compiled plan has nothing to measure yet, so it
predicts from the plan's **grain** -- the flops the machine metered
while recording it, per recorded task (``stats["flops_per_task"]`` of
:func:`~repro.engine.compile.compile_plan`): a grain of at least
:data:`TWO_LANE_FLOPS` runs on ``workers`` lanes, a finer one on **one
inline lane** -- the same bound tasks walked by the caller's thread, no
pool, no rendezvous.  A plan with no metered flops (built by hand) runs
on ``workers`` lanes.  The replays that follow
(:func:`repro.engine.run_many` streams) measure instead of predicting:
they alternate ``workers`` lanes with the inline lane, and after
:data:`LANE_SAMPLES` timings of each the engine keeps the faster,
``workers`` lanes unless one lane wins by 10% -- so a prediction that
is wrong on some host costs four replays.  Executes that are not
samples (a fault plan or recovery policy installed, an incremental
execute) run on the prediction until the samples exist.
``Engine.lanes`` says what the last execute ran on.  ``workers=1``
neither predicts nor measures: it is the inline lane from the start.

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
from typing import Any, Callable

# The engine guard shares the rendezvous consumer timeout: one value,
# one diagnostic story.
from repro.collectives.rendezvous import DEFAULT_TIMEOUT, RendezvousGroup
from repro.engine.compile import CompiledPlan, bind_stream, compile_plan
from repro.engine.plan import EngineError, Plan, Task
from repro.machine.exceptions import RankFailure
from repro.telemetry.recorder import NULL_RECORDER

__all__ = ["Engine", "EngineDeadlockError", "EngineExecutionError", "default_workers"]

#: Replays timed per lane count before the engine settles (min of each).
LANE_SAMPLES = 2
#: One lane is chosen only when it takes at most this share of the
#: ``workers``-lane time (ties and near-ties keep ``workers``).
LANE_MARGIN = 0.9
#: The grain (metered flops per recorded task) from which a compiled
#: plan's first execute runs on ``workers`` lanes; a finer plan's first
#: execute runs on the inline lane.  The benchmark's three workloads
#: (P = 8) straddle it -- first executes measured in-process on a 2-vCPU
#: host, ``workers=2``, BLAS pinned to one thread:
#:
#: ==========================================  ============  =======  ===========  ===========
#: workload                                    flops / task  2 lanes  inline lane  warm choice
#: ==========================================  ============  =======  ===========  ===========
#: ``tallskinny`` (tsqr 32768x64)              1.2e7         46 ms    71 ms        2 lanes
#: ``squarish3d`` (caqr3d 1024x256)            1.3e5         86 ms    52 ms        1 lane
#: ``grid2d-percolumn`` (house2d 384x96)       1.9e3         89 ms    28 ms        1 lane
#: ==========================================  ============  =======  ===========  ===========
#:
#: Running every first execute inline would cost ``tallskinny`` ~25 ms
#: (+45 % on its cold job), so the plan's grain decides.
TWO_LANE_FLOPS = 1e6


class EngineDeadlockError(EngineError):
    """No task completed within the timeout while work was outstanding."""


class EngineExecutionError(EngineError):
    """A task's thunk raised; the original exception is chained."""


def default_workers() -> int:
    """Default worker count: the available cores, capped at 8."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    return max(1, min(8, cores))


def injected_first(failures: list[BaseException]) -> BaseException:
    """The failure an attempt reports: an injected one wins.

    A typed :class:`~repro.machine.exceptions.RankFailure` -- raised by
    a task-step or chained as the cause of the error that wraps it --
    is returned unwrapped, so the recovery loop and the caller see the
    rank and step; otherwise the first failure stands.
    """
    for exc in failures:
        for candidate in (exc, exc.__cause__):
            if isinstance(candidate, RankFailure):
                return candidate
    return failures[0]


class EngineBase:
    """What the thread and the process engine share.

    The constructor state every engine carries at the machine seam and
    the attempt/recovery loop around one execution of a plan; how an
    attempt runs (threads and rendezvous, or a forked pool and queues)
    is the subclass's business.
    """

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
            raise EngineError(
                f"{type(self).__name__} requires workers >= 1, got {self.workers}"
            )
        self.timeout = float(timeout)
        #: Cumulative tasks executed (across execute() calls), for reports.
        self.tasks_run = 0
        #: Telemetry recorder; the disabled default costs one branch per
        #: task.  The owning Machine (or run_many) re-points this at the
        #: currently installed recorder.
        self.telemetry = telemetry if telemetry is not None else NULL_RECORDER
        #: Deterministic fault injection (duck-typed FaultPlan); consulted
        #: once per ranked task-step.
        self.fault_plan = fault_plan
        #: Recovery policy (duck-typed; see repro.faults.policy).  When a
        #: RankFailure escapes an attempt, ``handle(failure, plan, self,
        #: attempt)`` may repair the plan and request a re-execution of
        #: whatever is no longer done.
        self.recovery = recovery
        #: Checksum context installed by repro.faults.coded.run_coded_qr;
        #: CodedRecovery reads it to reconstruct a dead rank's block.
        self.coded_ctx = None

    def _recovering(self, plan: Plan, attempt_once: Callable[[], Any]) -> Any:
        """Call ``attempt_once()`` until it completes; return its result.

        A :class:`~repro.machine.exceptions.RankFailure` escaping an
        attempt is offered to the installed recovery policy; when the
        policy repairs the plan, the next attempt runs what is no longer
        done.  Without a policy -- or when the policy declines -- the
        failure is re-raised unwrapped.
        """
        attempt = 0
        while True:
            try:
                return attempt_once()
            except RankFailure as failure:
                rec = self.telemetry
                if rec.enabled:
                    rec.fault_detected(failure.rank, failure.step)
                policy = self.recovery
                if policy is None:
                    raise
                t0 = rec.now() if rec.enabled else 0.0
                if not policy.handle(failure, plan, self, attempt):
                    raise
                if rec.enabled:
                    rec.fault_recovered(
                        failure.rank, type(policy).__name__, t0, rec.now() - t0
                    )
                attempt += 1


class Engine(EngineBase):
    """Executes plans on ``workers`` threads with rendezvous handoffs."""

    def __init__(
        self,
        workers: int | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        telemetry: Any = None,
        fault_plan: Any = None,
        recovery: Any = None,
    ) -> None:
        super().__init__(workers, timeout, telemetry, fault_plan, recovery)
        # Compiled-schedule cache: one compile+bind per plan object,
        # invalidated when the plan grows (incremental materialize) --
        # and with it the lane choice and its samples.
        self._cplan: CompiledPlan | None = None
        self._cplan_for: Plan | None = None
        self._bound: list[_BoundStream] = []
        self._inline: list | None = None
        #: Lanes the current (or last) execute ran on.
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

        Failures go through :meth:`EngineBase._recovering`: a typed
        ``RankFailure`` reaches the recovery policy, and a repaired plan
        re-executes only its not-done remainder.

        ``outputs`` is an optional hint naming the tids the caller will
        resolve afterwards.  The in-process engine ignores it (every
        task's value already lives in this address space); out-of-process
        engines (:class:`repro.engine.mp.MpEngine`) use it to ship only
        the needed values back.
        """
        del outputs  # every value is local; nothing to ship
        timeout = self.timeout if timeout is None else float(timeout)
        self._recovering(plan, lambda: self._attempt(plan, timeout))

    def _attempt(self, plan: Plan, timeout: float) -> None:
        """One pass over the not-done remainder: compile, pick lanes, run."""
        pending = [t for t in plan.tasks if not t.done]
        if not pending:
            return
        whole = len(pending) == self._compiled(plan).stats["tasks"]
        timed = whole and self._measuring()
        self.lanes = self._next_lanes() if timed else self._chosen_lanes()
        rec = self.telemetry
        if rec.enabled:
            rec.metrics.gauge("engine.lanes", self.lanes)
        t0 = self._clock()
        try:
            self._execute_compiled(pending, timeout)
        except RankFailure:
            # Tasks that finished before the failure stay done; count
            # them now because the success path below won't run.
            self.tasks_run += sum(1 for t in pending if t.done)
            raise
        if timed:
            self._lane_s[self.lanes].append(self._clock() - t0)
        self.tasks_run += len(pending)
        if whole:
            self._ran = True

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

    # ------------------------------------------------------------------
    # The compiled schedule (repro.engine.compile)
    # ------------------------------------------------------------------
    def _compiled(self, plan: Plan) -> CompiledPlan:
        """The compiled schedule for ``plan``, rebuilt when it grows.

        A rebuild also forgets the lane choice: the new schedule's grain
        picks its first execute's lanes and measuring starts over.
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

    def _grain(self) -> float | None:
        """The compiled plan's metered flops per task (``None``: unmetered)."""
        return self._cplan.stats["flops_per_task"] if self._cplan is not None else None

    def _predicted_lanes(self) -> int:
        """The grain's lane count: one lane below :data:`TWO_LANE_FLOPS`."""
        grain = self._grain()
        return 1 if grain is not None and grain < TWO_LANE_FLOPS else self.workers

    def _chosen_lanes(self) -> int:
        """The grain's prediction until both sides are sampled, then one
        lane only if the samples say it is clearly faster."""
        best = self._lane_verdict()
        if best is None:
            return self._predicted_lanes()
        return 1 if best[0] <= LANE_MARGIN * best[1] else self.workers

    def _measuring(self) -> bool:
        """True when a whole-plan replay is one the lane choice may time.

        Only replays of the already-executed cached plan count, and
        never with a fault plan or recovery policy installed: an attempt
        that may die and resume times nothing comparable (and retry
        attempts, which only a policy grants, never qualify).
        """
        return (
            self.workers > 1
            and self._ran
            and self._lane_verdict() is None
            and self.fault_plan is None
            and self.recovery is None
        )

    def _next_lanes(self) -> int:
        """Alternate: the lane count with fewer samples, ``workers`` first."""
        samples = self._lane_s
        return self.workers if len(samples[self.workers]) <= len(samples[1]) else 1

    def lanes_line(self) -> str:
        """One line for reports: the chosen lane count and its evidence.

        The evidence is the first execute's prediction (when the plan
        carries metered flops) and the replays' measurement.

        >>> Engine(workers=1).lanes_line()
        'lanes: 1 of 1 workers (not measured)'
        """
        head = f"lanes: {self._chosen_lanes()} of {self.workers} workers"
        best = self._lane_verdict()
        measured = "not measured" if best is None else (
            f"measured {best[0] * 1e3:.0f} ms on one lane vs "
            f"{best[1] * 1e3:.0f} ms on {self.workers}"
        )
        grain = self._grain()
        if self.workers == 1 or grain is None:
            return f"{head} ({measured})"
        mantissa, exp = f"{grain:.1e}".split("e")
        first = (
            "first execute inline" if self._predicted_lanes() == 1
            else f"first execute on {self.workers} lanes"
        )
        return f"{head} ({first}: {mantissa}e{int(exp)} flops/task; {measured})"

    def writes_line(self) -> str:
        """One line for reports: how the compiled plan hands over block writes.

        >>> Engine(workers=1).writes_line()
        'writes: 0 in place, 0 copied'
        """
        stats = self._cplan.stats if self._cplan is not None else {}
        return (
            f"writes: {stats.get('writes_in_place', 0)} in place, "
            f"{stats.get('writes_copied', 0)} copied"
        )

    def _inline_tasks(self) -> list:
        """Every stream's bound tasks, merged by tid for one thread to walk.

        Every producer has a lower tid than its readers, so each fetch
        finds its producer done and no rendezvous is needed.
        """
        if self._inline is None:
            self._inline = sorted(
                (bt for bs in self._bound for bt in bs.tasks),
                key=lambda bt: bt.task.tid,
            )
        return self._inline

    def _execute_compiled(self, pending: list[Task], timeout: float) -> None:
        """Run the not-done remainder on the compiled worker streams."""
        self._ctimeout[0] = timeout
        if self.lanes == 1:
            # One lane, zero rendezvous: run in the caller's thread
            # (nothing can block, so no guard).
            tasks = self._bound[0].tasks if self.workers == 1 else self._inline_tasks()
            self._run_stream(tasks, self._bound[0].waits, None)
            return
        # The one wiring site: every cross-worker producer that has yet
        # to run gets a *fresh* slot per attempt (whatever an aborted
        # attempt poisoned is dropped here); one already done
        # (incremental materialize, or a retry resuming past it) is read
        # directly by its consumers.
        for pub in self._cplan.publishers:
            task = pub.task
            task.rendezvous = None if task.done else RendezvousGroup(
                pub.consumers,
                label=(
                    f"t{task.tid}:{task.label} "
                    f"rank{task.rank}->ranks{sorted(pub.consumers)}"
                ),
                producer=f"t{task.tid}:{task.label} (rank {task.rank})",
            )
        live = [bs for bs in self._bound if any(not bt.task.done for bt in bs.tasks)]
        if live:
            self._execute_compiled_pool(live, pending, timeout)

    def _execute_compiled_pool(
        self, live: list["_BoundStream"], pending: list[Task], timeout: float
    ) -> None:
        """One pool job per live stream, with a progress-based guard.

        Streams block *inside* rendezvous fetches rather than parking in
        the scheduler, so the deadlock guard watches a per-task progress
        counter: no task completing for ``timeout`` seconds while work
        is outstanding trips :class:`EngineDeadlockError`.
        """
        progress = self._progress
        done_q: "queue.SimpleQueue[BaseException | None]" = queue.SimpleQueue()

        def run(bs: "_BoundStream") -> None:
            try:
                self._run_stream(bs.tasks, bs.waits, progress)
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
            raise injected_first([failure])
        if deadlock is not None:
            raise deadlock

    def _run_stream(
        self, tasks: list, waits: list[float], progress: list[int] | None
    ) -> None:
        """Walk bound tasks in order, skipping done ones.

        The per-task ``done`` flags are the resume points: a stream
        interrupted by a failure picks up at its first not-done task on
        the next attempt, and a rank's fault-injection step counter
        advances once per task run.  One telemetry span per task.
        """
        fp = self.fault_plan
        try:
            for bt in tasks:
                task = bt.task
                if task.done:
                    continue
                rec = self.telemetry
                enabled = rec.enabled
                if enabled:
                    t0 = rec.now()
                    waits[0] = 0.0
                if fp is not None and task.rank is not None:
                    fp.on_task(task.rank, task.label, telemetry=rec)
                task.value = bt.fn(*bt.make_args())
                rv = task.rendezvous
                if rv is not None:
                    rv.put(task.value)
                task.done = True
                if progress is not None:
                    progress[0] += 1
                if enabled:
                    rec.task_span(
                        task.label, task.tid, task.rank, t0, rec.now() - t0, waits[0]
                    )
        except RankFailure:
            raise
        except Exception as exc:
            raise EngineExecutionError(
                f"task t{task.tid} ({task.label!r}, rank={task.rank}) failed: {exc}"
            ) from exc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Engine(workers={self.workers}, lanes={self.lanes})"


class _BoundStream:
    """One worker's bound tasks plus its rendezvous-wait accumulator.

    The remote fetch closes over the owning engine's mutable timeout
    cell and reads ``engine.telemetry`` at call time, so a binding is
    valid across replays even as ``run_many`` re-points the recorder.
    """

    __slots__ = ("tasks", "waits")

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
        self.tasks = bind_stream(cplan, widx, None, remote_fetch)
