"""The engine proper: run an execution plan on a real thread pool.

:class:`Engine` executes a :class:`~repro.engine.plan.Plan` as compiled
worker streams.  Before a plan first runs,
:func:`~repro.engine.compile.compile_plan` partitions its tasks over
its lanes (rank ``r`` belongs to lane ``r % lanes``), decides
which writes may go in place and pre-resolves every argument; each lane
is a flat list of bound tasks, walked in tid order -- a topological
order, so the walk is deadlock-free by construction -- on a
``ThreadPoolExecutor`` thread (a one-lane plan on the caller's
thread).  The local kernels the tasks wrap --
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
So each compiled plan gets one lane count, set once from its **grain**
-- the flops the machine metered while recording it, per recorded task
(:func:`~repro.engine.compile.grain`, reported as
``stats["flops_per_task"]`` of
:func:`~repro.engine.compile.compile_plan`): a grain of at least
:data:`TWO_LANE_FLOPS` compiles for ``workers`` lanes, a finer one for
**one lane** that the caller's thread walks -- no pool, no rendezvous.
A plan with no metered flops (built by hand) gets ``workers`` lanes.
A plan that grows is recompiled, and the rule is applied again.
``Engine.lanes`` is the compiled plan's lane count.

**Failure semantics.**  When any task raises, the engine *aborts* the
attempt: every wired-but-unpublished rendezvous is poisoned with the
original exception, so consumers blocked in a wait release in
milliseconds (raising
:class:`~repro.collectives.rendezvous.RendezvousAborted` with the cause
chained) instead of burning the deadlock-guard timeout, and no worker
thread outlives :meth:`Engine.execute`.  An interrupt (``KeyboardInterrupt``)
that reaches the calling thread while it waits on the lanes does the
same and also stops every lane at its next task boundary; it is
re-raised unwrapped once they have joined.  A typed
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
from repro.engine.compile import CompiledPlan, bind_stream, compile_plan, grain
from repro.engine.plan import EngineError, Plan, Task
from repro.machine.exceptions import RankFailure
from repro.telemetry.recorder import NULL_RECORDER

__all__ = ["Engine", "EngineDeadlockError", "EngineExecutionError", "default_workers"]

#: The grain (metered flops per recorded task) from which a plan is
#: compiled for ``workers`` lanes; a finer plan is compiled for one.  The
#: benchmark's three workloads (P = 8) straddle it -- first executes
#: measured in-process on a 2-vCPU host, ``workers=2``, BLAS pinned to
#: one thread:
#:
#: ==========================================  ============  =======  ========
#: workload                                    flops / task  2 lanes  one lane
#: ==========================================  ============  =======  ========
#: ``tallskinny`` (tsqr 32768x64)              1.2e7         46 ms    71 ms
#: ``squarish3d`` (caqr3d 1024x256)            1.3e5         86 ms    52 ms
#: ``grid2d-percolumn`` (house2d 384x96)       1.9e3         89 ms    28 ms
#: ==========================================  ============  =======  ========
#:
#: Replays timed on both lane counts picked the same side on all three.
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


def _sci(x: float, digits: int) -> str:
    """``x`` in short scientific notation: ``_sci(1900.0, 1) == '1.9e3'``."""
    mantissa, exp = f"{x:.{digits}e}".split("e")
    return f"{mantissa}e{int(exp)}"


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

    def close(self) -> None:
        """Release what outlives an execute (nothing, in process)."""

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
        # and with it the lane count.
        self._cplan: CompiledPlan | None = None
        self._cplan_for: Plan | None = None
        self._bound: list[_BoundStream] = []
        # Mutable cells shared with the bound fetch closures (the
        # binding outlives any single execute() call).
        self._ctimeout = [self.timeout]
        self._progress = [0]
        # Set when the caller is interrupted mid-execute: every stream
        # stops at its next task boundary.
        self._halt = [False]

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

    @property
    def lanes(self) -> int:
        """Lanes of the compiled plan (``workers`` before any compile)."""
        return self._cplan.workers if self._cplan is not None else self.workers

    def _attempt(self, plan: Plan, timeout: float) -> None:
        """One pass over the not-done remainder: compile, then run."""
        pending = [t for t in plan.tasks if not t.done]
        if not pending:
            return
        self._compiled(plan)
        rec = self.telemetry
        if rec.enabled:
            rec.metrics.gauge("engine.lanes", self.lanes)
        try:
            self._execute_compiled(pending, timeout)
        except RankFailure:
            # Tasks that finished before the failure stay done; count
            # them now because the success path below won't run.
            self.tasks_run += sum(1 for t in pending if t.done)
            raise
        self.tasks_run += len(pending)

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

        The one lane decision: a plan whose grain is below
        :data:`TWO_LANE_FLOPS` is compiled for one lane, any other for
        ``workers``.  A rebuild decides again.
        """
        if self._cplan_for is plan and self._cplan.n_tasks == len(plan.tasks):
            return self._cplan
        fine = grain(plan)
        lanes = 1 if fine is not None and fine < TWO_LANE_FLOPS else self.workers
        cplan = compile_plan(plan, lanes)
        self._bound = [
            _BoundStream(self, cplan, widx) for widx in range(cplan.workers)
        ]
        self._cplan = cplan
        self._cplan_for = plan
        return cplan

    def lanes_line(self) -> str:
        """One line for reports: the lane count and the grain that set it.

        >>> Engine(workers=2).lanes_line()
        'lanes: 2 of 2 workers (no metered flops)'
        """
        head = f"lanes: {self.lanes} of {self.workers} workers"
        fine = self._cplan.stats["flops_per_task"] if self._cplan is not None else None
        if fine is None:
            return f"{head} (no metered flops)"
        side = "<" if fine < TWO_LANE_FLOPS else ">="
        return f"{head} (grain {_sci(fine, 1)} flops/task {side} {_sci(TWO_LANE_FLOPS, 0)})"

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

    def _execute_compiled(self, pending: list[Task], timeout: float) -> None:
        """Run the not-done remainder on the compiled worker streams."""
        self._ctimeout[0] = timeout
        self._halt[0] = False
        if self._cplan.workers == 1:
            # One lane, zero rendezvous: run in the caller's thread
            # (nothing can block, so no guard).
            self._run_stream(self._bound[0].tasks, self._bound[0].waits, None)
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

        An exception raised in the caller's own wait (``KeyboardInterrupt``)
        poisons the pending slots and stops every stream at its next task
        boundary; it is re-raised unwrapped once the pool has joined.
        Every stream reports once, so the wait loop is also the join: an
        interrupt while the streams wind down after a failure is caught
        the same way.
        """
        progress = self._progress
        halt = self._halt
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
        interrupt: BaseException | None = None
        poll = min(timeout, 0.25)
        with ThreadPoolExecutor(max_workers=min(self.workers, len(live))) as pool:
            try:
                for bs in live:
                    pool.submit(run, bs)
                last = progress[0]
                stall = 0.0
                while remaining:
                    try:
                        exc = done_q.get(timeout=poll)
                    except queue.Empty:
                        if failure is not None or deadlock is not None:
                            continue  # joining: the slots are already poisoned
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
                        continue
                    remaining -= 1
                    last = progress[0]
                    stall = 0.0
                    if exc is not None and failure is None and deadlock is None:
                        failure = exc
                        self._abort(pending, exc)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                interrupt = exc
                halt[0] = True
                self._abort(pending, exc)
        # Every stream has reported or (after an interrupt) the `with`
        # block joined it: poisoned slots release blocked streams in
        # milliseconds, a halt ends the others.
        if interrupt is not None:
            raise interrupt
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
        halt = self._halt
        try:
            for bt in tasks:
                task = bt.task
                if task.done:
                    continue
                if halt[0]:
                    return
                rec = self.telemetry
                enabled = rec.enabled
                if enabled:
                    t0 = rec.now()
                    waits[0] = 0.0
                if fp is not None and task.rank is not None:
                    fp.on_task(task.rank, task.label, telemetry=rec)
                task.value = bt.run()
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
