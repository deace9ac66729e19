"""The engine proper: run an execution plan on a real thread pool.

:class:`Engine` executes a :class:`~repro.engine.plan.Plan` as compiled
worker streams.  Before a plan first runs,
:func:`~repro.engine.compile.compile_plan` partitions its tasks over
its lanes (rank ``r`` belongs to lane ``r % lanes``), decides
which writes may go in place and pre-resolves every argument, from the
consumer map and ``Ref`` positions recording kept (a one-lane compile
walks no edge outside the write rule); each lane
is a flat list of bound tasks, walked in tid order -- a topological
order, so the walk is deadlock-free by construction -- on a
``ThreadPoolExecutor`` thread (a one-lane plan on the caller's
thread).  The local kernels the tasks wrap --
LAPACK factorizations, BLAS multiplies -- release the GIL, so with
``workers > 1`` on a multi-core host the lanes execute genuinely in
parallel, which is the machine model's DAG semantics made physical.
The schedule is compiled and bound once per plan and reused by every
replay.  A bound lane is plain data (:class:`~repro.engine.compile.BoundTask`):
the fetch a cross-lane read goes through is :meth:`Engine._fetch`,
passed in when a task runs, so nothing the engine keeps points back at
it, and a dropped engine and its plan are freed by reference counting.

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
``Engine.lanes`` is the compiled plan's lane count, and
``Engine.compile_s`` / ``Engine.bind_s`` what its last compile and bind
took (``repro trace`` prints them in its ``build:`` line).

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
from repro.engine.compile import (
    BoundTask,
    CompiledPlan,
    assign_slots,
    bind_stream,
    compile_plan,
    grain,
)
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
        #: RankFailure escapes an attempt, ``handle(failure, plan,
        #: attempt)`` may repair the plan and request a re-execution of
        #: whatever is no longer done.
        self.recovery = recovery

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
                if not policy.handle(failure, plan, attempt):
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
        #: Per lane, its bound tasks.  They hold no reference to this
        #: engine: a lane passes :meth:`_fetch` to each task it runs.
        self._bound: list[list[BoundTask]] = []
        #: Per lane, the seconds its current task waited in rendezvous
        #: fetches (read by telemetry).
        self._waits: list[float] = []
        #: The rendezvous timeout of the execute in progress.
        self._fetch_timeout = self.timeout
        #: Tasks completed, watched by the multi-lane deadlock guard.
        #: Lanes bump it without a lock: an update lost to a race still
        #: moves it, and a move is all the guard reads.
        self._progress = 0
        #: Set when the caller is interrupted mid-execute: every lane
        #: stops at its next task boundary.
        self._halt = False
        #: Wall seconds the last compile and bind of a plan took.
        self.compile_s = 0.0
        self.bind_s = 0.0
        #: The tasks :func:`~repro.engine.compile.assign_slots` gave a
        #: slot, unslotted again when a plan is (re)compiled.
        self._slotted: list[Task] = []

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

        ``outputs`` names the tids the caller will resolve afterwards.
        Out-of-process engines (:class:`repro.engine.mp.MpEngine`) ship
        only those values back; this one gives slots by it: after the
        first execute of a compiled plan that ran all of it, with no
        fault plan or recovery installed, every task whose value shares
        no buffer with ``outputs`` and whose kernel can write into its
        last value gets a slot (:func:`~repro.engine.compile.assign_slots`).
        So a replay may overwrite any value outside ``outputs``; with
        ``outputs=None`` no slot is given.
        """
        timeout = self.timeout if timeout is None else float(timeout)
        self._recovering(plan, lambda: self._attempt(plan, timeout, outputs))

    @property
    def lanes(self) -> int:
        """Lanes of the compiled plan (``workers`` before any compile)."""
        return self._cplan.workers if self._cplan is not None else self.workers

    def _attempt(self, plan: Plan, timeout: float, outputs: Any) -> None:
        """One pass over the not-done remainder: compile, run, give slots."""
        pending = [t for t in plan.tasks if not t.done]
        if not pending:
            return
        before = self._cplan
        cplan = self._compiled(plan)
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
        if (cplan is not before and len(pending) == cplan.stats["tasks"]
                and outputs is not None and self.fault_plan is None and self.recovery is None):
            self._slotted = assign_slots(plan, cplan, self._bound, outputs)
            cplan.stats["slots"] = len(self._slotted)

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
        for task in self._slotted:
            task.slot = False
        self._slotted = []
        fine = grain(plan)
        lanes = 1 if fine is not None and fine < TWO_LANE_FLOPS else self.workers
        t0 = time.perf_counter()
        cplan = compile_plan(plan, lanes)
        t1 = time.perf_counter()
        self._bound = [bind_stream(cplan, widx) for widx in range(cplan.workers)]
        self.compile_s, self.bind_s = t1 - t0, time.perf_counter() - t1
        self._waits = [0.0] * cplan.workers
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

    def build_line(self, record_s: float, materialize_s: float) -> str:
        """One line for reports: where a plan's first job spent its time.

        ``record_s`` and ``materialize_s`` are the recording and the
        first ``materialize`` (compile + bind + first execute) as the
        caller timed them; the compile and bind are this engine's last.

        >>> Engine(workers=1).build_line(0.0412, 0.0345)
        'build: record 41.2 ms, compile 0.0 ms, bind 0.0 ms, first execute 34.5 ms'
        """
        execute_s = materialize_s - self.compile_s - self.bind_s
        return (
            f"build: record {record_s * 1e3:.1f} ms, compile {self.compile_s * 1e3:.1f} ms, "
            f"bind {self.bind_s * 1e3:.1f} ms, first execute {execute_s * 1e3:.1f} ms"
        )

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
        self._fetch_timeout = timeout
        self._halt = False
        if self._cplan.workers == 1:
            # One lane, zero rendezvous: run in the caller's thread
            # (nothing can block, so no guard).
            self._run_stream(0)
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
        live = [
            widx for widx, lane in enumerate(self._bound)
            if any(not bt.task.done for bt in lane)
        ]
        if live:
            self._execute_compiled_pool(live, pending, timeout)

    def _execute_compiled_pool(
        self, live: list[int], pending: list[Task], timeout: float
    ) -> None:
        """One pool job per live lane, with a progress-based guard.

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
        done_q: "queue.SimpleQueue[BaseException | None]" = queue.SimpleQueue()

        def run(widx: int) -> None:
            try:
                self._run_stream(widx)
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
                for widx in live:
                    pool.submit(run, widx)
                last = self._progress
                stall = 0.0
                while remaining:
                    try:
                        exc = done_q.get(timeout=poll)
                    except queue.Empty:
                        if failure is not None or deadlock is not None:
                            continue  # joining: the slots are already poisoned
                        if self._progress != last:
                            last = self._progress
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
                    last = self._progress
                    stall = 0.0
                    if exc is not None and failure is None and deadlock is None:
                        failure = exc
                        self._abort(pending, exc)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                interrupt = exc
                self._halt = True
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

    def _run_stream(self, widx: int) -> None:
        """Walk lane ``widx``'s bound tasks in order, skipping done ones.

        The per-task ``done`` flags are the resume points: a lane
        interrupted by a failure picks up at its first not-done task on
        the next attempt, and a rank's fault-injection step counter
        advances once per task run.  One telemetry span per task.
        """
        fp = self.fault_plan
        fetch = self._fetch
        waits = self._waits
        try:
            for bt in self._bound[widx]:
                task = bt.task
                if task.done:
                    continue
                if self._halt:
                    return
                rec = self.telemetry
                enabled = rec.enabled
                if enabled:
                    t0 = rec.now()
                    waits[widx] = 0.0
                if fp is not None and task.rank is not None:
                    fp.on_task(task.rank, task.label, telemetry=rec)
                task.value = bt.run(fetch)
                rv = task.rendezvous
                if rv is not None:
                    rv.put(task.value)
                task.done = True
                self._progress += 1
                if enabled:
                    rec.task_span(
                        task.label, task.tid, task.rank, t0, rec.now() - t0, waits[widx]
                    )
        except RankFailure:
            raise
        except Exception as exc:
            raise EngineExecutionError(
                f"task t{task.tid} ({task.label!r}, rank={task.rank}) failed: {exc}"
            ) from exc

    def _fetch(self, dep: Task, consumer: Task) -> Any:
        """A cross-lane producer's value, taken from its rendezvous slot.

        The fetch every lane passes to :meth:`BoundTask.run
        <repro.engine.compile.BoundTask.run>`.  Reads the timeout and
        ``self.telemetry`` at call time, so a binding is valid across
        replays even as ``run_many`` re-points the recorder.
        """
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
        rec = self.telemetry
        if not rec.enabled:
            return rv.get(self._fetch_timeout, consumer=consumer.rank)
        t0 = time.perf_counter()
        value = rv.get(self._fetch_timeout, consumer=consumer.rank)
        waited = time.perf_counter() - t0
        self._waits[self._cplan.owner[consumer.tid]] += waited
        rec.rendezvous_wait(dep.label, consumer.rank, waited)
        return value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Engine(workers={self.workers}, lanes={self.lanes})"

