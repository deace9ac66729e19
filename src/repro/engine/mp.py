"""True multi-core execution: plans replayed on a worker-process pool.

:class:`MpEngine` is the ``backend="parallel-mp"`` executor.  It runs
the *same* execution plans the thread engine runs -- recorded by the
same machine, metered identically, bit-identical results pinned by
``tests/test_mp_backend.py`` -- but on a persistent pool of **forked
worker processes**, so per-rank streams execute on real cores with no
GIL in the way.

The design, end to end:

* **Plan shipping** -- the plan's tasks hold lambdas (``lambda a:
  a[idx]``), which do not pickle; the pool therefore uses the ``fork``
  start method and ships the fully-recorded plan *once* by
  address-space inheritance.  :func:`mp_supported` reports whether the
  platform offers fork + POSIX shared memory (Linux/macOS do,
  spawn-only platforms do not); the conformance suite skips cleanly
  elsewhere.
* **Ownership** -- every worker compiles the inherited plan post-fork
  with :func:`~repro.engine.compile.compile_plan` (``W`` lanes,
  ``replicate_rankless=True``): the compile is pure and deterministic,
  so all workers agree on the schedule without communicating.  Rank
  ``r``'s stream belongs to worker ``r % W``; rankless tasks
  (constants, harness-side joins) are cheap, pure, and
  deterministic, so every worker replicates them locally instead of
  paying IPC for their values.  Each worker walks its stream -- a flat
  list of bound tasks, arguments pre-resolved, in-place writes decided
  by the same compile -- in tid order, a topological order,
  so per-worker execution is sequential and the global order is
  deadlock-free by construction (two blocked workers would each need a
  lower tid than the other, a contradiction).
* **Input leaves over shared memory** -- each ndarray input leaf gets
  one ``multiprocessing.shared_memory`` segment, created and written
  by the parent *before* the fork and re-written on every replay
  (:meth:`Plan.rebind` keeps shapes fixed, so segments are allocated
  once).  Workers read zero-copy views of the inherited mappings; the
  parent owns the segments and unlinks them in :meth:`MpEngine.close`.
* **Process-safe rendezvous** -- a cross-worker value edge is a
  message ``(epoch, "val", tid, value)`` into the consuming worker's
  inbox queue, sent eagerly by the producing worker the moment the
  value exists.  A starved consumer raises
  :class:`~repro.collectives.rendezvous.RendezvousTimeout` through the
  same :func:`~repro.collectives.rendezvous.starvation_message`
  formatter as the thread engine's ``RendezvousGroup`` -- naming the
  producer task, the elapsed wait, ``executor=process``, and the
  worker's pid.  A failing worker broadcasts a *poison* message to its
  siblings, so blocked consumers release in milliseconds with
  :class:`~repro.collectives.rendezvous.RendezvousAborted` (the real
  cause chained), exactly the thread engine's abort semantics.
* **Results and telemetry** -- ``execute(plan, outputs=...)`` names
  the tids whose values the caller will resolve; workers ship exactly
  those back (plus their task spans and fault-plan state), the parent
  binds them into the plan and replays the spans into the active
  recorder with ``worker="pid<N>"`` attribution -- one Chrome-trace
  track per worker process.
* **Faults** -- workers consult the inherited ``FaultPlan`` per
  task-step; a typed :class:`~repro.machine.exceptions.RankFailure` is
  re-raised unwrapped in the parent, and the parent absorbs each
  worker's fire-once state so ``fault_plan.fired`` stays truthful.
  Engine-repair policies (``CodedRecovery``) need in-process plan
  surgery, which is why the ``parallel-mp`` backend honestly declares
  ``faults="inject"``, not ``"recover"``.

Paper anchor: Section 3 (the task DAG executed with real concurrency);
Section 8.4 (amortizing one plan over a job stream, here across
processes).
"""

from __future__ import annotations

import os
import queue as queue_mod
import time
import traceback
import weakref
from typing import Any, Iterable

import multiprocessing

import numpy as np

from repro.collectives.rendezvous import (
    DEFAULT_TIMEOUT,
    RendezvousAborted,
    RendezvousTimeout,
    abort_release_message,
    starvation_message,
)
from repro.engine.compile import bind_stream, compile_plan
from repro.engine.executor import (
    EngineBase,
    EngineDeadlockError,
    EngineExecutionError,
    injected_first,
)
from repro.engine.plan import EngineError, Plan, Task
from repro.machine.exceptions import RankFailure

__all__ = ["MpEngine", "mp_supported"]


def mp_supported() -> bool:
    """True when this platform can run the ``parallel-mp`` backend.

    Requires the ``fork`` start method (plan tasks hold lambdas, which
    do not pickle, so the plan ships by address-space inheritance,
    never by pickle) and POSIX shared memory for the input leaves.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return False
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - all supported pythons have it
        return False
    return True


# ----------------------------------------------------------------------
# Failure transport (exceptions crossing the process boundary)
# ----------------------------------------------------------------------

def _encode_exc(exc: BaseException, task: Task | None = None) -> tuple:
    """Flatten an exception into a picklable description."""
    if isinstance(exc, RankFailure):
        return ("rankfail", exc.rank, exc.step, exc.label, exc.where)
    ctx = (task.tid, task.label, task.rank) if task is not None else None
    return ("error", type(exc).__name__, str(exc), traceback.format_exc(), ctx)


def _decode_exc(enc: tuple) -> BaseException:
    """Rebuild a parent-side exception from :func:`_encode_exc` output."""
    if enc[0] == "rankfail":
        return RankFailure(enc[1], enc[2], label=enc[3], where=enc[4])
    _, name, text, tb, ctx = enc
    if ctx is not None:
        tid, label, rank = ctx
        msg = (
            f"task t{tid} ({label!r}, rank={rank}) failed in worker "
            f"process: {name}: {text}"
        )
    else:
        msg = f"worker process failed: {name}: {text}"
    return EngineExecutionError(f"{msg}\n--- worker traceback ---\n{tb}")


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------

def _worker_main(
    idx: int,
    W: int,
    plan: Plan,
    cmd_q: Any,
    inboxes: list[Any],
    result_q: Any,
    shm_specs: dict[int, tuple[Any, tuple, Any]],
    fault_plan: Any,
) -> None:
    """One pool worker: run this worker's compiled stream per epoch.

    Inherits ``plan`` (and ``fault_plan``) through fork; parent-side
    mutations after the fork are invisible, which is exactly why input
    leaves travel through shared memory and everything else is fixed at
    ship time.

    The stream is compiled and bound exactly once per pool lifetime;
    each epoch re-runs every task (the plan's per-task ``done`` flags
    live in the parent -- workers own no retry state).  The bound tasks
    are plain data; each gets the worker's one ``fetch`` when it runs,
    which serves an input leaf from shared memory (or the epoch's
    non-array leaves) and any other value from the inbox, reading the
    epoch's leaves, timeout and mailbox at call time.  Values persist on the
    (copy-on-write private) ``task.value`` slots; tid order guarantees a
    consumer's same-worker producers re-ran earlier in the same epoch.
    """
    pid = os.getpid()
    leaf_views = {
        tid: np.ndarray(shape, dtype=dtype, buffer=seg.buf)
        for tid, (seg, shape, dtype) in shm_specs.items()
    }
    cplan = compile_plan(plan, W, replicate_rankless=True)
    my_inbox = inboxes[idx]
    # The current epoch's command, read by fetch at call time.
    epoch, timeout, extra, mailbox = 0, DEFAULT_TIMEOUT, {}, {}
    wait_events: list[tuple] = []
    waited = 0.0  # seconds the current task spent blocked in fetches

    def fetch(dep: Task, consumer: Task) -> Any:
        """An input leaf's value, or a blocking take of a cross-worker one."""
        nonlocal waited
        if dep.is_input:
            return extra[dep.tid] if dep.tid in extra else leaf_views[dep.tid]
        if dep.tid in mailbox:
            return mailbox[dep.tid]
        producer = f"t{dep.tid}:{dep.label} (rank {dep.rank})"
        label = f"t{dep.tid}:{dep.label} rank{dep.rank}->worker{idx}"
        start = time.perf_counter()
        deadline = start + timeout
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise RendezvousTimeout(
                    starvation_message(
                        label, consumer.rank,
                        time.perf_counter() - start, producer,
                        flavor="process", pid=pid,
                    )
                )
            try:
                msg = my_inbox.get(timeout=remaining)
            except queue_mod.Empty:
                continue
            m_epoch, kind = msg[0], msg[1]
            if m_epoch != epoch:
                continue  # stale message from an aborted epoch
            if kind == "poison":
                cause = _decode_exc(msg[2])
                raise RendezvousAborted(
                    abort_release_message(
                        label, consumer.rank, producer, cause,
                        flavor="process", pid=pid,
                    )
                ) from cause
            _, _, tid, value = msg
            mailbox[tid] = value
            if tid == dep.tid:
                elapsed = time.perf_counter() - start
                waited += elapsed
                wait_events.append((dep.label, consumer.rank, elapsed))
                return value

    bound = bind_stream(cplan, idx, fetch_inputs=True)
    my_sends = {
        pub.task.tid: tuple(sorted(pub.dest_workers))
        for pub in cplan.publishers
        if cplan.owner[pub.task.tid] == idx
    }
    my_tids = {bt.task.tid for bt in bound}

    while True:
        cmd = cmd_q.get()
        if cmd[0] == "stop":
            break
        _, epoch, output_tids, telem_on, extra, timeout = cmd
        mailbox = {}
        wait_events = []
        spans: list[tuple] = []
        n_run = 0
        current: Task | None = None
        try:
            for bt in bound:
                task = current = bt.task
                t0 = time.perf_counter() if telem_on else 0.0
                waited = 0.0
                if fault_plan is not None and task.rank is not None:
                    fault_plan.on_task(task.rank, task.label)
                value = bt.run(fetch)
                task.value = value
                n_run += 1
                for j in my_sends.get(task.tid, ()):
                    inboxes[j].put((epoch, "val", task.tid, value))
                if telem_on:
                    spans.append((
                        task.label, task.tid, task.rank,
                        t0, time.perf_counter() - t0, waited,
                    ))
        except BaseException as exc:  # noqa: BLE001 - reported to the parent
            enc = _encode_exc(exc, current)
            if not isinstance(exc, RendezvousAborted):
                # First failure poisons the siblings; a release raised
                # *by* a poison is secondary and must not re-broadcast.
                for j, box in enumerate(inboxes):
                    if j != idx:
                        box.put((epoch, "poison", enc))
            result_q.put((
                "fail", idx, epoch, enc, pid,
                fault_plan.snapshot() if fault_plan is not None else None,
            ))
            continue

        out = {
            tid: plan.tasks[tid].value
            for tid in output_tids
            if tid in my_tids
            and (plan.tasks[tid].rank is not None or idx == 0)
        }
        result_q.put((
            "done", idx, epoch, out, pid, spans, wait_events, n_run,
            fault_plan.snapshot() if fault_plan is not None else None,
        ))


# ----------------------------------------------------------------------
# Parent-side engine
# ----------------------------------------------------------------------

def _teardown(owner_pid: int, procs: list, cmd_qs: list, segments: list) -> None:
    """Best-effort pool/segment cleanup (close() and the GC finalizer).

    Only the process that forked the pool may tear it down.  A worker
    of a *later* pool inherits this engine's finalizer through fork; if
    its garbage collector fires it there, stopping the workers, joining
    them (not its children) and unlinking the segments would sabotage
    the parent's live pool -- so anywhere but in ``owner_pid`` this is
    a no-op.
    """
    if os.getpid() != owner_pid:
        return
    for q in cmd_qs:
        try:
            q.put(("stop",))
        except (ValueError, OSError):  # pragma: no cover - queue gone
            pass
    for p in procs:
        p.join(timeout=5.0)
    for p in procs:
        if p.is_alive():  # pragma: no cover - stop normally suffices
            p.terminate()
            p.join(timeout=5.0)
    for q in cmd_qs:
        q.close()
        q.cancel_join_thread()
    for seg in segments:
        try:
            seg.close()
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


class MpEngine(EngineBase):
    """Executes plans on a persistent pool of forked worker processes.

    Drop-in for :class:`~repro.engine.executor.Engine` at the machine
    seam: same constructor shape, same ``telemetry`` / ``fault_plan`` /
    ``recovery`` attributes, same ``execute(plan, timeout=...)`` entry
    point.  The one addition is ``outputs=`` -- the tids whose values
    must ship back to the parent for :func:`~repro.engine.lazy.resolve`
    (``Machine.materialize`` and ``run_many`` replay pass them
    automatically).

    The pool is shipped lazily on the first ``execute`` of a plan and
    *persists* across calls, which is what makes ``run_many`` warm
    replay cheap: a replay writes the new leaves into shared memory,
    sends one run command, and collects the outputs.  Recording more
    tasks after the ship (incremental materialize) re-ships
    transparently.  :meth:`close` tears the pool down and unlinks every
    shared-memory segment; an engine dropped without ``close()`` is
    cleaned up by a GC finalizer.
    """

    #: Engine flavor named in rendezvous diagnostics.
    flavor = "process"

    def __init__(
        self,
        workers: int | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        telemetry: Any = None,
        fault_plan: Any = None,
        recovery: Any = None,
    ) -> None:
        super().__init__(workers, timeout, telemetry, fault_plan, recovery)
        self._pool: list = []
        self._cmd_qs: list = []
        self._inboxes: list = []
        self._result_q: Any = None
        self._shm: dict[int, tuple[Any, tuple, Any]] = {}
        self._views: dict[int, np.ndarray] = {}
        self._shipped_plan: Plan | None = None
        self._shipped_len = 0
        self._epoch = 0
        self._finalizer = None
        #: pid of the process that forked the pool (set when it ships).
        self._owner_pid = 0

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True while the worker pool is up (shipped and not closed)."""
        return bool(self._pool) and all(p.is_alive() for p in self._pool)

    def close(self) -> None:
        """Stop the workers, join them, and unlink every shm segment.

        Idempotent.  After this call no child process of the pool is
        alive and every shared-memory segment is closed *and* unlinked
        (re-attaching by name raises ``FileNotFoundError``).
        """
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        self._views.clear()  # views export shm buffers; drop before close
        segments = [seg for seg, _, _ in self._shm.values()]
        if self._pool or segments:
            _teardown(self._owner_pid, self._pool, self._cmd_qs, segments)
        self._pool = []
        self._cmd_qs = []
        self._inboxes = []
        self._result_q = None
        self._shm = {}
        self._shipped_plan = None
        self._shipped_len = 0

    def _ship(self, plan: Plan) -> None:
        """Fork the worker pool with ``plan`` (and the shm leaves) inside."""
        if not mp_supported():
            raise EngineError(
                "backend 'parallel-mp' requires the fork start method and "
                "POSIX shared memory (plan thunks do not pickle, so spawn "
                "cannot ship them); use backend='parallel' on this platform"
            )
        self.close()
        from multiprocessing import shared_memory

        self._owner_pid = os.getpid()
        ctx = multiprocessing.get_context("fork")
        for leaf in plan.inputs:
            value = leaf.value
            if not isinstance(value, np.ndarray):
                continue  # rare non-array leaf: shipped per-epoch instead
            value = np.asarray(value)
            seg = shared_memory.SharedMemory(create=True, size=max(1, value.nbytes))
            view = np.ndarray(value.shape, dtype=value.dtype, buffer=seg.buf)
            self._shm[leaf.tid] = (seg, value.shape, value.dtype)
            self._views[leaf.tid] = view
        W = self.workers
        self._cmd_qs = [ctx.Queue() for _ in range(W)]
        self._inboxes = [ctx.Queue() for _ in range(W)]
        self._result_q = ctx.Queue()
        self._pool = []
        for idx in range(W):
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    idx, W, plan, self._cmd_qs[idx], self._inboxes,
                    self._result_q, self._shm, self.fault_plan,
                ),
                name=f"repro-mp-{idx}",
                daemon=True,
            )
            proc.start()
            self._pool.append(proc)
        self._shipped_plan = plan
        self._shipped_len = len(plan.tasks)
        self._epoch = 0
        self._finalizer = weakref.finalize(
            self, _teardown, self._owner_pid, self._pool, self._cmd_qs,
            [seg for seg, _, _ in self._shm.values()],
        )

    def _write_leaves(self, plan: Plan) -> dict[int, Any]:
        """Publish current leaf values into shm; return the non-shm rest."""
        extra: dict[int, Any] = {}
        for leaf in plan.inputs:
            spec = self._shm.get(leaf.tid)
            if spec is None:
                extra[leaf.tid] = leaf.value
                continue
            _, shape, dtype = spec
            value = np.asarray(leaf.value)
            if value.shape != shape or value.dtype != dtype:
                raise EngineError(
                    f"leaf t{leaf.tid} changed layout since the pool was "
                    f"shipped: {value.shape}/{value.dtype} != {shape}/{dtype}"
                )
            np.copyto(self._views[leaf.tid], value)
        return extra

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        plan: Plan,
        timeout: float | None = None,
        outputs: Iterable[int] | None = None,
    ) -> None:
        """Run every pending task of ``plan`` on the worker pool.

        ``outputs`` names the tids whose values the caller resolves;
        exactly those are shipped back and bound into the parent's
        plan.  Failure semantics mirror the thread engine: a typed
        :class:`RankFailure` re-raises unwrapped (after the recovery
        policy, if any, declines), any other worker exception raises
        :class:`EngineExecutionError` with the worker traceback, and a
        silent pool raises :class:`EngineDeadlockError`.
        """
        timeout = self.timeout if timeout is None else float(timeout)
        output_tids = tuple(dict.fromkeys(int(t) for t in (outputs or ())))
        needed = [
            tid for tid in output_tids
            if not plan.tasks[tid].is_input and plan.tasks[tid].value is None
        ]
        if not any(not t.done for t in plan.tasks) and not needed:
            return
        if (
            not self._pool
            or self._shipped_plan is not plan
            or self._shipped_len != len(plan.tasks)
        ):
            self._ship(plan)
        results = self._recovering(
            plan, lambda: self._run_epoch(plan, output_tids, timeout)
        )
        self._commit(plan, results)

    def _run_epoch(
        self, plan: Plan, output_tids: tuple[int, ...], timeout: float
    ) -> list[tuple]:
        """One pool round trip: command every worker, gather every reply."""
        extra = self._write_leaves(plan)
        self._epoch += 1
        epoch = self._epoch
        telem_on = bool(self.telemetry.enabled)
        for q in self._cmd_qs:
            q.put(("run", epoch, output_tids, telem_on, extra, timeout))
        replies: list[tuple] = []
        # The workers' own waits are bounded by `timeout`, so a healthy
        # pool always answers within it (plus slack for teardown).
        deadline = time.perf_counter() + timeout + 10.0
        while len(replies) < self.workers:
            remaining = deadline - time.perf_counter()
            try:
                msg = self._result_q.get(timeout=max(0.1, remaining))
            except queue_mod.Empty:
                guard = EngineDeadlockError(
                    f"worker pool went silent: {len(replies)}/{self.workers} "
                    f"replies within {timeout}s (deadlock guard); pool closed"
                )
                self.close()
                raise guard from None
            if msg[2] != epoch:
                continue  # reply from an aborted earlier epoch
            replies.append(msg)
        failures = [m for m in replies if m[0] == "fail"]
        fp = self.fault_plan
        if fp is not None:
            for m in replies:
                snap = m[-1]
                if snap is not None:
                    fp.absorb(snap)
        if failures:
            # The failure to report: injected > original > poison-release
            # (a sibling the poison released is secondary).
            encs = [m[3] for m in failures]
            originals = [
                enc for enc in encs if enc[:2] != ("error", "RendezvousAborted")
            ]
            raise injected_first([_decode_exc(enc) for enc in originals or encs])
        return replies

    def _commit(self, plan: Plan, replies: list[tuple]) -> None:
        """Bind shipped outputs, mark the plan done, replay telemetry."""
        rec = self.telemetry
        for _, _, _, out, pid, spans, wait_events, _, _ in replies:
            for tid, value in out.items():
                plan.tasks[tid].value = value
            if rec.enabled:
                base = getattr(rec, "epoch", 0.0)
                for label, tid, rank, t0, dur, wait_s in spans:
                    rec.task_span(
                        label, tid, rank, t0 - base, dur, wait_s, worker=f"pid{pid}"
                    )
                for producer_label, consumer, seconds in wait_events:
                    rec.rendezvous_wait(producer_label, consumer, seconds)
        for task in plan.tasks:
            task.done = True
        self.tasks_run += sum(1 for t in plan.tasks if not t.is_input)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self.alive else "cold"
        return f"MpEngine(workers={self.workers}, {state})"
