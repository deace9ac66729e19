"""The simulated distributed-memory machine (paper Section 3).

A :class:`Machine` is a set of ``P`` processors with unbounded local
memory.  Algorithms move numpy arrays between processors with
:meth:`Machine.transfer` and charge arithmetic with
:meth:`Machine.compute`.  The machine is the *single authority* for cost
accounting: all flops, words, and messages flow through it, and
per-metric critical paths are tracked exactly (see
:mod:`repro.machine.clocks`).

Data locality is a convention enforced by the distributed containers in
:mod:`repro.dist`: the machine itself only meters movement.  A message of
``w`` words costs ``alpha + w*beta`` at *both* endpoints and the receive
happens-after the send, exactly the paper's DAG semantics.

Paper anchor: Section 3 (machine model and DAG semantics).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.backend import SymbolicArray
from repro.backend.registry import Backend, resolve_backend
from repro.machine.clocks import ClockSet
from repro.machine.cost_model import CostParams, CostReport
from repro.machine.exceptions import MachineError, ParameterError
from repro.machine.tracing import Trace
from repro.telemetry.recorder import current_recorder


class Meta:
    """Zero-cost routing metadata riding along a message.

    Models the envelope information (source/destination tags, counts,
    displacements) that MPI carries outside the user payload; it does not
    count toward the message's word cost.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Meta({self.value!r})"


class Counted:
    """A message payload with a precomputed word count.

    Collectives that track block identity out-of-band (the all-to-alls,
    whose in-flight blocks live in per-processor holding lists) use this
    to avoid re-assembling a list of every array on every hop just so
    :func:`words_of` can re-count it.  The charged cost is identical to
    sending the blocks themselves; only the Python-side bookkeeping is
    cheaper.
    """

    __slots__ = ("words",)

    def __init__(self, words: int) -> None:
        self.words = int(words)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counted({self.words})"


def words_of(payload: Any) -> int:
    """Number of words in a message payload.

    Payloads are numpy arrays, python scalars (1 word), or (possibly
    nested) sequences thereof.  ``None`` contributes 0 words and
    :class:`Meta` wrappers are free, so routing tags can ride along in
    structured payloads.
    """
    if payload is None or isinstance(payload, Meta):
        return 0
    if isinstance(payload, (np.ndarray, SymbolicArray)):
        return int(payload.size)
    if isinstance(payload, Counted):
        return payload.words
    if isinstance(payload, (int, float, complex, np.generic)):
        return 1
    if getattr(payload, "_repro_lazy_", False):
        # LazyArray (parallel backend): sized eagerly via its metadata.
        return int(payload.size)
    if isinstance(payload, (list, tuple)):
        # Fast path: collectives mostly send `[Meta, array, array, ...]`
        # lists, so short-circuit the recursion for those items.
        total = 0
        for item in payload:
            cls = item.__class__
            if cls is np.ndarray or cls is SymbolicArray or getattr(cls, "_repro_lazy_", False):
                total += item.size
            elif cls is Meta:
                continue
            else:
                total += words_of(item)
        return int(total)
    if isinstance(payload, dict):
        return sum(words_of(v) for v in payload.values())
    raise MachineError(f"cannot count words of payload type {type(payload).__name__}")


class Machine:
    """``P`` processors, point-to-point messages, alpha-beta-gamma costs.

    Parameters
    ----------
    P:
        Number of processors (ranks ``0 .. P-1``).
    params:
        Machine cost parameters; defaults to the unit machine
        (alpha = beta = gamma = 1), under which the ``time`` clock equals
        ``F + W + S``.
    trace:
        If true, record every task in a :class:`~repro.machine.tracing.Trace`
        (used by tests to verify the clocks against an offline longest
        path; adds overhead).
    backend:
        Name of a registered :class:`~repro.backend.registry.Backend`
        (or an instance).  ``"numeric"`` (default) runs real numpy
        arithmetic; ``"symbolic"`` runs the identical task stream over
        shape-only :class:`~repro.backend.SymbolicArray` data,
        producing a byte-identical :class:`CostReport` without doing
        any flops -- the mode benchmark sweeps use at paper-scale
        ``P``; ``"parallel"`` meters like numeric (identically on
        generic data -- flop masks for degenerate ``tau = 0`` columns
        use the symbolic backend's generic-data convention) but
        *defers* the array arithmetic into an execution plan that
        :meth:`materialize` runs on a thread pool with real
        rendezvous at every cross-rank edge (see :mod:`repro.engine`).
        Third-party backends plug in through
        :func:`repro.backend.register_backend`.
    workers:
        Thread count for the parallel backend's engine (ignored
        otherwise); defaults to the available cores, capped at 8.
    telemetry:
        A :class:`~repro.telemetry.TelemetryRecorder` (or the disabled
        :data:`~repro.telemetry.NULL_RECORDER`).  Defaults to the
        recorder currently installed via
        :func:`repro.telemetry.recording` -- which is the disabled
        no-op recorder unless a caller opted in.  The machine times its
        kernel dispatches through it and hands it to the parallel
        engine for per-task spans; whether spans mean real wall-clock
        or nothing is declared by the backend's ``telemetry``
        capability (``"simulated"`` for the cost-only symbolic mode).
    """

    def __init__(
        self,
        P: int,
        params: CostParams | None = None,
        trace: bool = False,
        backend: str | Backend = "numeric",
        workers: int | None = None,
        telemetry=None,
        fault_plan=None,
        recovery=None,
    ) -> None:
        if P < 1:
            raise MachineError(f"Machine requires P >= 1, got {P}")
        self.P = P
        self.params = params if params is not None else CostParams()
        self.workers = workers
        impl = resolve_backend(backend)
        self.backend_impl = impl
        if fault_plan is not None and impl.faults == "none":
            raise ParameterError(
                f"backend {impl.name!r} declares faults='none': nothing "
                "executes there, so a FaultPlan can never fire"
            )
        if recovery is not None and getattr(recovery, "needs_engine", False) \
                and impl.faults != "recover":
            raise ParameterError(
                f"recovery policy {type(recovery).__name__!r} needs an "
                f"engine-backed backend (faults='recover'); backend "
                f"{impl.name!r} declares faults={impl.faults!r}"
            )
        #: Deterministic fault injection (see repro.faults); consulted by
        #: the engine per task-step and by eager kernel dispatches below.
        self.fault_plan = fault_plan
        self.recovery = recovery
        self.plan = impl.make_plan()
        self.engine = impl.make_engine(workers)
        self.ops = impl.make_ops(self.plan)
        self.backend = impl.name
        self.telemetry = telemetry if telemetry is not None else current_recorder()
        if self.engine is not None:
            self.engine.telemetry = self.telemetry
            self.engine.fault_plan = fault_plan
            self.engine.recovery = recovery
        self.clocks = ClockSet(P, self.params.alpha, self.params.beta, self.params.gamma)
        self.trace: Trace | None = Trace() if trace else None
        # Aggregate (volume) counters; sends only, so volume counts each
        # word moved once.  Words and messages are exact integers.
        self.total_flops = 0.0
        self.total_words_sent = 0
        self.total_messages_sent = 0
        #: Word volume per transfer label -- lets benchmarks decompose an
        #: algorithm's traffic into phases (e.g. dmm-internal collectives
        #: vs all-to-all redistributions in 3d-caqr-eg).
        self.words_by_label: dict[str, int] = {}

    @property
    def concrete(self) -> bool:
        """True when element values exist during recording (numeric mode).

        The one question an algorithm may ask about its backend, and
        only to discount data-dependent flops (a ``tau = 0`` column): a
        concrete machine hands kernels' values back at once, the
        symbolic and parallel backends charge the generic-data closed
        forms.  What *happens* to a kernel is :meth:`kernel`'s business.
        """
        return self.backend_impl.concrete

    def kernel(
        self, p: int | None, fn, args: tuple, meta: Any, label: str = "",
        updates: tuple[int, ...] = (),
    ) -> Any:
        """Run a pure array kernel on processor ``p``, backend-dispatched.

        ``fn(*args)`` must compute a result matching ``meta`` (a
        :class:`~repro.backend.SymbolicArray`, a tuple of them for a
        multi-output kernel, or ``None`` for a kernel that only
        writes).  The numeric backend calls ``fn`` eagerly; the
        symbolic backend returns ``meta`` (cost-only); the parallel
        backend defers ``fn`` as one rank-``p`` plan task -- which is
        how data-dependent scalar logic (reflector coefficients, pivot
        decisions) stays recordable: its branches run inside the kernel
        on concrete values at execution time.  Flops are metered by the
        caller, not here.

        **Results are fresh.**  Every array ``fn`` returns is a new
        allocation: it shares memory with no argument -- the written
        ones included -- and with no other result (return
        ``view.copy()``, never a view).  The engines rely on it: a
        kernel result may be written in place later, and a kernel that
        read a block before someone writes it holds nothing the write
        can reach (``tests/test_kernel_seam.py`` checks every dispatch).

        ``updates`` names the positions in ``args`` of the arrays
        ``fn`` writes **in place** (block writes).  The numeric backend
        mutates them directly; the engine backends hand ``fn`` the
        buffer itself when the plan compiler proves no later reader can
        see the write and a copy otherwise (the write rule of
        :mod:`repro.engine.compile`) and rebind the lazy
        argument to the written array; the symbolic backend has nothing
        to write.  Callers keep using the same argument objects
        afterwards on every backend.

        ``fn`` must carry its loop variables with it -- bind them when
        the kernel is dispatched (``functools.partial`` or default
        arguments).  On the engine backends ``fn`` runs long after the
        recording loop has moved on, so a closure over a loop variable
        would read its *last* value.

        With telemetry enabled the dispatch is timed: on an eager
        backend that is the kernel's real wall-clock; on the parallel
        backend it is the plan-append cost (the kernel itself is timed
        later by the engine's task spans).
        """
        if self.fault_plan is not None and p is not None and self.engine is None:
            # Eager backends have no task stream; the n-th kernel dispatch
            # on rank p is the injection point (the parallel backend
            # injects per task-step inside the engine instead).
            self.fault_plan.on_dispatch(p, label, telemetry=self.telemetry)
        rec = self.telemetry
        if rec.enabled:
            t0 = rec.now()
            out = self.backend_impl.run_kernel(
                self, p, fn, args, meta, label=label, updates=updates
            )
            rec.kernel_dispatch(label or "kernel", p, rec.now() - t0, self.backend)
            return out
        return self.backend_impl.run_kernel(
            self, p, fn, args, meta, label=label, updates=updates
        )

    def materialize(self, obj: Any = None, timeout: float | None = None) -> Any:
        """Execute the pending plan; return ``obj`` with values resolved.

        On a parallel machine this runs every recorded task on the
        engine's thread pool (cross-rank handoffs through blocking
        rendezvous, guarded by ``timeout`` seconds per wait) and
        replaces the lazy arrays inside ``obj`` -- nested lists,
        tuples, and dicts included -- by their computed ndarrays.  On
        serial machines it returns ``obj`` unchanged, so driver code
        can call it unconditionally.
        """
        if self.plan is None:
            return obj
        from repro.engine import output_tids, resolve

        # The plan's grain (flops per task) picks the thread engine's
        # first-execute lanes; these are the flops its tasks carry.
        self.plan.flops = self.total_flops
        # The outputs hint lets an out-of-process engine (parallel-mp)
        # ship back exactly the values resolve() will read; the
        # in-process engine ignores it.
        self.engine.execute(
            self.plan, timeout=timeout, outputs=output_tids(obj)
        )
        return resolve(obj) if obj is not None else None

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def _check_rank(self, p: int) -> None:
        if not (0 <= p < self.P):
            raise MachineError(f"rank {p} out of range for P={self.P}")

    # ------------------------------------------------------------------
    # Task primitives
    # ------------------------------------------------------------------
    def compute(self, p: int, flops: float, label: str = "") -> None:
        """Charge ``flops`` operations on processor ``p``.

        The caller performs the actual numpy arithmetic; the machine only
        meters it.  Fused multiply-adds count as 2 operations by the
        library-wide convention (DESIGN.md section 6).
        """
        self._check_rank(p)
        if flops < 0:
            raise MachineError(f"negative flop count {flops}")
        if flops == 0:
            return
        self.clocks.local_compute(p, flops)
        self.total_flops += flops
        if self.trace is not None:
            self.trace.append("compute", p, flops=flops, label=label)

    def transfer(self, src: int, dst: int, payload: Any, label: str = "") -> Any:
        """Send ``payload`` from ``src`` to ``dst`` and return it.

        Charges one message of ``words_of(payload)`` words to both
        endpoints and imposes the happens-before edge.  A self-transfer is
        free (no message is needed to keep data in place), matching the
        convention ``Bpp`` blocks in an all-to-all do not travel.  On
        every backend the result is ``payload`` itself: a message is an
        edge, not a task (a deferred consumer's dataflow edge to the
        sender's task is the happens-before edge).
        """
        self._check_rank(src)
        self._check_rank(dst)
        if src == dst:
            return payload
        w = words_of(payload)
        sender_clock = self.clocks.send(src, w)
        send_idx = -1
        if self.trace is not None:
            send_idx = self.trace.append("send", src, peer=dst, words=w, label=label)
        self.clocks.recv(dst, w, sender_clock)
        self.total_words_sent += w
        self.total_messages_sent += 1
        key = label or "unlabeled"
        self.words_by_label[key] = self.words_by_label.get(key, 0) + w
        if self.trace is not None:
            self.trace.append("recv", dst, peer=src, words=w, match=send_idx, label=label)
        return payload

    def exchange_round(
        self, transfers: Sequence[tuple[int, int, Any]], label: str = ""
    ) -> list[Any]:
        """Perform one round of simultaneous transfers.

        In algorithms like bidirectional exchange and the index
        all-to-all, every processor sends and receives within the same
        round; the sends do not wait for the round's receives.  This
        primitive schedules all sends before all receives so the
        critical path reflects that parallel schedule -- delivering the
        same messages one :meth:`transfer` at a time would create false
        happens-before edges and inflate the measured costs.

        Returns the payloads in input order.
        """
        staged = []
        clocks = self.clocks
        for src, dst, payload in transfers:
            self._check_rank(src)
            self._check_rank(dst)
            if src == dst:
                continue
            w = words_of(payload)
            snap = clocks.send(src, w)
            send_idx = -1
            if self.trace is not None:
                send_idx = self.trace.append("send", src, peer=dst, words=w, label=label)
            staged.append((dst, src, w, snap, send_idx))
        key = label or "unlabeled"
        round_words = 0
        for dst, src, w, snap, send_idx in staged:
            clocks.recv(dst, w, snap)
            round_words += w
            if self.trace is not None:
                self.trace.append("recv", dst, peer=src, words=w, match=send_idx, label=label)
        self.total_words_sent += round_words
        self.total_messages_sent += len(staged)
        if staged:
            self.words_by_label[key] = self.words_by_label.get(key, 0) + round_words
        return [payload for _, _, payload in transfers]

    def barrier(self) -> None:
        """Zero-cost clock join across all processors (phase separation).

        A join of the simulated clocks only: an execution plan records
        nothing for it, and values cross it as ordinary dataflow.
        """
        self.clocks.barrier()

    # ------------------------------------------------------------------
    # Flop-cost helpers (library-wide conventions)
    # ------------------------------------------------------------------
    @staticmethod
    def flops_gemm(I: int, J: int, K: int) -> float:
        """Operation count of a dense I x K by K x J multiply.

        ``IJK`` multiplications plus ``IJ(K-1)`` additions (paper
        Section 4); 0 when any dimension is 0.
        """
        if min(I, J, K) <= 0:
            return 0.0
        return float(I) * J * (2 * K - 1)

    @staticmethod
    def flops_add(size: int) -> float:
        """Operation count of an entrywise add/subtract of ``size`` words."""
        return float(max(size, 0))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def report(self) -> CostReport:
        """Snapshot of the execution's measured costs so far."""
        return CostReport(
            processors=self.P,
            critical_flops=self.clocks.critical("flops"),
            critical_words=self.clocks.critical("words"),
            critical_messages=self.clocks.critical("messages"),
            total_flops=self.total_flops,
            total_words_sent=self.total_words_sent,
            total_messages_sent=self.total_messages_sent,
            modeled_time=self.clocks.critical("time"),
            params=self.params,
        )

    def reset(self) -> None:
        """Zero all clocks and counters (reuse the machine across runs)."""
        if self.plan is not None:
            self.plan = self.backend_impl.make_plan()
            self.ops = self.backend_impl.make_ops(self.plan)
        self.clocks = ClockSet(self.P, self.params.alpha, self.params.beta, self.params.gamma)
        self.total_flops = 0.0
        self.total_words_sent = 0
        self.total_messages_sent = 0
        self.words_by_label = {}
        if self.trace is not None:
            self.trace = Trace(self.trace.max_events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Machine(P={self.P}, params={self.params.name!r})"


def transfer_list(
    machine: Machine, src: int, dst: int, arrays: Sequence[np.ndarray], label: str = ""
) -> list[np.ndarray]:
    """Transfer several arrays as one coalesced message.

    Collectives coalesce all blocks bound for the same destination into a
    single message (Section 3's "coalesce them into fewer, larger
    messages"), so one alpha is paid for the whole batch.
    """
    out = machine.transfer(src, dst, list(arrays), label=label)
    return list(out)
