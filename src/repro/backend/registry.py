"""The backend registry: every execution backend behind one protocol.

A :class:`Backend` bundles everything a
:class:`~repro.machine.Machine` needs to execute in one mode -- the
array-coercion rules, the ops table (``machine.ops``), the
plan-recording hooks of the deferred engine, the engine factory, and
the flags the run harness consults.  The three built-in
modes are registered by name:

=========== ==========================================================
name        behavior
=========== ==========================================================
numeric     real numpy arithmetic, validatable factors (the reference)
symbolic    cost-only: shape/dtype stand-ins, no arithmetic, paper-scale
parallel    numeric metering, array work deferred to a thread-pool engine
parallel-mp same recording, executed on a forked worker-process pool
=========== ==========================================================

Everything else in the library dispatches through this registry --
``Machine``, the run harness, the planner's measure/run paths, and the
CLI all resolve a backend *name* (or instance) to a :class:`Backend`
and ask it questions, so a third-party backend (say, a process-pool
variant) plugs in with :func:`register_backend` and no core changes:

>>> get_backend("numeric").name
'numeric'
>>> sorted(available_backends())
['numeric', 'parallel', 'parallel-mp', 'symbolic']
>>> get_backend("symbolic").telemetry       # cost-only: no runtime spans
'simulated'
>>> get_backend("parallel").telemetry
'runtime'
>>> get_backend("parallel").faults          # checksum-coded recovery
'recover'
>>> get_backend("parallel-mp").faults       # injection yes, plan surgery no
'inject'
>>> get_backend("symbolic").faults          # nothing executes, nothing dies
'none'

This module is also the only place allowed to compare backend names;
everywhere else consults :class:`Backend` flags.

Paper anchor: Section 3 (one cost model, interchangeable executions).
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

# NOTE: repro.machine.exceptions is imported inside the methods that
# raise -- the machine package imports this one at load time, and the
# backend layer must stay importable on its own.
from repro.backend.ops import NumericOps, SymbolicOps
from repro.backend.symbolic import SymbolicArray, is_symbolic

__all__ = [
    "Backend",
    "MpBackend",
    "NumericBackend",
    "ParallelBackend",
    "SymbolicBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend",
]


class Backend:
    """One execution mode: coercion rules, ops table, engine hooks, flags.

    Subclasses override the class attributes and the factory methods;
    the base class implements the numeric-style defaults (concrete
    values, no plan) so a minimal third-party backend only declares
    what it changes.
    """

    #: Registry key; also ``machine.backend`` after construction.
    name: str = ""
    #: True when array work is deferred into an execution plan.
    parallel: bool = False
    #: True when real element values exist *during* plan recording, so
    #: algorithms may branch on data (numeric only: symbolic has no
    #: values, parallel has not computed them yet).
    concrete: bool = True
    #: True when results carry values that can be numerically validated.
    validates: bool = True
    #: Telemetry capability (:mod:`repro.telemetry`): ``"runtime"`` when
    #: executions produce real wall-clock spans worth tracing (eager
    #: numeric kernels, the parallel engine's tasks), ``"simulated"``
    #: when only modeled time exists -- the cost-only symbolic backend
    #: does no array work, so a runtime trace of it would be noise.
    telemetry: str = "runtime"
    #: Fault-injection capability (:mod:`repro.faults`): ``"inject"``
    #: when a FaultPlan can kill ranks (eager kernel dispatches),
    #: ``"recover"`` when the backend additionally runs a recovery
    #: policy through its engine (the parallel executor's retry loop),
    #: ``"none"`` when nothing actually executes and so nothing can die
    #: (symbolic; a coded run's *cost accounting* still works there).
    faults: str = "inject"

    # ------------------------------------------------------------------
    # Machine wiring (factories called once per Machine / reset)
    # ------------------------------------------------------------------
    def make_plan(self):
        """A fresh execution plan, or ``None`` for eager backends."""
        return None

    def make_engine(self, workers: int | None):
        """An executor for this backend's plans, or ``None``."""
        return None

    def make_ops(self, plan=None):
        """The ops table (creation/coercion) bound to ``plan``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Harness-side coercion
    # ------------------------------------------------------------------
    def make_input(self, m: int, n: int, seed: int = 0) -> Any:
        """A global test input for the run harness / CLI."""
        from repro.workloads import gaussian

        return gaussian(m, n, seed=seed)

    def coerce_global(self, A: Any) -> Any:
        """Validate/convert a global input array for this backend."""
        if isinstance(A, tuple):
            from repro.machine.exceptions import ParameterError

            raise ParameterError(
                "a shape-only input requires a shape-capable backend "
                "such as backend='symbolic' (this backend needs real "
                "matrix entries)"
            )
        if is_symbolic(A):
            from repro.machine.exceptions import ParameterError

            raise ParameterError("symbolic input requires backend='symbolic'")
        return _matrix(np.asarray(A))

    # ------------------------------------------------------------------
    # Kernel dispatch
    # ------------------------------------------------------------------
    def run_kernel(
        self,
        machine,
        p: int | None,
        fn: Callable[..., Any],
        args: tuple,
        meta: Any,
        label: str = "",
        updates: tuple[int, ...] = (),
    ) -> Any:
        """Execute (or defer, or skip) a pure array kernel on rank ``p``.

        ``fn(*args)`` must be a pure function of its array arguments
        whose result matches ``meta`` (one
        :class:`~repro.backend.SymbolicArray`, a tuple of them for a
        multi-output kernel, or ``None``), apart from writing in place
        the arguments whose positions ``updates`` names; every array it
        returns is fresh (no memory shared with an argument or another
        result -- :meth:`~repro.machine.Machine.kernel`).  The caller
        meters any flops separately.  Eager backends call ``fn`` now
        (the writes land in the caller's arrays); the symbolic backend
        returns ``meta`` unevaluated; the parallel backend appends one
        deferred rank-``p`` task whose data-dependent branches run on
        concrete values at execution time and rebinds the written lazy
        arguments to its outputs.
        """
        return fn(*args)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class NumericBackend(Backend):
    """Real numpy arithmetic (the reference execution)."""

    name = "numeric"

    def make_ops(self, plan=None):
        return _NUMERIC_OPS


class SymbolicBackend(Backend):
    """Cost-only execution over shape/dtype stand-ins."""

    name = "symbolic"
    concrete = False
    validates = False
    telemetry = "simulated"
    faults = "none"

    def make_ops(self, plan=None):
        return _SYMBOLIC_OPS

    def make_input(self, m: int, n: int, seed: int = 0) -> Any:
        # No values are ever read; the shape is the whole input.
        return (int(m), int(n))

    def coerce_global(self, A: Any) -> Any:
        return _matrix(SymbolicArray(A) if isinstance(A, tuple) else A)

    def run_kernel(self, machine, p, fn, args, meta, label="", updates=()):
        return meta


class ParallelBackend(Backend):
    """Numeric metering with array work deferred to a real thread pool.

    The engine modules are imported inside the factories: the backend
    layer must stay importable before :mod:`repro.engine` (which sits
    above it in the package graph).
    """

    name = "parallel"
    parallel = True
    concrete = False
    faults = "recover"

    def make_plan(self):
        from repro.engine import Plan

        return Plan()

    def make_engine(self, workers: int | None):
        from repro.engine import Engine

        return Engine(workers)

    def make_ops(self, plan=None):
        if plan is None:
            raise ValueError(
                "the parallel backend's ops table is plan-bound; "
                "construct a Machine(P, backend='parallel') instead"
            )
        from repro.engine import ParallelOps

        return ParallelOps(plan)

    def run_kernel(self, machine, p, fn, args, meta, label="", updates=()):
        # The plan-bound ops table records it: no engine import per call.
        return machine.ops.kernel(p, fn, args, meta, label, updates)


class MpBackend(ParallelBackend):
    """The parallel recording pipeline executed on worker *processes*.

    Identical to :class:`ParallelBackend` at record time (same plans,
    same lazy arrays, same eager metering, so the ``CostReport`` is the
    same object of facts) -- only the executor differs: a persistent
    pool of forked worker processes with input leaves in shared memory
    (:class:`repro.engine.mp.MpEngine`), so per-rank streams run on
    real cores with no GIL.  Requires the ``fork`` start method; see
    :func:`repro.engine.mp.mp_supported`.

    ``faults`` is honestly ``"inject"``, not ``"recover"``: workers
    consult the fault plan per task-step and the typed ``RankFailure``
    propagates, but engine-repair policies (``CodedRecovery``) need
    in-process plan surgery the pool cannot see, so ``Machine`` rejects
    them on this backend.
    """

    name = "parallel-mp"
    faults = "inject"

    def make_engine(self, workers: int | None):
        from repro.engine.mp import MpEngine

        return MpEngine(workers)


def _matrix(A: Any) -> Any:
    """``A`` itself when it is 2-D; anything else cannot be factored."""
    if len(A.shape) != 2:
        from repro.machine.exceptions import ParameterError

        raise ParameterError(f"A must be a 2-D matrix, got shape {tuple(A.shape)}")
    return A


_NUMERIC_OPS = NumericOps()
_SYMBOLIC_OPS = SymbolicOps()

_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend, overwrite: bool = False) -> Backend:
    """Register ``backend`` under ``backend.name``; returns it.

    Third-party extension point: after registration,
    ``Machine(P, backend=name)``, ``run_qr(..., backend=name)``, the
    batched driver, and the CLI all accept the new name.
    """
    if not backend.name:
        raise ValueError("a Backend must declare a nonempty name")
    if backend.name in _REGISTRY and not overwrite:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> Backend:
    """The registered :class:`Backend` for ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown backend {name!r}; registered backends: {known}"
        ) from None


def resolve_backend(spec: "str | Backend") -> Backend:
    """Coerce a backend name or instance to a :class:`Backend`."""
    if isinstance(spec, Backend):
        return spec
    return get_backend(spec)


def available_backends() -> tuple[str, ...]:
    """Registered backend names (CLI choices, error messages)."""
    return tuple(sorted(_REGISTRY))


register_backend(NumericBackend())
register_backend(SymbolicBackend())
register_backend(ParallelBackend())
register_backend(MpBackend())
