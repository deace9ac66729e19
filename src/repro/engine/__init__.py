"""The parallel execution engine: plan, defer, execute on real cores.

``Machine(P, backend="parallel")`` records the algorithms' per-rank
work as an execution :class:`~repro.engine.plan.Plan` (metering costs
eagerly, exactly like the serial numeric backend) and the
:class:`~repro.engine.executor.Engine` then runs that plan on a thread
pool with blocking rendezvous at every cross-rank edge.  See
:mod:`repro.engine.plan` (the task DAG), :mod:`repro.engine.lazy` (the
deferred arrays algorithms transparently operate on),
:mod:`repro.engine.compile` (the one schedule both engines execute),
:mod:`repro.engine.executor` (the thread engine), and
:mod:`repro.engine.batch` (the :func:`run_many` batched driver that
amortizes cached plans and planner decisions over job streams).

The package is light to import (plan/lazy/executor only -- the
:mod:`~repro.engine.batch` driver and its workload stack load on first
use), and serial/symbolic machines never *instantiate* it: only
``backend="parallel"`` builds a plan and an engine.

Paper anchor: Section 3 (the machine model's DAG executed with real
concurrency).
"""

from repro.engine.compile import CompiledPlan, bind_stream, compile_plan
from repro.engine.executor import (
    Engine,
    EngineDeadlockError,
    EngineExecutionError,
    default_workers,
)
from repro.engine.lazy import (
    LazyArray,
    ParallelOps,
    defer,
    output_tids,
    resolve,
)
from repro.engine.plan import EngineError, Plan, Ref, Task

__all__ = [
    "CompiledPlan",
    "Engine",
    "EngineDeadlockError",
    "EngineError",
    "EngineExecutionError",
    "LazyArray",
    "MpEngine",
    "ParallelOps",
    "Plan",
    "QRJob",
    "Ref",
    "Task",
    "bind_stream",
    "compile_plan",
    "default_workers",
    "defer",
    "mp_supported",
    "output_tids",
    "resolve",
    "run_many",
]


def __getattr__(name):
    # repro.engine.batch pulls in the workload/runner stack, and
    # repro.engine.mp pulls in multiprocessing; load each on first use
    # so importing the engine stays cheap and cycle-free.
    if name in ("run_many", "QRJob", "clear_plan_cache"):
        from repro.engine import batch

        return getattr(batch, name)
    if name in ("MpEngine", "mp_supported"):
        from repro.engine import mp

        return getattr(mp, name)
    raise AttributeError(f"module 'repro.engine' has no attribute {name!r}")
