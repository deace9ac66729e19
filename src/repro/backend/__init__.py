"""Execution backends: numeric arrays, cost-only shapes, deferred plans.

See :mod:`repro.backend.symbolic` for the cost-only data model,
:mod:`repro.backend.ops` for the creation/coercion indirection layer,
:mod:`repro.backend.registry` for the :class:`Backend` protocol that
unifies the execution modes behind one dispatch point, and
:mod:`repro.backend.lapack` for the GIL-free ``dgeqrt`` / ``dtrsm``
entry points the numeric kernels call.  The backend is
selected per :class:`~repro.machine.Machine`
(``Machine(P, backend="symbolic")``); algorithms are backend-agnostic:
every local kernel is a ``machine.kernel`` call, and
:meth:`Backend.run_kernel` is where it runs, is recorded, or is skipped.

Paper anchor: Section 3 (the cost model every backend meters identically).
"""

from repro.backend import lapack
from repro.backend.symbolic import SymbolicArray, dtype_of, is_symbolic
from repro.backend.ops import (
    NumericOps,
    SymbolicOps,
    asarray,
    ascontiguousarray,
)
from repro.backend.registry import (
    Backend,
    MpBackend,
    NumericBackend,
    ParallelBackend,
    SymbolicBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)

__all__ = [
    "Backend",
    "MpBackend",
    "NumericBackend",
    "NumericOps",
    "ParallelBackend",
    "SymbolicArray",
    "SymbolicBackend",
    "SymbolicOps",
    "asarray",
    "ascontiguousarray",
    "available_backends",
    "dtype_of",
    "get_backend",
    "is_symbolic",
    "lapack",
    "register_backend",
    "resolve_backend",
]
