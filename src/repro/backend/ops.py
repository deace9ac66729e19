"""Backend indirection for array creation and coercion.

The simulator runs every algorithm in one of two modes:

* **numeric** -- today's behavior: real numpy arrays, real arithmetic,
  results that can be validated against reference factorizations;
* **symbolic** -- cost-only: :class:`~repro.backend.symbolic.SymbolicArray`
  stand-ins flow through the identical control path, every
  ``machine.compute``/``transfer`` fires with the same arguments, but no
  element arithmetic happens.

Elementwise expressions and most shape-level numpy functions dispatch
automatically through ``SymbolicArray``'s protocol hooks.  Array
*creation* cannot (``np.zeros`` has no array argument to dispatch on),
so it goes through the machine-bound ops table
(``machine.ops.zeros(...)``), and coercion of a value that may already
be a stand-in through :func:`asarray` / :func:`ascontiguousarray`.
Local *kernels* (the LAPACK-style solves and factorizations) are not
this module's business: they are pure functions of real arrays,
dispatched by ``machine.kernel``.

Paper anchor: Section 3 (cost model); Section 2.3 (the local kernels the machine dispatches).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.backend.symbolic import SymbolicArray, is_symbolic

__all__ = [
    "NumericOps",
    "SymbolicOps",
    "asarray",
    "ascontiguousarray",
]


class NumericOps:
    """Real-array backend: thin wrappers over numpy."""

    @staticmethod
    def zeros(shape, dtype=np.float64):
        return np.zeros(shape, dtype=dtype)

    @staticmethod
    def empty(shape, dtype=np.float64):
        return np.empty(shape, dtype=dtype)

    @staticmethod
    def eye(n, dtype=np.float64):
        return np.eye(n, dtype=dtype)

    @staticmethod
    def asarray(x, dtype=None):
        if is_symbolic(x):
            raise TypeError(
                "symbolic array given to a numeric-backend machine; "
                "construct the Machine with backend='symbolic'"
            )
        return np.asarray(x) if dtype is None else np.asarray(x, dtype=dtype)


class SymbolicOps:
    """Cost-only backend: creation returns shape/dtype stand-ins."""

    @staticmethod
    def zeros(shape, dtype=np.float64):
        return SymbolicArray(shape, dtype)

    empty = zeros

    @staticmethod
    def eye(n, dtype=np.float64):
        return SymbolicArray((int(n), int(n)), dtype)

    @staticmethod
    def asarray(x, dtype=None):
        if is_symbolic(x):
            return x if dtype is None else x.astype(dtype)
        return SymbolicArray.like(x, dtype=dtype)


# ----------------------------------------------------------------------
# Type-dispatched coercion (no machine in scope required)
# ----------------------------------------------------------------------

def _is_virtual(x: Any) -> bool:
    """Symbolic or lazy: an array stand-in that must not be coerced."""
    return is_symbolic(x) or getattr(x, "_repro_lazy_", False)


def asarray(x: Any) -> Any:
    """``np.asarray`` that passes symbolic/lazy arrays through untouched."""
    return x if _is_virtual(x) else np.asarray(x)


def ascontiguousarray(x: Any) -> Any:
    """``np.ascontiguousarray`` that passes symbolic/lazy arrays through."""
    return x if _is_virtual(x) else np.ascontiguousarray(x)
