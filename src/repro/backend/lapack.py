"""GIL-free LAPACK/BLAS entry points for the local kernels.

The TSQR leaf chain (``qr/householder.py``, ``qr/tsqr.py``) spends its
time in two LAPACK/BLAS routines numpy does not expose: ``dgeqrt`` (the
recursive Elmroth-Gustavson QR, which returns the compact-WY ``T``
with the factorization) and ``dtrsm`` (a triangular solve *in place*,
from the right).  scipy's f2py wrappers of both hold the GIL for the
whole call, which serialises the thread engine's per-rank streams; the
same routines are also exported as C function pointers in
``scipy.linalg.cython_lapack.__pyx_capi__`` / ``cython_blas``, and a
``ctypes`` call through such a pointer drops the GIL.

This module is the only place that touches a raw pointer.  Per routine
it binds, once, on first use:

* the **capsule** pointer, when the capsule exists and its C signature
  string is exactly the expected one;
* otherwise the **f2py** wrapper of the *same* routine (same bits, GIL
  held).

:func:`binding` reports which one is in use.  Nothing selects between
them but what the installed scipy exports.  Every call validates dtype
(``float64``), column-major layout, writeability and shapes before a
pointer is handed out, allocates its own ``T`` and workspace (the
kernels run concurrently on the thread engine; there is no module-level
scratch), and raises on ``info != 0``.

>>> import numpy as np
>>> a = np.asfortranarray([[3.0, 1.0], [4.0, 2.0]])
>>> t = geqrt(a)                        # in place: R above, V below
>>> np.round(np.abs(np.triu(a)), 12).tolist()
[[5.0, 2.2], [0.0, 0.4]]
>>> b = np.asfortranarray([[2.0, 4.0]])
>>> trsm(np.asfortranarray([[2.0, 1.0], [0.0, 1.0]]), b)   # b <- b U^-1
>>> b.tolist()
[[1.0, 3.0]]
>>> binding("dgeqrt") in ("capsule", "f2py")
True

Paper anchor: Section 2.3 (local Householder kernels); Section 5 (TSQR's leaf cost).
"""

from __future__ import annotations

import ctypes
import functools
import importlib
from typing import Callable, Mapping

import numpy as np

__all__ = ["binding", "geqrt", "trsm"]

_INT_P = ctypes.POINTER(ctypes.c_int)
_DBL_P = ctypes.POINTER(ctypes.c_double)

#: routine -> (scipy.linalg module exporting the capsule, the capsule's
#: exact C signature, the ctypes prototype that signature means).
_ROUTINES = {
    "dgeqrt": (
        "cython_lapack",
        "void (int *, int *, int *, {d} *, int *, {d} *, int *, {d} *, int *)".format(
            d="__pyx_t_5scipy_6linalg_13cython_lapack_d"
        ),
        ctypes.CFUNCTYPE(
            None, _INT_P, _INT_P, _INT_P, _DBL_P, _INT_P, _DBL_P, _INT_P, _DBL_P, _INT_P
        ),
    ),
    "dtrsm": (
        "cython_blas",
        "void (char *, char *, char *, char *, int *, int *, {d} *, {d} *, int *, {d} *, int *)".format(
            d="__pyx_t_5scipy_6linalg_11cython_blas_d"
        ),
        ctypes.CFUNCTYPE(
            None, ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p,
            _INT_P, _INT_P, _DBL_P, _DBL_P, _INT_P, _DBL_P, _INT_P,
        ),
    ),
}

# Own prototypes (not attributes set on the shared ``ctypes.pythonapi``
# function objects, which other libraries may have configured).
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi)
)
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def resolve(name: str, capi: Mapping[str, object] | None = None) -> tuple[Callable | None, str]:
    """Bind routine ``name``: ``(c_function, "capsule")`` or ``(None, "f2py")``.

    ``capi`` is the capsule table to look in (default: the
    ``__pyx_capi__`` of the scipy module that exports ``name``).  The
    f2py binding is chosen only when the capsule is missing or its
    signature string differs from the expected one -- a pointer is never
    built from a capsule this module does not recognise.
    """
    module, signature, prototype = _ROUTINES[name]
    if capi is None:
        try:
            capi = importlib.import_module(f"scipy.linalg.{module}").__pyx_capi__
        except (ImportError, AttributeError):
            capi = {}
    capsule = capi.get(name)
    if capsule is None:
        return None, "f2py"
    try:
        found = _capsule_name(capsule)
    except (TypeError, ValueError):  # not a capsule at all
        return None, "f2py"
    if found is None or found.decode() != signature:
        return None, "f2py"
    return prototype(_capsule_pointer(capsule, found)), "capsule"


@functools.cache
def _entry(name: str) -> tuple[Callable | None, str]:
    """:func:`resolve` against the installed scipy, once per process."""
    return resolve(name)


def binding(name: str) -> str:
    """Which binding routine ``name`` uses here: ``"capsule"`` or ``"f2py"``."""
    return _entry(name)[1]


def _leading_dim(a: np.ndarray, what: str, writeable: bool) -> int:
    """Validate a float64 column-major matrix; return its leading dimension."""
    if not isinstance(a, np.ndarray) or a.ndim != 2 or a.dtype != np.float64:
        raise TypeError(f"{what} must be a 2-D float64 ndarray")
    if writeable and not a.flags.writeable:
        raise ValueError(f"{what} is written in place and must be writeable")
    if not a.flags.aligned:
        raise ValueError(f"{what} must be aligned")
    rows = a.shape[0]
    item = a.itemsize
    s0, s1 = a.strides
    if a.flags.f_contiguous:
        return max(1, rows)
    # A row slice of a column-major matrix: unit row stride, columns
    # ``ld >= rows`` elements apart.
    if (rows <= 1 or s0 == item) and s1 % item == 0 and s1 >= item * max(1, rows):
        return s1 // item
    raise ValueError(f"{what} must be column-major (Fortran-ordered)")


def _int(v: int):
    return ctypes.byref(ctypes.c_int(v))


def _ptr(a: np.ndarray):
    # Not ``a.ctypes.data_as``: the pointer it makes keeps ``a`` alive
    # through a reference cycle, so every operand would wait for the GC.
    # The caller holds ``a`` for the call.
    return ctypes.cast(a.ctypes.data, _DBL_P)


def geqrt(a: np.ndarray) -> np.ndarray:
    """Compact-WY QR of the column-major ``m x n`` (``m >= n``) ``a``, in place.

    LAPACK ``dgeqrt`` with one block (``nb = n``): on return ``a`` holds
    ``R`` on and above its diagonal and the reflectors' tails below it;
    the returned column-major ``n x n`` array holds the upper-triangular
    ``T`` of ``Q = I - V T V^T`` on and above its diagonal (entries
    below are unspecified).
    """
    lda = _leading_dim(a, "geqrt: a", writeable=True)
    m, n = a.shape
    if m < n:
        raise ValueError(f"geqrt requires m >= n, got {a.shape}")
    t = np.empty((n, n), dtype=np.float64, order="F")
    if n == 0:
        return t
    fn, _ = _entry("dgeqrt")
    if fn is None:
        from scipy.linalg.lapack import dgeqrt

        out, t, info = dgeqrt(n, a, overwrite_a=1)
        if info == 0 and not np.may_share_memory(out, a):
            a[...] = out
    else:
        work = np.empty(n * n, dtype=np.float64)
        status = ctypes.c_int(0)
        fn(_int(m), _int(n), _int(n), _ptr(a), _int(lda), _ptr(t), _int(n),
           _ptr(work), ctypes.byref(status))
        info = status.value
    if info != 0:
        raise ValueError(f"dgeqrt failed with info={info}")
    return t


def trsm(u: np.ndarray, b: np.ndarray, trans: bool = False, lower: bool = False) -> None:
    """``b <- b op(u)^-1`` in place on the column-major ``b`` (BLAS ``dtrsm``).

    ``op(u)`` is ``u`` or (``trans``) its transpose; ``u`` is a
    column-major non-unit triangular matrix (upper unless ``lower``)
    with as many rows as ``b`` has columns.  Nothing is returned: the
    solution replaces ``b``.
    """
    lda = _leading_dim(u, "trsm: u", writeable=False)
    ldb = _leading_dim(b, "trsm: b", writeable=True)
    m, n = b.shape
    if u.shape != (n, n):
        raise ValueError(f"trsm: u has shape {u.shape}, b {b.shape} needs ({n}, {n})")
    if m == 0 or n == 0:
        return
    fn, _ = _entry("dtrsm")
    if fn is None:
        from scipy.linalg.blas import dtrsm

        out = dtrsm(1.0, u, b, side=1, lower=int(lower), trans_a=int(trans), overwrite_b=1)
        if not np.may_share_memory(out, b):
            b[...] = out
        return
    fn(b"R", b"L" if lower else b"U", b"T" if trans else b"N", b"N",
       _int(m), _int(n), ctypes.byref(ctypes.c_double(1.0)), _ptr(u), _int(lda),
       _ptr(b), _int(ldb))
