"""Local (single-processor) matrix multiplication with metered flops.

``mm`` in the paper (Lemma 2): the conventional algorithm costs ``IJK``
multiplications and ``IJ(K-1)`` additions.  The machine meters it and
dispatches the multiply as one ``machine.kernel`` call; numpy does the
arithmetic wherever the backend runs it.

Paper anchor: Lemma 2 (local multiplication).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.backend import SymbolicArray, dtype_of
from repro.machine import Machine


def _mm_arrays(A: np.ndarray, B: np.ndarray, conj_a: bool, conj_b: bool) -> np.ndarray:
    """``op(A) @ op(B)``: :func:`local_mm`'s kernel."""
    return (A.conj().T if conj_a else A) @ (B.conj().T if conj_b else B)


def local_mm(
    machine: Machine,
    p: int,
    A: np.ndarray,
    B: np.ndarray,
    conj_a: bool = False,
    conj_b: bool = False,
    label: str = "mm",
) -> np.ndarray:
    """``C = op(A) @ op(B)`` on processor ``p``, charging ``IJ(2K-1)`` flops.

    ``conj_a`` / ``conj_b`` apply conjugate transposition to the operand
    (the ``(.)^H`` of the paper; plain transpose for real dtypes).  The
    multiply is one kernel on ``p``, and the same call meters
    identically on every backend:

    >>> A, B = np.ones((3, 4)), np.ones((3, 5))
    >>> reports = []
    >>> for kwargs in ({}, {"backend": "symbolic"}, {"backend": "parallel", "workers": 1}):
    ...     machine = Machine(2, **kwargs)
    ...     C = local_mm(machine, 1, machine.ops.asarray(A), machine.ops.asarray(B), conj_a=True)
    ...     reports.append(machine.report())
    >>> reports[0] == reports[1] == reports[2]
    True
    >>> C.shape, reports[0].critical_flops
    ((4, 5), 100.0)
    """
    I, K = A.shape[::-1] if conj_a else A.shape
    K2, J = B.shape[::-1] if conj_b else B.shape
    if K != K2:
        raise ValueError(
            f"inner dimensions disagree: {(I, K)} @ {(K2, J)} "
            f"(from {A.shape} and {B.shape})"
        )
    machine.compute(p, Machine.flops_gemm(I, J, K), label=label)
    meta = SymbolicArray((I, J), np.result_type(dtype_of(A), dtype_of(B)))
    return machine.kernel(
        p, partial(_mm_arrays, conj_a=conj_a, conj_b=conj_b), (A, B), meta, label=label
    )
