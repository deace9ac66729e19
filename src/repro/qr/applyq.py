"""Eq. 4 once: applying and forming Q from the Householder representation.

A QR factorization is only useful if Q can be *used*: least squares
needs ``Q^H b``, eigenvalue back-transformations need ``Q C``,
orthonormal bases need explicit leading columns -- and qr-eg updates
its own trailing panel with ``Q_L^H`` (Algorithm 2, lines 6-8).  All of
them are the paper's Eq. 4,

    (I - V T V^H)^(H) C  =  C - V (T^(H) (V^H C)),

evaluated right-to-left (the arithmetic-minimizing order) by the one
:func:`apply_q`.  The paper's two grids differ only in *how the three
kinds of product are computed*, so that is what :func:`apply_q` -- and
the qr-eg template built on it, :func:`repro.qr.qreg.qr_eg` -- is
handed: :class:`Products1D` (Lemma 3, Section 6.2; ``T`` on a root) or
:class:`Products3D` (Lemma 4, Section 7.2; ``T`` distributed like the
leading ``n`` rows of ``V``).

Every step is built from the backend-dispatched primitives
(:func:`~repro.matmul.local_mm`, the collectives, ``machine.kernel``
for the back-substitution), so application runs on all
registered backends -- cost-only symbolic, and deferred on the
parallel engine (exposed as the ``"applyq"`` harness algorithm, pinned
bit-identical to serial numeric by ``tests/test_engine.py``).

Paper anchor: Section 2.3 and Appendix C (applying/forming Q from (V, T)); Sections 6.2, 7.2 (its products).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.backend import SymbolicArray, dtype_of
from repro.dist import BlockRowLayout, DistMatrix, RowLayout
from repro.machine import DistributionError, Machine
from repro.matmul import Operand, local_mm, mm1d_broadcast, mm1d_reduce, mm3d


class Products1D:
    """Lemma 3: ``V^H X`` is reduced to ``root``, the ``n x n`` products
    are local to it, ``V M`` follows a broadcast from it.

    The small matrices (``T``, ``M1`` ... ``M4``) are root-held arrays
    wrapped over a root-only layout (:meth:`on_root`, free), which every
    ``out`` given to :meth:`vh_x` and :meth:`small` must be.  ``label``
    maps a step (``"M2"``, ``"sub"``, ...) to the label of its compute
    charge -- the instantiation's constant.
    """

    def __init__(self, machine: Machine, root: int, label: Callable[[str], str]) -> None:
        self.machine, self.root, self.label = machine, root, label

    def on_root(self, M: np.ndarray, out: RowLayout | None = None) -> DistMatrix:
        out = out or BlockRowLayout([M.shape[0]], [self.root])
        return DistMatrix(self.machine, out, M.shape[1], {self.root: M})

    def vh_x(self, V: DistMatrix, X: DistMatrix, out: RowLayout) -> DistMatrix:
        return self.on_root(mm1d_reduce(V, X, self.root, conj_a=True), out)

    def small(
        self, A: DistMatrix, B: DistMatrix, out: RowLayout, step: str, conj_a: bool = False
    ) -> DistMatrix:
        r, label = self.root, self.label(step)
        C = local_mm(self.machine, r, A.local(r), B.local(r), conj_a=conj_a, label=label)
        return self.on_root(C, out)

    def v_m(self, V: DistMatrix, M: DistMatrix, out: RowLayout) -> DistMatrix:
        # Lands in V's layout, which vh_x has already required ``out`` to be.
        return mm1d_broadcast(V, M.local(self.root), self.root)


class Products3D:
    """Lemma 4: every product is a 3D multiplication into ``out``.

    ``method`` is the all-to-all variant of the redistributions around
    each one.  :func:`~repro.matmul.mm3d` labels its own phases, so
    ``label`` only names the entrywise charges (``"sub"``, ``"negate"``).
    """

    def __init__(self, method: str, label: Callable[[str], str]) -> None:
        self.method, self.label = method, label

    def vh_x(self, V: DistMatrix, X: DistMatrix, out: RowLayout) -> DistMatrix:
        return mm3d(Operand(V, "H"), X, out, method=self.method)

    def small(
        self, A: DistMatrix, B: DistMatrix, out: RowLayout, step: str, conj_a: bool = False
    ) -> DistMatrix:
        return mm3d(Operand(A, "H") if conj_a else A, B, out, method=self.method)

    def v_m(self, V: DistMatrix, M: DistMatrix, out: RowLayout) -> DistMatrix:
        return mm3d(V, M, out, method=self.method)


def apply_q(
    V: DistMatrix, T: DistMatrix, C: DistMatrix, products: Products1D | Products3D,
    adjoint: bool = False,
) -> DistMatrix:
    """``Q C`` (or ``Q^H C``) for ``Q = I - V T V^H``: Eq. 4, once.

    ``V`` (``m x n``) and ``C`` (``m x k``) are row-distributed alike;
    ``M1 = V^H C`` and ``M2 = op(T) M1`` land in the layout of ``T``
    (``n x n``).  The subtraction is one charged flop per entry; the
    result is distributed like ``C`` in the common type of ``C`` and
    ``V`` -- a single-precision ``C`` is *not* rounded back.

    >>> from repro.dist import CyclicRowLayout
    >>> from repro.qr import qr_3d_caqr_eg
    >>> dA = DistMatrix.from_global(
    ...     Machine(4), np.random.default_rng(0).standard_normal((16, 4)), CyclicRowLayout(16, 4))
    >>> res = qr_3d_caqr_eg(dA, b=2, bstar=1)
    >>> products = Products3D("two_phase", "apply_q_{}".format)
    >>> QhA = apply_q(res.V, res.T, dA, products, adjoint=True).to_global()
    >>> bool(np.allclose(QhA, np.vstack([res.R.to_global(), np.zeros((12, 4))])))   # [R; 0]
    True
    """
    machine = V.machine
    M1 = products.vh_x(V, C, T.layout)
    M2 = products.small(T, M1, T.layout, "M2", conj_a=adjoint)
    Y = products.v_m(V, M2, C.layout)
    blocks = {}
    for p in C.layout.participants():
        machine.compute(p, float(C.local(p).size), label=products.label("sub"))
        blocks[p] = C.local(p) - Y.local(p)
    return DistMatrix(machine, C.layout, C.n, blocks, dtype=np.result_type(C.dtype, V.dtype))


def apply_q_1d(
    V: DistMatrix,
    T: np.ndarray,
    C: DistMatrix,
    root: int,
    adjoint: bool = False,
) -> DistMatrix:
    """Apply ``Q = I - V T V^H`` (or ``Q^H``) to a conforming matrix.

    ``V`` (``m x n``) and ``C`` (``m x k``) must share a row layout;
    ``T`` (``n x n``) lives on ``root`` -- the tsqr / 1d-caqr-eg output
    contract.  Returns ``Q C`` distributed like ``C``.  Costs: two 1D
    multiplications (reduce + broadcast) plus root-local work, i.e.
    ``O(mnk/P)`` flops, ``O(nk)`` words, ``O(log P)`` messages.
    """
    if not V.layout.same_as(C.layout):
        raise DistributionError("apply_q_1d requires V and C in the same row layout")
    products = Products1D(V.machine, root, {"M2": "mm", "sub": "apply_q_sub"}.__getitem__)
    return apply_q(V, products.on_root(T), C, products, adjoint)


def apply_q_3d(
    V: DistMatrix,
    T: DistMatrix,
    C: DistMatrix,
    adjoint: bool = False,
    method: str = "two_phase",
) -> DistMatrix:
    """Apply ``Q`` (or ``Q^H``) with 3D multiplications throughout.

    The 3d-caqr-eg output contract: ``V`` row-distributed like the
    original matrix, ``T`` distributed like its leading ``n`` rows.
    Each of the three products runs as a dmm with all-to-all
    redistributions, mirroring the inductive case of Section 7.2.
    """
    return apply_q(V, T, C, Products3D(method, "apply_q_{}".format), adjoint)


def form_q_1d(V: DistMatrix, T: np.ndarray, root: int, n_cols: int | None = None) -> DistMatrix:
    """Materialize the leading ``n_cols`` columns of ``Q``, distributed.

    ``Q[:, :k] = (I - V T V^H) [I_k; 0]``: built by applying Q to
    identity columns, the numerically stable route App. C takes.
    """
    machine = V.machine
    m, n = V.shape
    k = n_cols if n_cols is not None else n
    if not (1 <= k <= n):
        raise DistributionError(f"n_cols must be in [1, {n}], got {k}")
    blocks = {}
    for p in V.layout.participants():
        rows = V.layout.rows_of(p)
        E = machine.ops.zeros((rows.size, k), dtype=V.dtype)
        local_diag = np.flatnonzero(rows < k)
        E[local_diag, rows[local_diag]] = 1.0
        blocks[p] = E
    E_dist = DistMatrix(machine, V.layout, k, blocks, dtype=V.dtype)
    return apply_q_1d(V, T, E_dist, root)


def _backsolve_arrays(R: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``R^-1 y`` (``R`` upper triangular): the ``ls_backsolve`` kernel."""
    from scipy.linalg import solve_triangular

    return solve_triangular(R, y, lower=False)


def solve_least_squares(
    V: DistMatrix, T: np.ndarray, R: np.ndarray, b: DistMatrix, root: int
) -> np.ndarray:
    """Min ``||A x - b||_2`` given ``A``'s Householder factorization.

    ``y = (Q^H b)[:n]`` via :func:`apply_q_1d`, then a triangular solve
    on the root.  Returns ``x`` (``n x k``) held by the root.
    """
    machine = V.machine
    n = V.n
    y = apply_q_1d(V, T, b, root, adjoint=True)
    # The leading n rows of y live in the root's leading local rows
    # (tsqr's distribution contract guarantees the root owns them).
    y_top = y.local(root)[:n]
    meta = SymbolicArray(y_top.shape, np.result_type(dtype_of(R), dtype_of(y_top)))
    x = machine.kernel(root, _backsolve_arrays, (R, y_top), meta, label="ls_backsolve")
    machine.compute(root, float(n) * n * y_top.shape[1], label="ls_backsolve")
    return x
