"""3d-caqr-eg (paper Section 7): the paper's main contribution.

The qr-eg template (:func:`repro.qr.qreg.qr_eg`) with a 1d-caqr-eg base
case and 3D matrix multiplication in the inductive case.  Input ``A``
(``m >= n``) is row-cyclic over ``P`` processors; on output ``V`` is
distributed like ``A`` while ``T`` and ``R`` are distributed like the
top ``n x n`` submatrix of ``A``.

Base case (Section 7.1): three ownerships of the same rows.  ``L0`` is
the input's; in ``L1`` each *group* of processors has gathered its rows
on a representative, ``P* = min(P, floor(m/n))`` of them; in ``L2`` the
root representative also owns the ``n`` leading rows, each paid for
with one of its other rows (a gather paired with an opposite-pattern
scatter).  1d-caqr-eg with inner threshold ``b*`` runs on ``L2``, then
every data movement is reversed.  Each arrow is one
:func:`~repro.dist.gather_rows` or :func:`~repro.dist.scatter_rows`.

Inductive case (Section 7.2): the six multiplications of Algorithm 2
run as 3D dmm (Lemma 4, :class:`~repro.qr.applyq.Products3D`), each
wrapped in all-to-all redistributions between row layouts and the dmm
brick layout, which :func:`~repro.matmul.mm3d` performs internally.

Tradeoff knobs (Eq. 12): ``b = Theta(n/(nP/m)^delta)`` and
``b* = Theta(b/(log P)^eps)``; Theorem 1 takes ``delta in [1/2, 2/3]``
and ``eps = 1``.

Paper anchor: Section 7, Lemma 7, Eq. 12-13, Theorem 1 (3d-caqr-eg).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.dist import DistMatrix, ExplicitRowLayout, gather_rows, head_layout, scatter_rows
from repro.machine import DistributionError, ParameterError
from repro.qr.applyq import Products3D
from repro.qr.caqr1d import qr_1d_caqr_eg
from repro.qr.params import choose_b_3d, choose_bstar
from repro.qr.qreg import Factors, qr_eg


@dataclass
class CAQR3DResult:
    """Householder-form output of 3d-caqr-eg.

    ``V`` is ``m x n`` distributed like the input; ``T`` and ``R`` are
    ``n x n`` distributed like the input's leading ``n`` rows.
    """

    V: DistMatrix
    T: DistMatrix
    R: DistMatrix
    b: int
    bstar: int


def qr_3d_caqr_eg(
    A: DistMatrix,
    b: int | None = None,
    bstar: int | None = None,
    delta: float = 0.5,
    eps: float = 1.0,
    method: str = "two_phase",
) -> CAQR3DResult:
    """QR-decompose a row-distributed ``m >= n`` matrix with 3d-caqr-eg.

    ``b``/``bstar`` override the Eq. 12 policies driven by
    ``delta``/``eps``.  ``method`` selects the all-to-all variant used by
    every redistribution.
    """
    m, n = A.shape
    if m < n:
        raise ParameterError(f"3d-caqr-eg requires m >= n, got {A.shape}")
    P = len(A.layout.participants())
    if b is None:
        b = choose_b_3d(m, n, P, delta)
    if bstar is None:
        bstar = choose_bstar(b, P, eps)
    if not (1 <= bstar <= b <= n):
        raise ParameterError(f"need 1 <= b*={bstar} <= b={b} <= n={n}")
    products = Products3D(method, "caqr3d_{}".format)
    V, T, R = qr_eg(A, b, partial(_base_case, bstar=bstar), products)
    return CAQR3DResult(V=V, T=T, R=R, b=b, bstar=bstar)


# ----------------------------------------------------------------------
# Base case (Section 7.1)
# ----------------------------------------------------------------------

def _ordered_participants(layout) -> list[int]:
    """Participants numbered so that processor 0 owns the top row.

    The paper numbers processors "according to the cyclic layout of A";
    ordering by smallest owned row reproduces that for (rotated) cyclic
    layouts and generalizes to the tail layouts the recursion produces.
    """
    return sorted(layout.participants(), key=lambda p: int(layout.rows_of(p)[0]))


def _base_case(A: DistMatrix, bstar: int) -> Factors:
    machine = A.machine
    m, n = A.shape
    L0 = A.layout
    parts = _ordered_participants(L0)

    # Choose P* = min(P', floor(m/n)), shrinking further if the dealt
    # groups would leave a representative with fewer than n rows (only
    # possible for tiny, badly divisible cases).
    def dealt(k: int) -> list[list[int]]:
        return [parts[g::k] for g in range(k)]

    P_star = max(1, min(len(parts), m // n))
    while P_star > 1 and min(sum(map(L0.count, members)) for members in dealt(P_star)) < n:
        P_star -= 1
    groups = dealt(P_star)
    reps = [members[0] for members in groups]
    root = reps[0]

    # L1: every row on the representative of its owner's group.
    owners1 = L0.owners().copy()
    for members in groups:
        for p in members[1:]:
            owners1[L0.rows_of(p)] = members[0]
    L1 = ExplicitRowLayout(owners1)

    # L2: the root also owns the n leading rows, and pays each lender
    # back with as many of its own highest rows below them -- handed out
    # in the order of ``top_owners`` (the root first: it owns row 0),
    # which is also the swap's tree order.
    top_owners = [p for p in reps if bool((owners1[:n] == p).any())]
    root_rows = L1.rows_of(root)
    spare = root_rows[np.searchsorted(root_rows, n) :]
    debts = [int((owners1[:n] == p).sum()) for p in top_owners[1:]]
    if sum(debts) > spare.size:
        raise DistributionError(
            "base-case swap needs more spare root rows than available "
            f"(needed {sum(debts)}, have {spare.size})"
        )
    owners2 = owners1.copy()
    owners2[:n] = root
    paid = spare.size - sum(debts)
    for p, debt in zip(top_owners[1:], debts):
        owners2[spare[paid : paid + debt]] = p
        paid += debt
    L2 = ExplicitRowLayout(owners2)

    # Forward: L0 -> L1 (gather per group), L1 -> L2 (gather, then scatter).
    A1 = A
    for members in groups:
        A1 = gather_rows(A1, L1, members, members[0])
    A2 = scatter_rows(gather_rows(A1, L2, top_owners, root), L2, top_owners, root)

    res = qr_1d_caqr_eg(A2, root=root, b=min(bstar, n))

    # Backward for V, every collective in the opposite direction.
    V = gather_rows(scatter_rows(res.V, L1, top_owners, root), L1, top_owners, root)
    for members in groups:
        V = scatter_rows(V, L0, members, members[0])

    # T and R leave the 1d root for the owners of A's leading n rows.
    Lh = head_layout(L0, n)
    team = sorted(set(Lh.participants()) | {root})
    held = ExplicitRowLayout([root] * n)
    T = scatter_rows(DistMatrix(machine, held, n, {root: res.T}), Lh, team, root)
    R = scatter_rows(DistMatrix(machine, held, n, {root: res.R}), Lh, team, root)
    return V, T, R
