"""Metered row redistribution between arbitrary layouts.

3d-caqr-eg's inductive case wraps every multiplication in all-to-all
redistributions between row layouts and the dmm brick layout
(Section 7.2), and its base case converts row-cyclic to block-row-like
layouts; the Eq. 13 overhead terms in the paper's analysis are exactly
the cost of these movements.  :func:`redistribute_rows` is the
standalone primitive: it routes every row from its old owner to its new
owner through the library's all-to-all collectives, so all
inter-processor movement flows through :meth:`Machine.transfer` /
:meth:`Machine.charge` and shows up in the critical-path
accounting -- nothing is teleported.

Two variants, matching the all-to-all algorithms of Appendix A.3:

* ``"index"`` -- the radix-2 index algorithm [BHK+97]: blocks travel up
  to ``ceil(log2 P)`` hops, one coalesced message per processor per
  round;
* ``"two_phase"`` (default, the paper's choice) -- the balanced variant
  [HBJ96]: each block's elements are dealt cyclically over intermediate
  processors and routed home in a second index all-to-all, bounding the
  per-round message sizes by the row/column sums of the traffic matrix.

The base case of 3d-caqr-eg (Section 7.1) instead moves rows through a
root, one binomial gather or scatter over a small *ordered* team per
step: :func:`gather_rows` and :func:`scatter_rows`.

Paper anchor: Section 7 (layout redistributions through all-to-all; the base case's gathers and scatters).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.backend import ascontiguousarray
from repro.collectives import CommContext, gather, scatter
from repro.collectives.alltoall import Item, all_to_all_index, all_to_all_two_phase
from repro.dist.distmatrix import DistMatrix
from repro.dist.layouts import ExplicitRowLayout, RowLayout
from repro.machine.exceptions import DistributionError

__all__ = ["gather_rows", "redistribute_rows", "scatter_rows"]


def redistribute_rows(
    A: DistMatrix, new_layout: RowLayout, method: str = "two_phase"
) -> DistMatrix:
    """Move the rows of ``A`` into ``new_layout``; contents unchanged.

    Returns a new :class:`DistMatrix` over ``new_layout`` holding
    exactly the same global matrix.  When the two layouts agree row for
    row the input is returned unchanged at zero cost (no data needs to
    move).  Otherwise every row travels from its old owner to its new
    owner through one all-to-all (``method`` selects the variant), with
    per-destination blocks coalesced so each processor pays one message
    per all-to-all round.  Row indices ride as zero-cost routing
    metadata; only matrix entries count as words.

    >>> import numpy as np
    >>> from repro.dist import BlockRowLayout, CyclicRowLayout, DistMatrix
    >>> from repro.machine import Machine
    >>> machine = Machine(2)
    >>> A = np.arange(8.0).reshape(4, 2)
    >>> dA = DistMatrix.from_global(machine, A, BlockRowLayout([2, 2]))
    >>> out = redistribute_rows(dA, CyclicRowLayout(4, 2))
    >>> np.array_equal(out.to_global(), A)   # contents unchanged
    True
    >>> redistribute_rows(out, out.layout) is out   # same layout: free
    True
    """
    old = A.layout
    if new_layout.m != old.m:
        raise DistributionError(
            f"cannot redistribute {old.m} rows into a layout of {new_layout.m}"
        )
    if old.same_as(new_layout):
        return A  # identical ownership: zero-cost no-op
    if method not in ("index", "two_phase"):
        raise ValueError(f"unknown all-to-all method {method!r}")

    machine = A.machine
    n = A.n
    # Differing layouts of the same m rows involve at least two ranks
    # (a single shared participant would make the ownerships identical).
    ranks = sorted(set(old.participants()) | set(new_layout.participants()))
    new_owners = new_layout.owners()

    ctx = CommContext(machine, ranks)
    g = {r: i for i, r in enumerate(ranks)}  # machine rank -> group rank

    # One item per (source, destination) pair: the sub-block of rows the
    # destination will own, tagged with their global indices (tags are
    # Meta-wrapped by the collectives, hence free).
    items: list[list[Item]] = [[] for _ in range(ctx.size)]
    for p in old.participants():
        rows = old.rows_of(p)
        if rows.size == 0:
            continue
        dests = new_owners[rows]
        blk = A.local(p)
        for t in np.unique(dests):
            sel = dests == t
            items[g[p]].append(
                (g[int(t)], ("rows", rows[sel]), ascontiguousarray(blk[sel, :]))
            )

    run = all_to_all_two_phase if method == "two_phase" else all_to_all_index
    received = run(ctx, items)

    out_blocks: dict[int, np.ndarray] = {}
    for t in new_layout.participants():
        rows_t = new_layout.rows_of(t)
        out = machine.ops.zeros((rows_t.size, n), dtype=A.dtype)
        for tag, arr in received[g[t]]:
            _kind, sub_rows = tag
            out[np.searchsorted(rows_t, sub_rows), :] = arr.reshape(sub_rows.size, n)
        out_blocks[t] = out
    return DistMatrix(machine, new_layout, n, out_blocks, dtype=A.dtype)


def gather_rows(A: DistMatrix, dest: RowLayout, team: Sequence[int], root: int) -> DistMatrix:
    """Every member of ``team`` sends ``root`` the rows ``dest`` gives the root.

    One binomial :func:`~repro.collectives.gather` over ``team``, whose
    *order* is the shape of the tree: it changes the critical path,
    never the result.  All other rows stay put; each changed block is
    re-sorted by global row.  With nothing to move, returns ``A`` at no
    charge -- the collective itself would pay one message per tree edge
    whatever the payload.

    >>> from repro.dist import BlockRowLayout
    >>> from repro.machine import Machine
    >>> dA = DistMatrix.from_global(
    ...     Machine(2), np.arange(8.0).reshape(4, 2), BlockRowLayout([1, 3]))
    >>> out = gather_rows(dA, BlockRowLayout([3, 1]), [0, 1], 0)   # rows 1 and 2 move
    >>> out.local(1).tolist(), dA.machine.report().total_words_sent
    ([[6.0, 7.0]], 4)
    """
    return _through_root(A, dest, team, root, gather, [(q, root) for q in team])


def scatter_rows(A: DistMatrix, dest: RowLayout, team: Sequence[int], root: int) -> DistMatrix:
    """``root`` sends every member of ``team`` the rows ``dest`` gives them.

    The mirror image of :func:`gather_rows`: one binomial
    :func:`~repro.collectives.scatter`, same conventions.
    """
    return _through_root(A, dest, team, root, scatter, [(root, q) for q in team])


def _through_root(
    A: DistMatrix, dest: RowLayout, team: Sequence[int], root: int,
    collective: Callable, ends: list[tuple[int, int]],
) -> DistMatrix:
    """Piece ``j`` is the rows of ``src`` that ``dest`` gives ``dst``, ``(src, dst) = ends[j]``."""
    if dest.m != A.m:
        raise DistributionError(f"cannot move {A.m} rows towards a layout of {dest.m}")
    cur, target = A.layout, dest.owners()
    pieces: list[np.ndarray | None] = [None] * len(team)
    arrivals: dict[int, list[tuple[np.ndarray, int]]] = {}
    for j, (src, dst) in enumerate(ends):
        if src == dst:
            continue
        mine = cur.rows_of(src)
        sel = np.flatnonzero(target[mine] == dst)
        if sel.size:
            pieces[j] = A.local(src) if sel.size == mine.size else A.local(src)[sel]
            arrivals.setdefault(dst, []).append((mine[sel], j))
    if not arrivals:
        return A
    got = collective(CommContext(A.machine, list(team)), team.index(root), pieces)

    owners = cur.owners().copy()
    for dst, parts in arrivals.items():
        owners[np.concatenate([moved for moved, _ in parts])] = dst
    blocks = dict(A.blocks)
    for p in team:
        mine = cur.rows_of(p)
        stay = np.flatnonzero(owners[mine] == p)
        rows, vals = [], []
        if stay.size:
            rows.append(mine[stay])
            vals.append(A.local(p) if stay.size == mine.size else A.local(p)[stay])
        for moved, j in arrivals.get(p, ()):
            rows.append(moved)
            vals.append(got[j])
        if not vals:
            blocks.pop(p, None)
        elif len(vals) == 1:
            blocks[p] = vals[0]
        else:
            blocks[p] = np.vstack(vals)[np.argsort(np.concatenate(rows))]
    return DistMatrix(A.machine, ExplicitRowLayout(owners), A.n, blocks, dtype=A.dtype)
