"""Row layouts: which processor owns which global matrix row.

The paper's algorithms are all expressed over *row-distributed*
matrices with owner-computes semantics: TSQR and 1d-caqr-eg require a
block-row-like distribution where the root owns the leading ``n`` rows
(Section 5), while 3d-caqr-eg works on the row-cyclic layout of
Section 7, whose head/tail restrictions stay cyclic-like under the
qr-eg recursion.  A :class:`RowLayout` is exactly that assignment: a
map from global row index to owning machine rank.

Layouts are pure metadata -- constructing or querying one is free.  The
only operations that cost anything are the ones that *move* rows
(:func:`~repro.dist.redistribute.redistribute_rows`,
:meth:`~repro.dist.distmatrix.DistMatrix.gather_to_root`), and those
are metered through :class:`~repro.machine.Machine`.

>>> lay = BlockRowLayout([3, 2])        # rank 0: rows 0-2, rank 1: rows 3-4
>>> lay.rows_of(1).tolist()
[3, 4]
>>> cyc = CyclicRowLayout(5, 2)         # deal rows round-robin over 2 ranks
>>> cyc.rows_of(0).tolist()
[0, 2, 4]
>>> tail_layout(cyc, 2).rows_of(0).tolist()   # drop the leading 2 rows;
[0, 2]
>>> # rank 0 keeps old rows 2 and 4, renumbered 0 and 2 within the tail.

Paper anchor: Section 5 (block rows); Section 7 (cyclic rows).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.machine.exceptions import DistributionError

__all__ = [
    "RowLayout",
    "CyclicRowLayout",
    "BlockRowLayout",
    "ExplicitRowLayout",
    "head_layout",
    "tail_layout",
]


def _validate_owners(owners: np.ndarray) -> np.ndarray:
    owners = np.asarray(owners)
    if owners.ndim != 1:
        raise DistributionError(
            f"row owners must form a 1-D array, got shape {owners.shape}"
        )
    if owners.size and not np.issubdtype(owners.dtype, np.integer):
        raise DistributionError(
            f"row owners must be integer machine ranks, got dtype {owners.dtype}"
        )
    owners = owners.astype(np.int64, copy=True)
    if owners.size and int(owners.min()) < 0:
        raise DistributionError("row owners must be nonnegative machine ranks")
    owners.setflags(write=False)
    return owners


class RowLayout:
    """Assignment of ``m`` global rows to machine ranks.

    Subclasses only decide how the ownership array is built; every
    query (:meth:`owner`, :meth:`rows_of`, :meth:`count`,
    :meth:`participants`, :meth:`same_as`) is shared.  Two layouts with
    the same ownership array are interchangeable regardless of how they
    were constructed -- ``CyclicRowLayout(6, 2)`` and
    ``ExplicitRowLayout([0, 1, 0, 1, 0, 1])`` compare equal under
    :meth:`same_as`.
    """

    def __init__(self, owners: np.ndarray) -> None:
        self._owners = _validate_owners(owners)
        # rank -> sorted global row indices, built lazily per rank.
        self._rows_cache: dict[int, np.ndarray] = {}
        # Rows per rank in one pass: every DistMatrix built over a layout
        # asks each participant's count, and the algorithms build many.
        self._counts = np.bincount(self._owners)
        # Row indices grouped by rank (one stable sort), built on demand.
        self._by_rank: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of global rows."""
        return int(self._owners.size)

    def owner(self, i: int) -> int:
        """Machine rank owning global row ``i``."""
        if not (0 <= i < self.m):
            raise DistributionError(f"row {i} out of range for layout with m={self.m}")
        return int(self._owners[i])

    def owners(self) -> np.ndarray:
        """Ownership array (length ``m``, read-only): ``owners()[i]`` owns row ``i``."""
        return self._owners

    def rows_of(self, p: int) -> np.ndarray:
        """Global row indices owned by machine rank ``p``, ascending."""
        got = self._rows_cache.get(p)
        if got is None:
            got = self._rows(p) if self.count(p) else np.empty(0, np.intp)
            got.setflags(write=False)
            self._rows_cache[p] = got
        return got

    def cut_of(self, p: int) -> slice | np.ndarray:
        """The index that takes rank ``p``'s rows out of a global array.

        A slice when they are one contiguous run (every block-row
        layout), so the rows come out as a view; else :meth:`rows_of`,
        which gathers them into a copy.

        >>> BlockRowLayout([2, 3]).cut_of(1), CyclicRowLayout(4, 2).cut_of(1)
        (slice(2, 5, None), array([1, 3]))
        """
        rows = self.rows_of(p)
        if not rows.size or rows[-1] - rows[0] + 1 != rows.size:
            return rows
        return slice(int(rows[0]), int(rows[-1]) + 1)

    def _rows(self, p: int) -> np.ndarray:
        """Rows of an owning rank ``p``, read off one sort of the owners.

        A scan per rank would cost O(m) for each rank asked, O(m P) for
        all of them; one stable sort groups every rank's rows at once
        (numpy radix-sorts ranks that fit in 16 bits, so the owners are
        narrowed first).
        """
        if self._by_rank is None:
            narrow = np.min_scalar_type(self._counts.size - 1)
            self._by_rank = np.argsort(self._owners.astype(narrow), kind="stable")
        start = int(self._counts[:p].sum())
        return self._by_rank[start:start + int(self._counts[p])]

    def count(self, p: int) -> int:
        """Number of rows owned by machine rank ``p`` (0 for non-owners)."""
        return int(self._counts[p]) if 0 <= p < self._counts.size else 0

    def participants(self) -> list[int]:
        """Sorted machine ranks owning at least one row."""
        return np.flatnonzero(self._counts).tolist()

    def same_as(self, other: "RowLayout") -> bool:
        """True iff both layouts assign every row to the same rank."""
        if not isinstance(other, RowLayout):
            return False
        return self.m == other.m and bool(np.array_equal(self._owners, other.owners()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(m={self.m}, participants={self.participants()})"


class CyclicRowLayout(RowLayout):
    """Row-cyclic distribution (paper Section 7): row ``i`` on rank ``ranks[i % P]``.

    The default ``ranks`` are ``0..P-1``; passing an explicit sequence
    rotates/renames the dealing order, which the 3d-caqr-eg base case
    uses to make an arbitrary representative the root.
    """

    def __init__(self, m: int, P: int, ranks: Sequence[int] | None = None) -> None:
        if P < 1:
            raise DistributionError(f"CyclicRowLayout requires P >= 1, got P={P}")
        if m < 0:
            raise DistributionError(f"CyclicRowLayout requires m >= 0, got m={m}")
        if ranks is None:
            ranks = range(P)
        ranks_arr = np.asarray(list(ranks), dtype=np.int64)
        if ranks_arr.size != P:
            raise DistributionError(
                f"CyclicRowLayout needs exactly P={P} ranks, got {ranks_arr.size}"
            )
        self.P = P
        super().__init__(ranks_arr[np.arange(m) % P] if m else np.empty(0, np.int64))


class BlockRowLayout(RowLayout):
    """Contiguous block-row distribution: rank ``ranks[j]`` owns ``counts[j]`` rows.

    The Section 5 distribution for TSQR / 1d-caqr-eg (with balanced
    counts and the root first).  Zero counts are allowed -- such ranks
    simply do not participate.
    """

    def __init__(self, counts: Sequence[int], ranks: Sequence[int] | None = None) -> None:
        counts = [int(c) for c in counts]
        if not counts:
            raise DistributionError("BlockRowLayout requires at least one block")
        if any(c < 0 for c in counts):
            raise DistributionError(f"block row counts must be >= 0, got {counts}")
        if ranks is None:
            ranks = range(len(counts))
        ranks = [int(r) for r in ranks]
        if len(ranks) != len(counts):
            raise DistributionError(
                f"BlockRowLayout got {len(counts)} counts but {len(ranks)} ranks"
            )
        self.counts = list(counts)
        owners = np.repeat(np.asarray(ranks, dtype=np.int64), counts)
        super().__init__(owners)


class ExplicitRowLayout(RowLayout):
    """Arbitrary ownership given directly as an array of machine ranks.

    The general-position layout: the 3d-caqr-eg base case builds these
    for its post-gather and post-swap ownerships, and head/tail
    restrictions of any layout are explicit layouts.
    """

    def __init__(self, owners: Sequence[int] | np.ndarray) -> None:
        super().__init__(np.asarray(owners))


def head_layout(layout: RowLayout, k: int) -> ExplicitRowLayout:
    """Layout of the leading ``k`` rows, owners preserved.

    Row ``i`` of the head layout is global row ``i`` of ``layout``; the
    qr-eg recursion uses this for the ``n x n`` intermediates that live
    in the distribution of the input's leading rows (Section 7.2).
    """
    if not (0 <= k <= layout.m):
        raise DistributionError(
            f"head_layout needs 0 <= k <= m={layout.m}, got k={k}"
        )
    return ExplicitRowLayout(layout.owners()[:k])


def tail_layout(layout: RowLayout, k: int) -> ExplicitRowLayout:
    """Layout of rows ``k..m-1``, reindexed from 0, owners preserved.

    Row ``i`` of the tail layout is global row ``k + i`` of ``layout``;
    the right recursions of qr-eg operate on these trailing rows.
    """
    if not (0 <= k <= layout.m):
        raise DistributionError(
            f"tail_layout needs 0 <= k <= m={layout.m}, got k={k}"
        )
    return ExplicitRowLayout(layout.owners()[k:])
