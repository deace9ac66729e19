"""Row-distributed dense matrices with owner-computes semantics.

A :class:`DistMatrix` pairs a :class:`~repro.dist.layouts.RowLayout`
with one local block per participating processor; block ``p`` holds the
rows ``layout.rows_of(p)`` in ascending global order.  The container
enforces the ownership discipline the simulator relies on: an algorithm
may only read or write a processor's own block, and every block's shape
is pinned to the layout.

Cost conventions (paper Section 3): constructing, splitting, and
reassembling distributed matrices is *harness-side* and free --
:meth:`DistMatrix.from_global` and :meth:`DistMatrix.to_global` model
the test harness teleporting data in and out of the machine, not an
algorithm step.  So is an owner slicing its own block: the two cuts
:meth:`DistMatrix.cols` and :meth:`DistMatrix.split_rows` return views,
and :meth:`DistMatrix.from_pieces` pastes row-aligned pieces back.
Anything that moves rows *between processors* is an algorithm step and
is metered through :class:`~repro.machine.Machine`: see
:meth:`DistMatrix.gather_to_root` and :mod:`repro.dist.redistribute`.

>>> import numpy as np
>>> from repro.dist import BlockRowLayout
>>> from repro.machine import Machine
>>> machine = Machine(2)
>>> dA = DistMatrix.from_global(
...     machine, np.eye(4), BlockRowLayout([2, 2]))
>>> dA.shape, dA.local(0).shape
((4, 4), (2, 4))
>>> machine.report().total_words_sent        # from_global is free
0
>>> gathered = dA.gather_to_root(0)          # ...but a gather is metered
>>> int(machine.report().total_words_sent)
8

Paper anchor: Section 3 (owner-computes execution); Sections 5 and 7 (row distributions).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.dist.layouts import BlockRowLayout, RowLayout, head_layout, tail_layout
from repro.machine import Machine
from repro.machine.exceptions import DistributionError, OwnershipError

__all__ = ["DistMatrix"]


class DistMatrix:
    """An ``m x ncols`` matrix distributed by rows over a machine.

    Parameters
    ----------
    machine:
        The simulated machine the blocks live on.
    layout:
        Row ownership; ``layout.m`` is the global row count.
    ncols:
        Number of columns (every block has this width).
    blocks:
        ``{rank: ndarray}`` with exactly one ``(layout.count(p), ncols)``
        block per participant, rows sorted by global index.  Arrays are
        stored as given (the simulator shares buffers; transfers return
        the same array object) -- use :meth:`copy` for an independent
        matrix.
    dtype:
        Element type; defaults to the common type of the blocks.
    """

    def __init__(
        self,
        machine: Machine,
        layout: RowLayout,
        ncols: int,
        blocks: Mapping[int, np.ndarray],
        dtype: np.dtype | type | str | None = None,
    ) -> None:
        ncols = int(ncols)
        if ncols < 0:
            raise DistributionError(f"ncols must be >= 0, got {ncols}")
        parts = layout.participants()
        extra = set(blocks) - set(parts)
        if extra:
            raise DistributionError(
                f"blocks given for non-participating ranks {sorted(extra)}"
            )
        checked: dict[int, np.ndarray] = {}
        for p in parts:
            if p not in blocks:
                raise DistributionError(f"missing local block for rank {p}")
            # Backend coercion: on a symbolic machine real blocks collapse
            # to shape-only stand-ins; on a numeric machine symbolic
            # blocks are rejected.
            blk = machine.ops.asarray(blocks[p])
            expect = (layout.count(p), ncols)
            if blk.shape != expect:
                raise DistributionError(
                    f"rank {p} block has shape {blk.shape}, layout requires {expect}"
                )
            checked[p] = blk
        self.machine = machine
        self.layout = layout
        self.n = ncols
        if dtype is not None:
            self.dtype = np.dtype(dtype)
        elif checked:
            self.dtype = np.result_type(*(b.dtype for b in checked.values()))
        else:
            self.dtype = np.dtype(np.float64)
        # Blocks and declared dtype must agree (to_global/gather allocate
        # from self.dtype); casting is a no-op when they already match.
        self.blocks = {
            p: blk if blk.dtype == self.dtype else blk.astype(self.dtype)
            for p, blk in checked.items()
        }

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Global row count."""
        return self.layout.m

    @property
    def shape(self) -> tuple[int, int]:
        return (self.layout.m, self.n)

    # ------------------------------------------------------------------
    # Construction (harness-side, free)
    # ------------------------------------------------------------------
    @classmethod
    def from_global(
        cls,
        machine: Machine,
        A: np.ndarray,
        layout: RowLayout,
        dtype: np.dtype | type | str | None = None,
    ) -> "DistMatrix":
        """Distribute a global array into ``layout`` (free: harness-side).

        Models the benchmark harness placing the input on the machine;
        no simulated communication is charged.  Blocks are copies, so
        later mutation of ``A`` does not alias the distributed matrix.
        """
        from repro.backend import asarray as _backend_asarray

        A = _backend_asarray(A)
        if A.ndim != 2:
            raise DistributionError(f"expected a 2-D array, got shape {A.shape}")
        if A.shape[0] != layout.m:
            raise DistributionError(
                f"array has {A.shape[0]} rows but layout distributes {layout.m}"
            )
        blocks = {p: A[layout.rows_of(p), :] for p in layout.participants()}
        return cls(machine, layout, A.shape[1], blocks, dtype=dtype or A.dtype)

    @classmethod
    def zeros(
        cls,
        machine: Machine,
        layout: RowLayout,
        ncols: int,
        dtype: np.dtype | type | str = np.float64,
    ) -> "DistMatrix":
        """All-zero distributed matrix (free: harness-side allocation)."""
        dt = np.dtype(dtype)
        blocks = {
            p: machine.ops.zeros((layout.count(p), int(ncols)), dtype=dt)
            for p in layout.participants()
        }
        return cls(machine, layout, ncols, blocks, dtype=dt)

    def to_global(self) -> np.ndarray:
        """Assemble the global array (free: harness-side, debug/validation).

        Algorithms must not use this to move data -- it is the harness
        reading results out of the machine.  For a metered gather, use
        :meth:`gather_to_root`.  On a symbolic machine the result is a
        shape-only stand-in (there are no values to assemble).
        """
        out = self.machine.ops.zeros(self.shape, dtype=self.dtype)
        for p, blk in self.blocks.items():
            out[self.layout.rows_of(p), :] = blk
        return out

    def copy(self) -> "DistMatrix":
        """Deep copy: independent blocks, shared layout (free)."""
        return DistMatrix(
            self.machine,
            self.layout,
            self.n,
            {p: blk.copy() for p, blk in self.blocks.items()},
            dtype=self.dtype,
        )

    @classmethod
    def from_pieces(
        cls, layout: RowLayout, ncols: int, pieces: Sequence[tuple["DistMatrix", int, int]]
    ) -> "DistMatrix":
        """Zeros with each ``(D, r0, c0)`` written at rows ``r0:``, columns ``c0:`` (free).

        The inverse of the cuts below: ``D`` must be distributed like
        rows ``r0 : r0 + D.m`` of ``layout``, so every owner writes one
        contiguous slice of its own block.  Takes the first piece's type.
        """
        machine, dtype = pieces[0][0].machine, pieces[0][0].dtype
        out = cls.zeros(machine, layout, ncols, dtype=dtype)
        for D, r0, c0 in pieces:
            for p in D.layout.participants():
                lo = int(np.searchsorted(layout.rows_of(p), r0))
                out.blocks[p][lo : lo + D.layout.count(p), c0 : c0 + D.n] = D.local(p)
        return out

    # ------------------------------------------------------------------
    # Free cuts (local slicing; the parts are *views* of these blocks)
    # ------------------------------------------------------------------
    def cols(self, lo: int, hi: int) -> "DistMatrix":
        """Columns ``lo:hi`` in the same layout (free: local slicing).

        The blocks of the result are views of this matrix's blocks:
        read them, never write through them.

        >>> dA = DistMatrix.from_global(
        ...     Machine(2), np.arange(12.0).reshape(4, 3), BlockRowLayout([2, 2]))
        >>> dA.cols(1, 3).local(1).tolist()
        [[7.0, 8.0], [10.0, 11.0]]
        """
        blocks = {p: blk[:, lo:hi] for p, blk in self.blocks.items()}
        return DistMatrix(self.machine, self.layout, hi - lo, blocks, dtype=self.dtype)

    def split_rows(self, k: int) -> tuple["DistMatrix", "DistMatrix"]:
        """Rows ``< k`` in ``head_layout``, rows ``>= k`` in ``tail_layout`` (free).

        A block's rows ascend, so each side of the cut is one contiguous
        slice of it -- its first ``head.count(p)`` rows and the rest; a
        rank with no row on a side does not take part there.  Like
        :meth:`cols`, the parts are views.

        >>> dA = DistMatrix.from_global(
        ...     Machine(3), np.arange(5.0).reshape(5, 1), BlockRowLayout([1, 3, 1]))
        >>> head, tail = dA.split_rows(2)
        >>> head.layout.participants(), tail.local(1).ravel().tolist()
        ([0, 1], [2.0, 3.0])
        """
        head, tail = head_layout(self.layout, k), tail_layout(self.layout, k)
        above = {p: self.blocks[p][: head.count(p)] for p in head.participants()}
        below = {p: self.blocks[p][head.count(p) :] for p in tail.participants()}
        return (
            DistMatrix(self.machine, head, self.n, above, dtype=self.dtype),
            DistMatrix(self.machine, tail, self.n, below, dtype=self.dtype),
        )

    # ------------------------------------------------------------------
    # Local access (owner-computes discipline)
    # ------------------------------------------------------------------
    def _check_owner(self, p: int) -> None:
        if p not in self.blocks:
            raise OwnershipError(
                f"rank {p} owns no rows of this matrix "
                f"(participants: {self.layout.participants()})"
            )

    def local(self, p: int) -> np.ndarray:
        """Rank ``p``'s local block (rows in ascending global order)."""
        self._check_owner(p)
        return self.blocks[p]

    def set_local(self, p: int, block: np.ndarray) -> None:
        """Replace rank ``p``'s local block (shape-checked)."""
        self._check_owner(p)
        block = self.machine.ops.asarray(block)
        expect = (self.layout.count(p), self.n)
        if block.shape != expect:
            raise DistributionError(
                f"rank {p} block has shape {block.shape}, layout requires {expect}"
            )
        self.blocks[p] = block

    # ------------------------------------------------------------------
    # Metered movement
    # ------------------------------------------------------------------
    def gather_to_root(self, root: int) -> np.ndarray:
        """Collect the whole matrix onto ``root`` -- a *charged* gather.

        Unlike :meth:`to_global`, this is an algorithm step: every
        non-root participant's block travels through a binomial gather
        tree, so the words/messages appear in the machine's report.
        Returns the assembled ``m x n`` array held by ``root``.
        """
        from repro.dist.redistribute import gather_rows  # imports this module

        team = sorted(set(self.layout.participants()) | {root})
        return gather_rows(self, BlockRowLayout([self.m], [root]), team, root).local(root)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistMatrix(shape={self.shape}, dtype={self.dtype}, "
            f"participants={self.layout.participants()})"
        )
