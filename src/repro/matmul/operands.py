"""Operand views of row-distributed matrices, and the dmm *route*.

The 3D multiplication works in *multiplication coordinates*: the left
factor is ``I x K``, the right ``K x J``, the output ``I x J``.  Matrices
arrive row-distributed, possibly as their (conjugate) transpose -- in
3d-caqr-eg the left factor ``V^H`` is "row-cyclic, transposed"
(Section 7.2).  An :class:`Operand` adapts a
:class:`~repro.dist.DistMatrix` to multiplication coordinates.

:func:`route_faces` is the shape-level half of both dmm
redistributions: it decides *what moves* between a row layout and the
brick layout without touching an array.  A brick face (``rows x cols``
of the operand, ``W = len(cols)`` wide) is cut into ``ways`` balanced
flat row-major ranges, one per processor of the face's grid fiber; a
layout owner holds whole stored rows, so its entries inside the face
form a *lattice* ``rows' x cols'`` and the number of them below flat
position ``x`` has a closed form:

* as stored (``"N"``): the owner holds brick rows ``ii`` in full, so the
  count is ``searchsorted(ii, x // W) * W`` plus ``x % W`` when row
  ``x // W`` is one of ``ii``;
* transposed (``"T"``/``"H"``): it holds brick columns ``kk`` in full,
  so the count is ``(x // W) * len(kk) + searchsorted(kk, x % W)``.

Evaluating the count at the fiber's cut points gives every piece
``(owner, way, entries lo:hi of the owner's lattice)``.  The flat
positions themselves are never built here: a piece carries two compact
descriptors -- a :class:`BlockRange` into the owner's local block and a
:class:`Lattice` into the fiber member's flat part -- from which the
pack/assemble kernels of :mod:`repro.matmul.mm3d` expand their index
vectors at execution time.  On the symbolic backend no kernel runs, so
positions never exist at all.

Positions are deterministic given the layouts, so they are zero-cost
routing metadata -- only values count as words, matching the model's
accounting for MPI-datatype-style redistribution.

Paper anchor: Section 4 (brick operand layouts for dmm).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.dist import DistMatrix, RowLayout
from repro.machine import DistributionError


class Operand:
    """A distributed matrix viewed as a multiplication operand.

    ``op`` is ``"N"`` (as stored), ``"T"`` (transpose) or ``"H"``
    (conjugate transpose).
    """

    def __init__(self, dm: DistMatrix, op: str = "N") -> None:
        if op not in ("N", "T", "H"):
            raise ValueError(f"op must be 'N', 'T' or 'H', got {op!r}")
        self.dm = dm
        self.op = op

    @property
    def shape(self) -> tuple[int, int]:
        """Shape in multiplication coordinates."""
        m, n = self.dm.shape
        return (m, n) if self.op == "N" else (n, m)

    def sources(self) -> list[int]:
        """Machine ranks holding at least one entry."""
        return self.dm.layout.participants()

    def materialize(self) -> np.ndarray:
        """Global operand in multiplication coordinates (debug only; free)."""
        X = self.dm.to_global()
        if self.op == "N":
            return X
        return X.conj().T if self.op == "H" else X.T


def check_conformable(A: Operand, B: Operand) -> tuple[int, int, int]:
    """Validate ``A (I x K) @ B (K x J)`` and return ``(I, J, K)``."""
    I, K = A.shape
    K2, J = B.shape
    if K != K2:
        raise DistributionError(
            f"operand shapes not conformable: {A.shape} @ {B.shape}"
        )
    return I, J, K


# ----------------------------------------------------------------------
# The route: which entries move where (index arithmetic only)
# ----------------------------------------------------------------------

class BlockRange(NamedTuple):
    """Entries ``lo:hi``, row-major, of ``op(block[r0:r1, c0:c1])``.

    ``block`` is a layout owner's local block; ``op`` transposes it
    (``"T"``/``"H"``) and conjugates it (``"H"``) first.
    """

    r0: int
    r1: int
    c0: int
    c1: int
    op: str
    lo: int
    hi: int

    def read(self, block: np.ndarray) -> np.ndarray:
        """The named entries of ``block``, as one flat piece.

        >>> BlockRange(0, 3, 1, 2, "T", 0, 2).read(np.arange(6.0).reshape(3, 2)).tolist()
        [1.0, 3.0]
        """
        view = block[self.r0 : self.r1, self.c0 : self.c1]
        if self.op != "N":
            view = view.T
        n = view.shape[1]
        i0 = self.lo // n
        piece = view[i0 : -(-self.hi // n)].reshape(-1)[self.lo - i0 * n : self.hi - i0 * n]
        return piece.conj() if self.op == "H" and np.iscomplexobj(piece) else piece

    def write(self, block: np.ndarray, piece: np.ndarray) -> None:
        """Store ``piece`` into the named entries of ``block`` (``op`` ``"N"``).

        At most three strided copies: the partial first row, the whole
        rows, the partial last row.

        >>> blk = np.zeros((2, 3))
        >>> BlockRange(0, 2, 1, 3, "N", 1, 4).write(blk, np.array([1.0, 2.0, 3.0]))
        >>> blk.tolist()
        [[0.0, 0.0, 1.0], [0.0, 2.0, 3.0]]
        """
        view = block[self.r0 : self.r1, self.c0 : self.c1]
        n = self.c1 - self.c0
        i0, j0 = divmod(self.lo, n)
        i1, j1 = divmod(self.hi, n)
        if i0 == i1:
            view[i0, j0:j1] = piece
            return
        head = (n - j0) % n
        if head:
            view[i0, j0:] = piece[:head]
            i0 += 1
        view[i0:i1] = piece[head : piece.size - j1].reshape(i1 - i0, n)
        if j1:
            view[i1, :j1] = piece[piece.size - j1 :]


class Lattice:
    """Entries ``lo:hi`` of the lattice ``rows x cols`` of a width-``W`` face.

    The lattice is taken in flat row-major order (``rows`` and ``cols``
    ascending); ``start`` is the flat position at which the fiber
    member's part of the face begins.  The index vector into that part
    is expanded on first use and kept, so a replayed plan gathers and
    scatters with a ready index -- and a run that executes no kernel
    never builds one.  ``grown``, when given, is a list the expansion
    appends the bytes it keeps alive to (how the route memo of
    :mod:`repro.matmul.mm3d` meters index vectors expanded after it
    stored the lattice).
    """

    __slots__ = ("rows", "cols", "W", "lo", "hi", "start", "_positions", "_grown")

    def __init__(
        self, rows: np.ndarray, cols: np.ndarray, W: int, lo: int, hi: int, start: int,
        grown: list[int] | None = None,
    ) -> None:
        self.rows = rows
        self.cols = cols
        self.W = W
        self.lo = lo
        self.hi = hi
        self.start = start
        self._positions: np.ndarray | None = None
        self._grown = grown

    def positions(self) -> np.ndarray:
        """Index vector of the entries inside the fiber member's flat part.

        >>> Lattice(np.array([0, 2]), np.arange(3), 3, 1, 5, 0).positions().tolist()
        [1, 2, 6, 7]
        """
        if self._positions is None:
            n = len(self.cols)
            i0 = self.lo // n
            first = self.rows[i0 : -(-self.hi // n), None] * self.W - self.start
            grid = first + self.cols
            self._positions = grid.reshape(-1)[self.lo - i0 * n : self.hi - i0 * n]
            if self._grown is not None:
                self._grown.append(grid.nbytes)
        return self._positions

    def read(self, part: np.ndarray) -> np.ndarray:
        """The named entries of the flat ``part``, as one flat piece."""
        return part[self.positions()]

    def write(self, part: np.ndarray, piece: np.ndarray) -> None:
        """Store ``piece`` into the named entries of the flat ``part``."""
        part[self.positions()] = piece


class Piece(NamedTuple):
    """One routed piece: face ``(a, b)``, layout ``owner``, fiber ``way``."""

    a: int
    b: int
    owner: int
    way: int
    block: BlockRange
    part: Lattice


class _Strip:
    """The owners of one contiguous strip of stored rows, grouped.

    ``counts`` says how many strip rows each owner holds (owners in
    ascending rank order), ``spans`` gives each owner's machine rank and
    local row range for them, and ``index(g)`` the strip-relative
    indices of owner ``g``'s rows, ascending.
    """

    def __init__(self, owners: np.ndarray, part: range, seen: np.ndarray) -> None:
        seg = owners[part.start : part.stop]
        self._order = np.argsort(seg, kind="stable")
        ranks, self._first, self.counts = np.unique(
            seg[self._order], return_index=True, return_counts=True
        )
        # Sorted (owner, index) keys, one search for all owners at once;
        # the sentinel makes a probe past the end compare unequal.
        self._group = np.arange(ranks.size)[:, None] * (len(part) + 1)
        self._keys = np.append(np.repeat(self._group[:, 0], self.counts) + self._order, -1)
        r0 = seen[ranks]
        seen[ranks] += self.counts  # ``seen``: rows of each rank in earlier strips
        self.spans = list(zip(ranks.tolist(), r0.tolist(), (r0 + self.counts).tolist()))
        self._index: list[np.ndarray] | None = None

    def index(self, g: int) -> np.ndarray:
        if self._index is None:
            ends = (self._first + self.counts).tolist()
            self._index = [self._order[i:j] for i, j in zip(self._first.tolist(), ends)]
        return self._index[g]

    def below(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per owner: how many of its indices are ``< v``, and is ``v`` one."""
        probe = self._group + v
        at = np.searchsorted(self._keys[:-1], probe)
        return at - self._first[:, None], self._keys[at] == probe


def route_faces(
    layout: RowLayout, op: str, row_parts: Sequence[range], col_parts: Sequence[range], ways: int,
    grown: list[int] | None = None,
) -> Iterator[Piece]:
    """Cut every owner's share of every brick face among the face's fiber.

    ``layout`` distributes the stored rows of a matrix that, through
    ``op``, is partitioned into the faces ``row_parts[a] x col_parts[b]``;
    each face is split into ``ways`` balanced flat row-major ranges.
    Yields one :class:`Piece` per nonempty (face, owner, way)
    intersection, faces in ``(a, b)`` order, owners ascending, ways
    ascending.  Pure index arithmetic on the ownership vector -- no
    array is touched, no position vector is built.  ``grown``, when
    given, receives the bytes of the row and column index arrays the
    pieces' lattices share, and is handed to every :class:`Lattice`
    for the index vectors they expand later.

    >>> from repro.dist import CyclicRowLayout
    >>> [(p.owner, p.way, p.block.hi - p.block.lo) for p in
    ...  route_faces(CyclicRowLayout(4, 2), "N", [range(4)], [range(3)], 2)]
    [(0, 0, 3), (0, 1, 3), (1, 0, 3), (1, 1, 3)]
    """
    owners = layout.owners()
    stored_parts = row_parts if op == "N" else col_parts
    seen = np.zeros(int(owners.max()) + 1 if owners.size else 0, dtype=np.int64)
    strips = [_Strip(owners, part, seen) for part in stored_parts]
    full = [np.arange(len(part)) for part in (col_parts if op == "N" else row_parts)]
    if grown is not None:
        grown.append(sum(s._order.nbytes for s in strips) + sum(f.nbytes for f in full))
    fiber = np.arange(ways + 1)
    for a, rows in enumerate(row_parts):
        for b, cols in enumerate(col_parts):
            W = len(cols)
            L = len(rows) * W
            if L == 0:
                continue
            starts = fiber * (L // ways) + np.minimum(fiber, L % ways)
            q, rem = np.divmod(starts, W)
            if op == "N":
                strip, across = strips[a], full[b]
                k, present = strip.below(q)
                cut = k * W + np.where(present, rem, 0)
                c0, c1 = cols.start, cols.stop
            else:
                strip, across = strips[b], full[a]
                k, _ = strip.below(rem)
                cut = q * strip.counts[:, None] + k
                c0, c1 = rows.start, rows.stop
            gs, ws = np.nonzero(cut[:, 1:] > cut[:, :-1])
            starts = starts.tolist()
            for g, w, lo, hi in zip(
                gs.tolist(), ws.tolist(), cut[gs, ws].tolist(), cut[gs, ws + 1].tolist()
            ):
                owner, r0, r1 = strip.spans[g]
                idx = strip.index(g)
                lattice = (idx, across) if op == "N" else (across, idx)
                yield Piece(
                    a, b, owner, w,
                    BlockRange(r0, r1, c0, c1, op, lo, hi),
                    Lattice(*lattice, W, lo, hi, starts[w], grown),
                )
