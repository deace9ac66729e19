"""Distributed-matrix containers: layouts, DistMatrix, redistribution.

The data-distribution layer beneath every algorithm in the library
(paper Sections 5-8).  Row layouts say which processor owns which
global row; :class:`DistMatrix` stores one local block per owner and
enforces the owner-computes discipline; :func:`redistribute_rows` moves
rows between layouts through the metered all-to-all collectives; and
:mod:`repro.dist.blockcyclic` provides the 2D block-cyclic layout the
Section 8.1 baselines compare against.

Construction and harness-side conversion (``from_global`` /
``to_global``) are free by the library's cost conventions; everything
that moves data between processors flows through
:class:`~repro.machine.Machine` and is accounted on the critical path.

>>> import numpy as np
>>> from repro.machine import Machine
>>> machine = Machine(2)
>>> A = np.arange(12.0).reshape(4, 3)
>>> dA = DistMatrix.from_global(machine, A, BlockRowLayout([2, 2]))
>>> dA.local(1)                      # rank 1 owns the last two rows
array([[ 6.,  7.,  8.],
       [ 9., 10., 11.]])
>>> moved = redistribute_rows(dA, CyclicRowLayout(4, 2))
>>> moved.local(1)                   # now rank 1 owns rows 1 and 3
array([[ 3.,  4.,  5.],
       [ 9., 10., 11.]])
>>> machine.report().total_words_sent   # metered: 6 words, 2 hops each
12

Paper anchor: Sections 5-8 (data distributions beneath every algorithm).
"""

from repro.dist.blockcyclic import BlockCyclic2D, choose_grid_2d
from repro.dist.distmatrix import DistMatrix
from repro.dist.layouts import (
    BlockRowLayout,
    CyclicRowLayout,
    ExplicitRowLayout,
    RowLayout,
    head_layout,
    tail_layout,
)
from repro.dist.redistribute import gather_rows, redistribute_rows, scatter_rows

__all__ = [
    "BlockCyclic2D",
    "BlockRowLayout",
    "CyclicRowLayout",
    "choose_grid_2d",
    "DistMatrix",
    "ExplicitRowLayout",
    "RowLayout",
    "gather_rows",
    "head_layout",
    "redistribute_rows",
    "scatter_rows",
    "tail_layout",
]
