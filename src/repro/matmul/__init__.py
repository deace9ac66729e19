"""Matrix multiplication kernels: local mm, 1D dmm, and 3D dmm.

The paper's Section 4: ``mm`` (Lemma 2) runs on one processor, ``dmm``
on a 1D grid (Lemma 3, two special layouts used by 1d-caqr-eg), and the
general 3D brick algorithm (Lemma 4, [ABG+95]) whose ``(IJK/P)^(2/3)``
bandwidth is the engine of 3d-caqr-eg's bandwidth savings.

Paper anchor: Section 4, Lemmas 2-4.
"""

from repro.matmul.costs import (
    cost_alltoall_redistribution,
    cost_mm,
    cost_mm1d,
    cost_mm3d,
)
from repro.matmul.grid import Grid3D, choose_grid_dims, make_grid
from repro.matmul.local import local_mm
from repro.matmul.mm1d import mm1d_broadcast, mm1d_reduce
from repro.matmul.mm3d import mm3d
from repro.matmul.operands import Operand

__all__ = [
    "Grid3D",
    "Operand",
    "choose_grid_dims",
    "cost_alltoall_redistribution",
    "cost_mm",
    "cost_mm1d",
    "cost_mm3d",
    "local_mm",
    "make_grid",
    "mm1d_broadcast",
    "mm1d_reduce",
    "mm3d",
]
