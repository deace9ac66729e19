"""Block-size-aware dispatch between collective algorithm variants.

Lemma 1 reports, for broadcast / reduce / all-reduce, the *minimum* of
the binomial-tree bound (``B log P`` words) and the bidirectional
exchange bound (``~B + P`` words).  These wrappers pick whichever
variant's bound is smaller for the given block size, which is exactly
what a tuned MPI would do -- and what the paper's Table 1 assumes.

Paper anchor: Appendix A (variant selection by block size).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.collectives import bidirectional, binomial
from repro.collectives.context import CommContext
from repro.machine import words_of
from repro.util import ilog2


def _prefer_bidirectional(P: int, B: int) -> bool:
    """True when the bidirectional-exchange bound beats the binomial tree.

    Binomial moves ``B log P`` words; bidirectional moves about
    ``2 (P-1) ceil(B/P) <= 2(B + P)`` and needs ``2 log P`` messages.
    """
    if P <= 2:
        return False
    logp = max(ilog2(P), 1)
    return B * logp > 2 * (B + P)


def broadcast(ctx: CommContext, root: int, value: Any) -> Any:
    """Broadcast with automatic variant choice (Table 1 broadcast row).

    >>> from repro.machine import Machine
    >>> import numpy as np
    >>> machine = Machine(4)
    >>> ctx = CommContext.world(machine)
    >>> out = broadcast(ctx, 0, np.arange(3.0))
    >>> out.tolist()
    [0.0, 1.0, 2.0]
    >>> machine.report().total_messages_sent > 0
    True
    """
    if _prefer_bidirectional(ctx.size, words_of(value)):
        return bidirectional.broadcast_bidirectional(ctx, root, value)
    return binomial.broadcast_binomial(ctx, root, value)


def reduce(ctx: CommContext, root: int, contributions: Sequence[np.ndarray]) -> np.ndarray:
    """Reduce with automatic variant choice (Table 1 reduce row)."""
    if _prefer_bidirectional(ctx.size, words_of(contributions[0])):
        return bidirectional.reduce_bidirectional(ctx, root, contributions)
    return binomial.reduce_binomial(ctx, root, contributions)


def all_reduce(ctx: CommContext, contributions: Sequence[np.ndarray]) -> np.ndarray:
    """All-reduce with automatic variant choice (Table 1 all-reduce row)."""
    if _prefer_bidirectional(ctx.size, words_of(contributions[0])):
        return bidirectional.all_reduce_bidirectional(ctx, contributions)
    return binomial.all_reduce_binomial(ctx, contributions)
