"""Checksum-coded TSQR/CAQR-1D: XOR parity blocks on spare ranks.

The coding scheme augments a block-row-distributed input with ``f``
checksum row-blocks held by *spare* processors: the ``P`` data ranks
are split into ``f`` groups (rank ``i`` of the participant order joins
group ``i % f``), and each group's spare receives every member's block
and stores their **bytewise XOR** (blocks padded with zero rows to the
group's tallest block).  XOR parity is exactly invertible over the raw
float bytes, so when one member of a group dies its block is
reconstructed *bit-identically* as ``checksum XOR (surviving
members)`` -- no floating-point rounding enters the code path, which
is what makes the recovered factorization bit-identical to the
no-fault run (the acceptance bar of the chaos tests).

Cost accounting is exact and backend-uniform: the encode transfers
``m*n`` words in ``P`` messages (each member ships its block to its
spare) and the parity combine charges ``(|G| - 1) * rows_G * n`` XOR
operations per group -- metered through the ordinary
:meth:`~repro.machine.Machine.transfer` / ``kernel`` / ``compute``
calls, so the overhead appears in :class:`~repro.machine.CostReport`
identically on the numeric, parallel, and symbolic backends, and
:func:`predict_overhead` states the same numbers in closed form:

>>> predict_overhead(8, 2, P=4, f=1)
CodedOverhead(flops=12, words=16, messages=4)
>>> predict_overhead(8, 2, P=4, f=2)
CodedOverhead(flops=8, words=16, messages=4)

Encoding is a step of the one job path: :func:`run_coded_qr` is a
:func:`repro.workloads.sweeps.build` with ``f`` spare ranks, whose
``drive`` calls :func:`encode_checksums` right after distributing the
input and keeps the :class:`CodedContext` on the build.  Recovery
(:func:`recover_from_failure`, invoked by a
:class:`~repro.faults.policy.CodedRecovery` the build bound to that
context) runs harness-side on the already-failed attempt: it
overwrites the dead rank's *input leaf* with the reconstructed block
and re-arms the victim's tasks -- together with every buffer they had
written in place (:func:`repro.engine.compile.rearm`) -- so the
engine's retry replays only the victim's stream (plus whatever was
still pending) against survivors' already-computed values.

Paper anchor: Section 5 (the 1D block-row algorithms being protected);
Section 3 (the cost model the redundancy is accounted in); arXiv
2311.11943 (checksum augmentation for fault-tolerant parallel QR).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any

import numpy as np

from repro.backend.registry import resolve_backend
from repro.backend.symbolic import SymbolicArray
from repro.dist import DistMatrix
from repro.faults.inject import FaultPlan
from repro.faults.policy import CodedRecovery, parse_policy
from repro.machine import CostReport, Machine
from repro.machine.exceptions import FaultRecoveryError, ParameterError
from repro.util import balanced_sizes

__all__ = [
    "CODED_ALGORITHMS",
    "CodedContext",
    "CodedOverhead",
    "CodedRunResult",
    "encode_checksums",
    "predict_overhead",
    "recover_from_failure",
    "run_coded_qr",
]

#: Algorithms the coded layer protects (1D block-row distributions).
CODED_ALGORITHMS = ("tsqr", "caqr1d")


@dataclass(frozen=True)
class CodedOverhead:
    """Closed-form redundancy cost of encoding ``f`` checksum blocks.

    Words and messages are exact integers; flops counts one XOR word
    combine per element per pairwise merge, matching the metered
    ``compute`` charge.
    """

    flops: int
    words: int
    messages: int

    def as_delta(self) -> dict[str, float]:
        """The same numbers keyed like :meth:`CostReport.delta` output."""
        return {
            "total_flops": float(self.flops),
            "total_words_sent": self.words,
            "total_messages_sent": self.messages,
        }


def predict_overhead(m: int, n: int, P: int, f: int = 1) -> CodedOverhead:
    """Exact encode cost for an ``m x n`` input on ``P`` ranks, ``f`` spares.

    Every data rank ships its block once (``m*n`` words, ``P``
    messages) and each group's spare performs ``|G| - 1`` pairwise XOR
    combines over its padded ``rows_G x n`` block.
    """
    if not 1 <= f <= P:
        raise ParameterError(f"predict_overhead requires 1 <= f <= P, got f={f}, P={P}")
    sizes = balanced_sizes(m, P)
    flops = 0
    for g in range(f):
        members = [p for p in range(P) if p % f == g]
        rows_g = max(sizes[p] for p in members)
        flops += (len(members) - 1) * rows_g * n
    return CodedOverhead(flops=int(flops), words=int(m * n), messages=int(P))


@dataclass
class CodedContext:
    """Everything recovery needs: groups, spares, checksums, leaf handles.

    ``blocks`` maps each data rank to its registered local block (a
    plan input leaf on the parallel backend; an ndarray on numeric) and
    ``checksums`` maps each group to its parity block (a lazy XOR task
    on the parallel backend).  ``recovered_groups`` tracks spent parity
    -- one failure per group is recoverable.
    """

    f: int
    ncols: int
    dtype: np.dtype
    groups: dict[int, tuple[int, ...]]
    spares: dict[int, int]
    group_of: dict[int, int]
    checksums: dict[int, Any]
    blocks: dict[int, Any]
    row_counts: dict[int, int]
    recovered_groups: set = field(default_factory=set)


def _xor_blocks(blocks, rows: int, ncols: int, dtype) -> np.ndarray:
    """Bytewise XOR of ``blocks`` zero-padded to ``rows`` rows.

    Exactly invertible: XORing the result with all but one input
    reproduces the missing input's bytes (the zero padding is the XOR
    identity), for any fixed-width dtype.
    """
    out = np.zeros((rows, ncols), dtype=dtype)
    acc = out.view(np.uint8).reshape(rows, -1)
    for blk in blocks:
        b = np.ascontiguousarray(blk, dtype=dtype)
        if b.size == 0:
            continue
        bb = b.view(np.uint8).reshape(b.shape[0], -1)
        np.bitwise_xor(acc[: b.shape[0]], bb, out=acc[: b.shape[0]])
    return out


def _xor_kernel(*blocks, rows: int, ncols: int, dtype) -> np.ndarray:
    """Pure kernel form of :func:`_xor_blocks` for ``machine.kernel``."""
    return _xor_blocks(blocks, rows, ncols, dtype)


def encode_checksums(machine: Machine, dA: DistMatrix, f: int = 1) -> CodedContext:
    """Ship every block to its group's spare and store the XOR parity.

    The data ranks are ``dA``'s participants; the spare for group ``g``
    is rank ``machine.P - f + g``, so the machine must be constructed
    with ``P_data + f`` processors.  Ends with a
    :meth:`~repro.machine.Machine.barrier`: a join of the simulated
    clocks, so the encode is charged before the algorithm starts.  The
    engines schedule by dataflow alone; a rank that dies before its
    group's parity task has run is unrecoverable
    (:func:`recover_from_failure` raises ``FaultRecoveryError``).
    """
    parts = list(dA.layout.participants())
    if not 1 <= f <= len(parts):
        raise ParameterError(
            f"encode_checksums requires 1 <= f <= {len(parts)} data ranks, got f={f}"
        )
    if machine.P < max(parts) + 1 + f:
        raise ParameterError(
            f"encode_checksums needs {f} spare ranks beyond the data ranks; "
            f"construct the Machine with P >= {max(parts) + 1 + f} "
            f"(got P={machine.P})"
        )
    n = dA.n
    dtype = dA.dtype
    groups: dict[int, tuple[int, ...]] = {}
    spares: dict[int, int] = {}
    group_of: dict[int, int] = {}
    checksums: dict[int, Any] = {}
    for g in range(f):
        members = tuple(p for i, p in enumerate(parts) if i % f == g)
        spare = machine.P - f + g
        groups[g] = members
        spares[g] = spare
        for p in members:
            group_of[p] = g
        rows_g = max(dA.layout.count(p) for p in members)
        received = tuple(
            machine.transfer(p, spare, dA.local(p), label="coded_encode")
            for p in members
        )
        fn = partial(_xor_kernel, rows=rows_g, ncols=n, dtype=dtype)
        checksums[g] = machine.kernel(
            spare, fn, received, SymbolicArray((rows_g, n), dtype), label="coded_xor"
        )
        machine.compute(spare, (len(members) - 1) * rows_g * n, label="coded_xor")
    machine.barrier()
    return CodedContext(
        f=f,
        ncols=n,
        dtype=np.dtype(dtype),
        groups=groups,
        spares=spares,
        group_of=group_of,
        checksums=checksums,
        blocks={p: dA.local(p) for p in parts},
        row_counts={p: dA.layout.count(p) for p in parts},
    )


def _materialized(handle: Any, what: str, failure) -> np.ndarray:
    """The concrete ndarray behind a context handle (lazy or eager)."""
    if getattr(handle, "_repro_lazy_", False):
        task = handle.ref.task
        if not task.done:
            raise FaultRecoveryError(
                f"{what} had not been computed at the time of death; "
                "cannot reconstruct"
            ) from failure
        value = task.value
        return value if handle.ref.index is None else value[handle.ref.index]
    if isinstance(handle, np.ndarray):
        return handle
    raise FaultRecoveryError(
        f"{what} carries no concrete values on this backend; coded "
        "recovery needs the parallel engine"
    ) from failure


def recover_from_failure(ctx: CodedContext | None, failure, plan) -> np.ndarray:
    """Reconstruct the dead rank's block and reset its tasks for replay.

    Reads only the group's checksum and the *surviving* members' input
    blocks -- never the victim's stored value -- XORs them back into
    the lost block, overwrites the victim's plan input leaf with it,
    and re-arms every task in the victim's stream plus the producers
    whose buffers those tasks wrote in place (a ``zeros`` the victim
    filled must be zeros again).  Returns the reconstructed block.
    """
    victim = failure.rank
    if ctx is None or victim not in ctx.group_of:
        raise FaultRecoveryError(
            f"rank {victim} holds no coded data block (a spare or an "
            "uncoded rank died); cannot reconstruct"
        ) from failure
    g = ctx.group_of[victim]
    if g in ctx.recovered_groups:
        raise FaultRecoveryError(
            f"checksum group {g} already spent its parity block; a second "
            f"failure (rank {victim}) is unrecoverable with f={ctx.f}"
        ) from failure
    checksum = _materialized(ctx.checksums[g], f"group {g}'s checksum", failure)
    survivors = [
        _materialized(ctx.blocks[p], f"rank {p}'s input block", failure)
        for p in ctx.groups[g]
        if p != victim
    ]
    rows_g = checksum.shape[0]
    full = _xor_blocks([checksum, *survivors], rows_g, ctx.ncols, ctx.dtype)
    reconstructed = np.ascontiguousarray(full[: ctx.row_counts[victim]])
    leaf_handle = ctx.blocks[victim]
    if not getattr(leaf_handle, "_repro_lazy_", False):
        raise FaultRecoveryError(
            "the victim's block is not a plan input leaf; coded recovery "
            "needs the parallel engine"
        ) from failure
    leaf_handle.ref.task.value = reconstructed
    from repro.engine.compile import rearm  # the engine sits above faults

    rearm(plan, [t for t in plan.tasks if t.rank == victim and not t.is_input])
    ctx.recovered_groups.add(g)
    return reconstructed


@dataclass
class CodedRunResult:
    """One coded QR run: factors, exact costs, and recovery evidence."""

    algorithm: str
    m: int
    n: int
    P: int
    f: int
    factors: tuple
    report: CostReport
    predicted: CodedOverhead
    recoveries: int
    fired: tuple
    machine: Machine


def run_coded_qr(
    algorithm: str,
    A,
    P: int,
    f: int = 1,
    fault=None,
    recovery=None,
    backend: str = "parallel",
    workers: int | None = None,
    cost_params=None,
    **params,
) -> CodedRunResult:
    """Run a checksum-protected TSQR / CAQR-1D factorization.

    ``P`` counts the *data* ranks; the machine is enlarged to ``P + f``
    so the spares exist.  ``fault`` is a
    :class:`~repro.faults.inject.FaultPlan` or a CLI spec
    (``"rank@step"``); ``recovery`` a policy instance or spec
    (``"coded:1"``, ``"failfast"``, ``"retry:2"``) -- with an injected
    fault and no explicit policy, ``CodedRecovery(f)`` is assumed; a
    ``CodedRecovery`` with another ``f`` raises ``ParameterError``.
    Returns the factors ``(V, T, R)`` plus the machine's exact
    :class:`~repro.machine.CostReport` (checksum overhead included) and
    the recovery evidence (triggers fired, groups recovered).  ``params``
    takes the harness knobs (:data:`repro.workloads.sweeps.KNOBS`; caqr1d
    reads ``b`` and ``eps``); any other name raises ``ParameterError``.
    The run is one :func:`repro.workloads.sweeps.build` with ``f`` spares.
    """
    from repro.workloads.sweeps import build  # sweeps imports this module

    impl = resolve_backend(backend)
    A = impl.coerce_global(A)
    m, n = A.shape
    predicted = predict_overhead(m, n, P, f)   # rejects f outside 1..P
    fault_plan = FaultPlan.parse(fault)
    policy = parse_policy(recovery)
    if fault_plan is not None and policy is None:
        policy = CodedRecovery(f)
    built, factors = build(algorithm, A, P, params, False, impl, workers, cost_params,
                           fault_plan=fault_plan, recovery=policy, f=f)
    return CodedRunResult(
        algorithm=algorithm,
        m=m,
        n=n,
        P=P,
        f=f,
        factors=factors,
        report=built.report,
        predicted=predicted,
        recoveries=len(built.coded.recovered_groups),
        fired=fault_plan.fired if fault_plan is not None else (),
        machine=built.machine,
    )
