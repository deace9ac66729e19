"""Run harness shared by benchmarks and examples.

``run_qr`` executes one algorithm on a fresh machine with the paper's
standard input distribution for that algorithm, validates the result,
and returns measured critical-path costs -- one row of any table in the
evaluation.  Backend selection (numeric / symbolic / parallel / any
registered third party) dispatches through
:mod:`repro.backend.registry`; every algorithm in :data:`ALGORITHMS`
runs on every backend.  :func:`build` is where every job's machine is
made, driven and executed; on an engine backend ``run_qr`` is a job of
:func:`repro.engine.run_many`, whose plan cache replays a repeated
shape instead of building it again.

Paper anchor: Section 8 (the evaluation run harness).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from repro.backend import Backend, SymbolicArray, dtype_of, resolve_backend
from repro.dist import (
    BlockRowLayout,
    CyclicRowLayout,
    DistMatrix,
    head_layout,
)
from repro.dist.blockcyclic import BlockCyclic2D, choose_grid_2d
from repro.faults import CODED_ALGORITHMS, CodedRecovery, encode_checksums
from repro.machine import CostParams, CostReport, Machine, ParameterError
from repro.matmul import Operand, mm1d_broadcast, mm1d_reduce, mm3d
from repro.qr import (
    apply_q_1d,
    qr_1d_caqr_eg,
    qr_3d_caqr_eg,
    qr_caqr_2d,
    qr_house_1d,
    qr_house_2d,
    qr_wide_3d,
    tsqr,
)
from repro.qr.householder import reconstruct_t_arrays
from repro.qr.validate import QRDiagnostics, qr_diagnostics
from repro.util import balanced_sizes

#: QR factorization algorithms (the planner's candidate families).
QR_ALGORITHMS = ("tsqr", "house1d", "caqr1d", "house2d", "caqr2d", "caqr3d")

#: Everything runnable by name: the QR factorizations plus the wide-QR
#: reduction, the Q-application primitive, and the 1D/3D multiplications.
ALGORITHMS = QR_ALGORITHMS + ("wide", "applyq", "mm1d", "mm3d")

#: The knob names the harness understands.  Each algorithm reads the
#: subset it has; the CLI ``sweep`` and the planner pass the common set.
KNOBS = ("b", "bstar", "eps", "delta", "bb", "pr", "pc", "method")


@dataclass
class RunResult:
    """One algorithm execution: costs plus numerical certification."""

    algorithm: str
    m: int
    n: int
    P: int
    params: dict
    report: CostReport
    diagnostics: QRDiagnostics
    words_by_label: dict | None = None

    def words_by_phase(self) -> dict[str, float]:
        """Word volume decomposed into coarse traffic phases.

        ``alltoall``: layout <-> dmm-brick redistributions (the Eq. 13
        overhead the paper's Section 8.4 discusses); ``dmm``: all-gather /
        reduce-scatter inside 3D multiplications; ``other``: everything
        else (base cases, 1D reductions/broadcasts, tsqr trees).
        """
        groups = {"alltoall": 0.0, "dmm": 0.0, "other": 0.0}
        for label, w in (self.words_by_label or {}).items():
            if label.startswith("alltoall"):
                groups["alltoall"] += w
            elif label in ("all_gather", "reduce_scatter", "reduce_scatter_add"):
                groups["dmm"] += w
            else:
                groups["other"] += w
        return groups

    def row(self) -> dict:
        d = {"algorithm": self.algorithm, "m": self.m, "n": self.n, "P": self.P}
        d.update({k: v for k, v in self.params.items() if v is not None})
        d.update(
            {
                "flops": self.report.critical_flops,
                "words": self.report.critical_words,
                "messages": self.report.critical_messages,
            }
        )
        d["residual"] = self.diagnostics.residual
        return d


# ----------------------------------------------------------------------
# Validation closures (numeric backends only)
# ----------------------------------------------------------------------

def _rel(x, ref) -> float:
    """Relative Frobenius error ``||x - ref|| / ||ref||`` (0-safe)."""
    nr = float(np.linalg.norm(ref))
    return float(np.linalg.norm(np.asarray(x) - ref)) / (nr if nr > 0 else 1.0)


def _qr_diag(A, factors) -> QRDiagnostics:
    V, T, R = factors
    return qr_diagnostics(A, V, T, R)


def _applyq_diag(A, factors) -> QRDiagnostics:
    V, T, R, Z = factors
    base = qr_diagnostics(A, V, T, R)
    # Z = Q (Q^H A) must round-trip to A (both application directions).
    roundtrip = _rel(Z, np.asarray(A))
    return replace(base, residual=max(base.residual, roundtrip))


def _mm1d_diag(A, factors) -> QRDiagnostics:
    M, C = factors
    A = np.asarray(A)
    ref = A.conj().T @ A
    return QRDiagnostics(_rel(M, ref), _rel(C, A @ ref), 0.0, 0.0, 0.0)


def _mm3d_diag(A, factors) -> QRDiagnostics:
    (C,) = factors
    A = np.asarray(A)
    return QRDiagnostics(_rel(C, A.conj().T @ A), 0.0, 0.0, 0.0, 0.0)


# ----------------------------------------------------------------------
# Input slicers (the plan-replay boundary of repro.engine.run_many)
# ----------------------------------------------------------------------

def _row_slicer(layout):
    """Blocks of a global array in the layout's leaf-registration order.

    As :meth:`DistMatrix.from_global <repro.dist.DistMatrix.from_global>`
    cuts them: a rank's contiguous run of rows is a view of a
    C-contiguous ``X``, other rows are gathered into a copy.
    """
    cuts = [layout.cut_of(p) for p in layout.participants()]

    def slicer(X: np.ndarray) -> list[np.ndarray]:
        X = np.asarray(X)
        return [np.ascontiguousarray(X[cut]) for cut in cuts]

    return slicer


def _grid_slicer(A_bc: BlockCyclic2D):
    """Block-cyclic tiles in ``A_bc``'s leaf-registration order.

    Reads the container's own row/column index sets, so the replay
    boundary can never drift from the distribution math.
    """
    pr, pc = A_bc.pr, A_bc.pc
    row_sel = [A_bc.rows_of(i) for i in range(pr)]
    col_sel = [A_bc.cols_of(j) for j in range(pc)]

    def slicer(X: np.ndarray) -> list[np.ndarray]:
        X = np.asarray(X)
        return [
            np.ascontiguousarray(X[np.ix_(row_sel[i], col_sel[j])])
            for i in range(pr)
            for j in range(pc)
        ]

    return slicer


def check_knobs(params: dict) -> None:
    """Reject a keyword outside :data:`KNOBS` instead of ignoring it.

    A misspelt knob (``bstarr=2``) or a removed option would otherwise
    run with the default and report success.  A *known* knob the chosen
    algorithm does not read stays accepted.
    """
    unknown = sorted(set(params) - set(KNOBS))
    if unknown:
        raise ParameterError(
            f"unknown knob(s) {unknown}; the harness understands {KNOBS}"
        )


def drive(algorithm: str, machine: Machine, A, params: dict, validate: bool):
    """Run ``algorithm`` on ``machine`` with the standard distribution.

    The harness core shared by :func:`run_qr` and the batched driver
    :func:`repro.engine.run_many`.  ``params`` may be updated in place
    with chosen knob defaults (caqr3d's ``b``/``bstar``).  Returns
    ``(factors, diag_fn, slicer)``: the global result arrays (lazy on a
    parallel machine), a ``diag_fn(A, factors)`` validation closure,
    and a ``slicer(X)`` producing the input blocks in plan-leaf order
    (the replay boundary).  A ``params`` name outside :data:`KNOBS`
    raises :class:`~repro.machine.ParameterError`.
    """
    return _drive(algorithm, machine, A, params, validate, 0, True)[:3]


def _drive(algorithm: str, machine: Machine, A, params: dict, validate: bool, f: int,
           assemble: bool):
    """:func:`drive` on ``machine.P - f`` data ranks and ``f`` spares.

    The input's checksums are encoded onto the spares right after it is
    distributed; the fourth result is their
    :class:`~repro.faults.coded.CodedContext` (``None`` when ``f == 0``).
    Without ``assemble`` the global factors are not assembled (assembly
    is free, harness-side, so no count moves) and the first result is
    ``None``: the job path assembles only what something reads.
    """
    check_knobs(params)
    m, n = A.shape
    P = machine.P - f
    coded = None

    if algorithm in ("tsqr", "house1d", "caqr1d"):
        layout = BlockRowLayout(balanced_sizes(m, P))
        dA = DistMatrix.from_global(machine, A, layout)
        coded = encode_checksums(machine, dA, f) if f else None
        if algorithm == "tsqr":
            res = tsqr(dA, root=0)
        elif algorithm == "house1d":
            res = qr_house_1d(dA, root=0)
        else:
            res = qr_1d_caqr_eg(dA, root=0, b=params.get("b"), eps=params.get("eps", 1.0))

        def factors():
            return (res.V.to_global(), res.T, res.R)

        diag_fn, slicer = _qr_diag, _row_slicer(layout)

    elif algorithm in ("caqr3d", "wide"):
        layout = CyclicRowLayout(m, P)
        dA = DistMatrix.from_global(machine, A, layout)
        res = (qr_3d_caqr_eg if algorithm == "caqr3d" else qr_wide_3d)(
            dA,
            b=params.get("b"),
            bstar=params.get("bstar"),
            delta=params.get("delta", 0.5),
            eps=params.get("eps", 1.0),
            method=params.get("method", "two_phase"),
        )
        if algorithm == "caqr3d":
            params.setdefault("b", res.b)
            params.setdefault("bstar", res.bstar)

        def factors():
            return (res.V.to_global(), res.T.to_global(), res.R.to_global())

        diag_fn, slicer = _qr_diag, _row_slicer(layout)

    elif algorithm in ("house2d", "caqr2d"):
        from repro.qr.baselines.caqr2d import caqr2d_default_bb
        from repro.qr.baselines.house2d import HOUSE2D_DEFAULT_BB

        pr, pc = params.get("pr"), params.get("pc")
        if pr is None or pc is None:
            pr, pc = choose_grid_2d(m, n, P)
        bb = params.get("bb")
        if bb is None:
            bb = HOUSE2D_DEFAULT_BB if algorithm == "house2d" else caqr2d_default_bb(m, n, P)
        A_bc = BlockCyclic2D.from_global(machine, A, pr, pc, bb)
        res = (qr_house_2d if algorithm == "house2d" else qr_caqr_2d)(A_bc)

        def factors():
            V, R = res.V_global(), res.R_global()
            if validate:  # T exists only to be validated: one unmetered, rankless kernel
                nn = SymbolicArray((n, n), dtype_of(V))
                T = machine.kernel(None, reconstruct_t_arrays, (V,), nn, label="reconstruct_t")
            else:
                T = np.eye(n)
            return V, T, R

        diag_fn, slicer = _qr_diag, _grid_slicer(A_bc)

    elif algorithm == "applyq":
        layout = BlockRowLayout(balanced_sizes(m, P))
        dA = DistMatrix.from_global(machine, A, layout)
        res = tsqr(dA, root=0)
        Y = apply_q_1d(res.V, res.T, dA, 0, adjoint=True)   # Q^H A
        Z = apply_q_1d(res.V, res.T, Y, 0)                  # Q Q^H A = A

        def factors():
            return (res.V.to_global(), res.T, res.R, Z.to_global())

        diag_fn, slicer = _applyq_diag, _row_slicer(layout)

    elif algorithm == "mm1d":
        layout = BlockRowLayout(balanced_sizes(m, P))
        dA = DistMatrix.from_global(machine, A, layout)
        M = mm1d_reduce(dA, dA, 0, conj_a=True)             # A^H A on root
        C = mm1d_broadcast(dA, M, 0)                        # A (A^H A)

        def factors():
            return (M, C.to_global())

        diag_fn, slicer = _mm1d_diag, _row_slicer(layout)

    elif algorithm == "mm3d":
        layout = CyclicRowLayout(m, P)
        dA = DistMatrix.from_global(machine, A, layout)
        C = mm3d(
            Operand(dA, "H"), dA, head_layout(layout, n),
            method=params.get("method", "two_phase"),
        )

        def factors():
            return (C.to_global(),)

        diag_fn, slicer = _mm3d_diag, _row_slicer(layout)

    else:
        raise KeyError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    return (factors() if assemble else None), diag_fn, slicer, coded


@dataclass
class Build:
    """One job's recorded plan: what a replay of its shape needs.

    ``lazy_factors`` are :func:`drive`'s results as recorded (lazy on an
    engine machine, whose plan a replay re-executes), or ``None`` when
    the job assembles none (nothing reads them); ``report`` and
    ``words_by_label`` are the machine's metering, which a replay of
    the same shape would repeat exactly, so it keeps them.  ``coded`` is
    the :class:`~repro.faults.coded.CodedContext` of a checksum-coded
    build (``None`` otherwise).  ``record_s`` and ``materialize_s`` are
    the wall seconds the build spent driving the algorithm (recording,
    on an engine machine) and in its first ``materialize`` (compile,
    bind and first execute, on an engine machine).
    """

    algorithm: str
    machine: Machine
    lazy_factors: tuple
    diag_fn: Callable
    slicer: Callable[[np.ndarray], list[np.ndarray]]
    params: dict
    report: CostReport
    words_by_label: dict
    coded: Any = None
    record_s: float = 0.0
    materialize_s: float = 0.0

    def result(self, A, factors, validate: bool) -> RunResult:
        """The :class:`RunResult` of a job on input ``A`` with computed ``factors``."""
        m, n = A.shape
        diag = (
            self.diag_fn(A, factors)
            if validate
            else QRDiagnostics(0.0, 0.0, 0.0, 0.0, 0.0)
        )
        return RunResult(
            self.algorithm, m, n, self.machine.P, self.params, self.report, diag,
            words_by_label=dict(self.words_by_label),
        )


def build(
    algorithm: str, A, P: int, params: dict, validate: bool, backend: Backend,
    workers: int | None = None, cost_params: CostParams | None = None,
    fault_plan=None, recovery=None, keep: Callable[[Build], None] | None = None,
    f: int = 0,
) -> tuple[Build, Any]:
    """Record ``algorithm`` on a fresh machine, then execute it once.

    The one place a job's machine is made, driven and materialized:
    :func:`run_qr`, :func:`repro.engine.run_many`, ``repro trace`` and
    :func:`repro.faults.run_coded_qr` all come here.  ``materialize``
    runs the recorded plan on an engine machine and returns
    ``lazy_factors`` unchanged on an eager one.  ``keep`` receives the
    :class:`Build` after that first execute, also when it raises, so a
    plan cache holds the plan either way (the next job of the shape
    replays it).  Returns the build and the computed factors.  The
    global factors are assembled only when something reads them: for
    validation, or for a coded run's result (``f > 0``); otherwise the
    factors are ``None``, and the plan runs every task but assembles
    nothing.

    A ``fault_plan`` trigger that did not fire by the end of the run
    (its victim never reached the step) raises ``ParameterError``.

    ``f > 0`` adds ``f`` spares holding the input's checksums
    (``Build.coded``, :data:`~repro.faults.CODED_ALGORITHMS` only); a
    :class:`~repro.faults.CodedRecovery` must name the same ``f`` (else
    ``ParameterError``, before any machine) and is bound to the context
    for this run alone.
    """
    if f and algorithm not in CODED_ALGORITHMS:
        raise ParameterError(f"checksum coding supports {CODED_ALGORITHMS}, got {algorithm!r}")
    if isinstance(recovery, CodedRecovery) and recovery.f != f:
        raise ParameterError(f"{recovery!r} needs a run coded with f={recovery.f}, got "
                             f"f={f}; repro.faults.run_coded_qr runs coded jobs")
    machine = Machine(
        P + f, params=cost_params, backend=backend, workers=workers,
        fault_plan=fault_plan, recovery=recovery,
    )
    params = dict(params)
    t0 = time.perf_counter()
    lazy_factors, diag_fn, slicer, coded = _drive(algorithm, machine, A, params, validate, f,
                                                  assemble=validate or f > 0)
    t1 = time.perf_counter()
    if isinstance(recovery, CodedRecovery):
        machine.recovery = machine.engine.recovery = recovery.bind(coded)
    built = Build(algorithm, machine, lazy_factors, diag_fn, slicer, params,
                  machine.report(), machine.words_by_label, coded, t1 - t0)
    try:
        t0 = time.perf_counter()
        factors = machine.materialize(lazy_factors)
        built.materialize_s = time.perf_counter() - t0
    finally:
        if keep is not None:
            keep(built)
    if fault_plan is not None:
        fault_plan.check_fired()
    return built, factors


def run_qr(
    algorithm: str,
    A: np.ndarray | tuple[int, int],
    P: int,
    cost_params: CostParams | None = None,
    validate: bool = True,
    backend: str = "numeric",
    workers: int | None = None,
    fault_plan=None,
    recovery=None,
    **params,
) -> RunResult:
    """Run ``algorithm`` on global array ``A`` over ``P`` simulated processors.

    Tall-skinny algorithms (tsqr / house1d / caqr1d / applyq / mm1d) get
    the Section 5 block-row distribution; caqr3d, wide and mm3d get
    row-cyclic (Section 7); the 2D baselines get block-cyclic with the
    Section 8.1 grid.  Extra keyword arguments are the knobs in
    :data:`KNOBS` (``b``, ``bstar``, ``eps``, ``delta``, ``bb``,
    ``pr``/``pc``, ``method``), forwarded to the algorithm that reads
    them; any other name raises :class:`~repro.machine.ParameterError`.

    ``backend`` names any registered
    :class:`~repro.backend.registry.Backend`.  ``"symbolic"`` runs
    cost-only: the identical task stream is metered but no arithmetic
    happens, so paper-scale ``(m, n, P)`` are feasible; ``A`` may then
    be just a shape tuple ``(m, n)`` and validation is unavailable.
    ``"parallel"`` meters like numeric (identically on generic data;
    degenerate ``tau = 0`` columns charge the generic-data closed
    forms, as symbolic mode does) but executes the recorded task plan
    on ``workers`` threads (see :mod:`repro.engine`); results and
    validation are identical to the numeric backend within
    floating-point reproducibility -- for every algorithm in
    :data:`ALGORITHMS`.

    On an engine backend (``"parallel"``, ``"parallel-mp"``) a run is
    one job of :func:`repro.engine.run_many`: the first run of a shape
    builds a plan and caches it, a repeated run of that shape replays
    it (a warm job; the report is the cached one).  A ``"parallel-mp"``
    run's worker pool lives as long as its cache entry, until
    :func:`~repro.engine.batch.clear_plan_cache` or eviction closes it.

    ``fault_plan`` installs deterministic rank-kill triggers
    (:class:`repro.faults.FaultPlan`) and ``recovery`` a policy for
    them (see :mod:`repro.faults.policy`); both are forwarded to the
    :class:`~repro.machine.Machine`.  Such a run bypasses the plan
    cache: a trigger fires once and a recovery may grow the plan, so
    its plan is never replayed.  For checksum-protected runs with
    spare ranks, use :func:`repro.faults.run_coded_qr` instead.
    """
    impl = resolve_backend(backend)
    A = impl.coerce_global(A)
    if not impl.validates:
        validate = False
    if algorithm not in ALGORITHMS:
        raise KeyError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    if impl.parallel:
        from repro.engine.batch import run_job

        return run_job(algorithm, A, P, params, validate, impl, workers, cost_params,
                       fault_plan=fault_plan, recovery=recovery)
    built, factors = build(algorithm, A, P, params, validate, impl, workers, cost_params,
                           fault_plan=fault_plan, recovery=recovery)
    return built.result(A, factors, validate)


def format_run_table(rows: list[dict], columns: list[str] | None = None, title: str = "") -> str:
    """Monospace table from run rows (benchmark printing)."""
    if not rows:
        return title
    cols = columns or list(rows[0].keys())
    widths = {c: max(len(c), max(len(_fmt(r.get(c, ""))) for r in rows)) for c in cols}
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(c.rjust(widths[c]) for c in cols))
    for r in rows:
        lines.append("  ".join(_fmt(r.get(c, "")).rjust(widths[c]) for c in cols))
    return "\n".join(lines)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)
