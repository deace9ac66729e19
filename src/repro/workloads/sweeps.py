"""Run harness shared by benchmarks and examples.

``run_qr`` executes one algorithm on a fresh machine with the paper's
standard input distribution for that algorithm, validates the result,
and returns measured critical-path costs -- one row of any table in the
evaluation.  Backend selection (numeric / symbolic / parallel / any
registered third party) dispatches through
:mod:`repro.backend.registry`; every algorithm in :data:`ALGORITHMS`
runs on every backend.

Paper anchor: Section 8 (the evaluation run harness).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.backend import SymbolicArray, dtype_of, resolve_backend
from repro.dist import (
    BlockRowLayout,
    CyclicRowLayout,
    DistMatrix,
    head_layout,
)
from repro.dist.blockcyclic import BlockCyclic2D, choose_grid_2d
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
    """Blocks of a global array in the layout's leaf-registration order."""
    parts = layout.participants()

    def slicer(X: np.ndarray) -> list[np.ndarray]:
        X = np.asarray(X)
        return [np.ascontiguousarray(X[layout.rows_of(p), :]) for p in parts]

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
    ``(factors, diag_fn, slicer)``: the result arrays (lazy on a
    parallel machine), a ``diag_fn(A, factors)`` validation closure,
    and a ``slicer(X)`` producing the input blocks in plan-leaf order
    (the replay boundary).  A ``params`` name outside :data:`KNOBS`
    raises :class:`~repro.machine.ParameterError`.
    """
    check_knobs(params)
    m, n = A.shape
    P = machine.P

    if algorithm in ("tsqr", "house1d", "caqr1d"):
        layout = BlockRowLayout(balanced_sizes(m, P))
        dA = DistMatrix.from_global(machine, A, layout)
        if algorithm == "tsqr":
            res = tsqr(dA, root=0)
        elif algorithm == "house1d":
            res = qr_house_1d(dA, root=0)
        else:
            res = qr_1d_caqr_eg(dA, root=0, b=params.get("b"), eps=params.get("eps", 1.0))
        return (res.V.to_global(), res.T, res.R), _qr_diag, _row_slicer(layout)

    if algorithm == "caqr3d":
        layout = CyclicRowLayout(m, P)
        dA = DistMatrix.from_global(machine, A, layout)
        res = qr_3d_caqr_eg(
            dA,
            b=params.get("b"),
            bstar=params.get("bstar"),
            delta=params.get("delta", 0.5),
            eps=params.get("eps", 1.0),
            method=params.get("method", "two_phase"),
        )
        params.setdefault("b", res.b)
        params.setdefault("bstar", res.bstar)
        factors = (res.V.to_global(), res.T.to_global(), res.R.to_global())
        return factors, _qr_diag, _row_slicer(layout)

    if algorithm in ("house2d", "caqr2d"):
        from repro.qr.baselines.caqr2d import caqr2d_default_bb
        from repro.qr.baselines.house2d import HOUSE2D_DEFAULT_BB

        pr, pc = params.get("pr"), params.get("pc")
        if pr is None or pc is None:
            pr, pc = choose_grid_2d(m, n, P)
        bb = params.get("bb")
        if bb is None:
            bb = HOUSE2D_DEFAULT_BB if algorithm == "house2d" else caqr2d_default_bb(m, n, P)
        A_bc = BlockCyclic2D.from_global(machine, A, pr, pc, bb)
        fn = qr_house_2d if algorithm == "house2d" else qr_caqr_2d
        res = fn(A_bc)
        V, R = res.V_global(), res.R_global()
        if validate:  # T exists only to be validated: one unmetered, rankless kernel
            nn = SymbolicArray((n, n), dtype_of(V))
            T = machine.kernel(None, reconstruct_t_arrays, (V,), nn, label="reconstruct_t")
        else:
            T = np.eye(n)
        return (V, T, R), _qr_diag, _grid_slicer(A_bc)

    if algorithm == "wide":
        layout = CyclicRowLayout(m, P)
        dA = DistMatrix.from_global(machine, A, layout)
        res = qr_wide_3d(
            dA,
            b=params.get("b"),
            bstar=params.get("bstar"),
            delta=params.get("delta", 0.5),
            eps=params.get("eps", 1.0),
            method=params.get("method", "two_phase"),
        )
        factors = (res.V.to_global(), res.T.to_global(), res.R.to_global())
        return factors, _qr_diag, _row_slicer(layout)

    if algorithm == "applyq":
        layout = BlockRowLayout(balanced_sizes(m, P))
        dA = DistMatrix.from_global(machine, A, layout)
        res = tsqr(dA, root=0)
        Y = apply_q_1d(res.V, res.T, dA, 0, adjoint=True)   # Q^H A
        Z = apply_q_1d(res.V, res.T, Y, 0)                  # Q Q^H A = A
        factors = (res.V.to_global(), res.T, res.R, Z.to_global())
        return factors, _applyq_diag, _row_slicer(layout)

    if algorithm == "mm1d":
        layout = BlockRowLayout(balanced_sizes(m, P))
        dA = DistMatrix.from_global(machine, A, layout)
        M = mm1d_reduce(dA, dA, 0, conj_a=True)             # A^H A on root
        C = mm1d_broadcast(dA, M, 0)                        # A (A^H A)
        return (M, C.to_global()), _mm1d_diag, _row_slicer(layout)

    if algorithm == "mm3d":
        layout = CyclicRowLayout(m, P)
        dA = DistMatrix.from_global(machine, A, layout)
        C = mm3d(
            Operand(dA, "H"), dA, head_layout(layout, n),
            method=params.get("method", "two_phase"),
        )
        return (C.to_global(),), _mm3d_diag, _row_slicer(layout)

    raise KeyError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")


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

    ``fault_plan`` installs deterministic rank-kill triggers
    (:class:`repro.faults.FaultPlan`) and ``recovery`` a policy for
    them (see :mod:`repro.faults.policy`); both are forwarded to the
    :class:`~repro.machine.Machine`.  For checksum-protected runs with
    spare ranks, use :func:`repro.faults.run_coded_qr` instead.
    """
    impl = resolve_backend(backend)
    A = impl.coerce_global(A)
    if not impl.validates:
        validate = False
    impl.require(algorithm)
    if algorithm not in ALGORITHMS:
        raise KeyError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    m, n = A.shape
    machine = Machine(
        P, params=cost_params, backend=backend, workers=workers,
        fault_plan=fault_plan, recovery=recovery,
    )

    factors, diag_fn, _slicer = drive(algorithm, machine, A, params, validate)
    # Parallel machines: run the recorded plan on the engine's thread
    # pool and swap the lazy factors for their computed values (a no-op
    # on eager machines).
    factors = machine.materialize(factors)
    report = machine.report()
    diag = (
        diag_fn(A, factors)
        if validate
        else QRDiagnostics(0.0, 0.0, 0.0, 0.0, 0.0)
    )
    return RunResult(
        algorithm, m, n, P, params, report, diag,
        words_by_label=dict(machine.words_by_label),
    )


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
