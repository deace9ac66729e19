"""Model-vs-reality drift: join runtime spans against the symbolic costs.

The symbolic backend predicts what an execution *should* cost
(Section 3's alpha-beta-gamma model, metered exactly); the telemetry
recorder measures what the parallel engine *actually* spent.  This
module joins the two per **phase** -- a coarse grouping of task labels
(``tsqr_*``, ``panel_*``, ``alltoall*``, dmm collectives, ...) shared
by both sides -- and reports predicted-vs-measured ratios.  That ratio
is the diagnostic the engine work needs: a phase whose measured seconds
dwarf its modeled seconds is where the thread pool's GIL ceiling,
rendezvous stalls, or executor overhead live, in the
measured-vs-modeled spirit of Demmel et al.'s CAQR practice papers.

Accounting conventions (see ``docs/observability.md``):

* Per-phase **predicted** seconds apply the machine profile to the
  phase's *aggregate* flop/word/message volume over all ranks (words
  counted once per send).
* Per-phase **measured** seconds sum the engine task spans of that
  phase over all workers -- also an aggregate, so the ratio compares
  like with like.  ``wait_s`` is the rendezvous-blocked share.
* A message is an edge, not a task, so communication-only phases
  (``bcast``, ``reduce``, ``gather``, ``scatter``) have predicted rows
  with 0 measured tasks: their cost shows up as the consuming tasks'
  ``wait_s``, in the consumers' phases.
* The **total** row is different on purpose: it compares the modeled
  *critical path* (``CostReport.modeled_time`` under the profile)
  against the measured *wall clock* -- the end-to-end drift.

Paper anchor: Section 8 (measured vs modeled costs; Table 2/3
methodology applied to the runtime engine).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backend import SymbolicArray
from repro.machine import MACHINE_PROFILES, CostParams, CostReport, Machine
from repro.telemetry.recorder import NULL_RECORDER, TelemetryRecorder

__all__ = ["DriftReport", "PhaseDrift", "drift_report", "phase_of"]

#: Labels grouped into the traffic phases ``words_by_phase`` uses.
_DMM_LABELS = frozenset({"all_gather", "reduce_scatter", "reduce_scatter_add"})


def phase_of(label: str) -> str:
    """Coarse phase bucket of a task/transfer label.

    Shared by the symbolic (predicted) and runtime (measured) sides of
    the join, so a label vocabulary change cannot split the two sides
    into disjoint phases.

    >>> phase_of("tsqr_lu"), phase_of("alltoall_fwd"), phase_of("reduce_scatter")
    ('tsqr', 'alltoall', 'dmm')
    """
    if not label:
        return "other"
    if label.startswith("alltoall"):
        return "alltoall"
    if label in _DMM_LABELS:
        return "dmm"
    head = label.split(":", 1)[0].split("_", 1)[0].lower()
    return head or "other"


@dataclass(frozen=True)
class PhaseDrift:
    """Predicted vs measured costs of one phase (aggregate over ranks)."""

    phase: str
    flops: float
    words: float
    messages: float
    predicted_s: float
    measured_s: float
    wait_s: float
    tasks: int

    @property
    def ratio(self) -> float:
        """measured / predicted seconds (``inf`` for unmodeled phases)."""
        if self.predicted_s > 0.0:
            return self.measured_s / self.predicted_s
        return float("inf") if self.measured_s > 0.0 else 0.0

    def row(self) -> dict:
        return {
            "phase": self.phase,
            "flops": self.flops,
            "words": self.words,
            "messages": self.messages,
            "predicted_s": self.predicted_s,
            "measured_s": self.measured_s,
            "wait_s": self.wait_s,
            "tasks": self.tasks,
            "ratio": self.ratio,
        }


@dataclass
class DriftReport:
    """The per-phase join plus the end-to-end critical-path comparison."""

    algorithm: str
    m: int
    n: int
    P: int
    profile: CostParams
    phases: list[PhaseDrift]
    report: CostReport
    measured_wall_s: float

    @property
    def predicted_time_s(self) -> float:
        """Modeled critical path under the profile (the paper's runtime)."""
        return self.report.time_under(self.profile)

    @property
    def wall_ratio(self) -> float:
        """Measured wall-clock over modeled critical-path time."""
        pred = self.predicted_time_s
        return self.measured_wall_s / pred if pred > 0 else float("inf")

    def table(self) -> str:
        """Monospace drift table (phases sorted by measured seconds)."""
        from repro.workloads import format_run_table

        rows = [p.row() for p in sorted(self.phases, key=lambda p: -p.measured_s)]
        cols = ["phase", "flops", "words", "messages",
                "predicted_s", "measured_s", "wait_s", "tasks", "ratio"]
        body = format_run_table(
            rows, columns=cols,
            title=(f"drift: {self.algorithm} m={self.m} n={self.n} P={self.P} "
                   f"on profile {self.profile.name!r} "
                   "(per-phase aggregates; ratio = measured/predicted)"),
        )
        return (
            f"{body}\n"
            f"critical path (modeled, {self.profile.name}): "
            f"{self.predicted_time_s:.3e} s; wall-clock (measured): "
            f"{self.measured_wall_s:.3e} s; ratio {self.wall_ratio:.3g}"
        )


def _predicted_phases(
    algorithm: str, m: int, n: int, P: int, params: dict, profile: CostParams
) -> tuple[dict[str, list[float]], CostReport]:
    """Per-phase ``[flops, words, messages]`` volume from a traced symbolic run."""
    from repro.workloads.sweeps import drive

    machine = Machine(P, params=profile, trace=True, backend="symbolic",
                      telemetry=NULL_RECORDER)
    drive(algorithm, machine, SymbolicArray((m, n)), params, validate=False)
    agg: dict[str, list[float]] = {}
    for ev in machine.trace:
        phase = phase_of(ev.label)
        cell = agg.setdefault(phase, [0.0, 0.0, 0.0])
        if ev.kind == "compute":
            cell[0] += ev.flops
        elif ev.kind == "send":
            # Words/messages counted once per send (volume convention).
            cell[1] += ev.words
            cell[2] += 1.0
    return agg, machine.report()


def drift_report(
    algorithm: str,
    m: int,
    n: int,
    P: int,
    recorder: TelemetryRecorder,
    wall_s: float,
    params: dict | None = None,
    profile: CostParams | None = None,
) -> DriftReport:
    """Join ``recorder``'s runtime spans against the symbolic prediction.

    Runs the identical ``(algorithm, m, n, P, params)`` plan cost-only
    on the symbolic backend (with tracing, to attribute costs to
    phases), groups both sides with :func:`phase_of`, and returns the
    per-phase :class:`DriftReport`.  ``wall_s`` is the measured
    end-to-end wall-clock of the runtime execution.
    """
    profile = profile if profile is not None else MACHINE_PROFILES["cluster"]
    predicted, report = _predicted_phases(
        algorithm, m, n, P, dict(params or {}), profile
    )
    measured: dict[str, list[float]] = {}
    for span in recorder.spans:
        if span.cat != "task":
            continue
        phase = phase_of(span.name)
        cell = measured.setdefault(phase, [0.0, 0.0, 0.0])
        cell[0] += span.dur
        cell[1] += span.wait_s
        cell[2] += 1.0
    phases = []
    for phase in sorted(set(predicted) | set(measured)):
        f, w, s = predicted.get(phase, (0.0, 0.0, 0.0))
        dur, wait, tasks = measured.get(phase, (0.0, 0.0, 0.0))
        phases.append(PhaseDrift(
            phase=phase, flops=f, words=w, messages=s,
            predicted_s=profile.time(f, w, s),
            measured_s=dur, wait_s=wait, tasks=int(tasks),
        ))
    return DriftReport(
        algorithm=algorithm, m=m, n=n, P=P, profile=profile,
        phases=phases, report=report, measured_wall_s=float(wall_s),
    )
