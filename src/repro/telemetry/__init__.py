"""``repro.telemetry``: runtime spans, metrics, and model-vs-reality drift.

The observability subsystem for the parallel engine.  Three layers:

* :mod:`repro.telemetry.recorder` -- the :class:`TelemetryRecorder`
  (spans + a lock-cheap :class:`MetricsRegistry`) and the disabled
  :data:`NULL_RECORDER` every instrumentation site defaults to;
* :mod:`repro.telemetry.export` -- Chrome trace-event JSON for
  Perfetto plus flat metrics dumps;
* :mod:`repro.telemetry.drift` -- the report joining runtime spans
  against the symbolic backend's :class:`~repro.machine.CostReport`,
  per phase (loaded lazily: it pulls in the workload stack).

Front doors: ``python -m repro trace <alg> ...`` (one traced run,
``trace.json`` + drift table), ``--telemetry`` on ``repro run`` /
``repro plan --run``, or programmatically::

    from repro.telemetry import TelemetryRecorder, recording, chrome_trace

    with recording() as rec:
        run_qr("tsqr", A, P=16, backend="parallel", workers=4)
    trace = chrome_trace(rec)        # load in https://ui.perfetto.dev

Telemetry is off by default; the disabled path costs one attribute
check per instrumentation site (pinned structurally by
``tests/test_telemetry.py``; the enabled cost is the repo benchmark's
``telemetry.overhead_frac``).

Paper anchor: Section 8 (measured evaluation; comparing measured
against the Section 3 model's predictions).
"""

from repro.telemetry.export import (
    chrome_trace,
    format_metrics,
    metrics_dump,
    write_chrome_trace,
)
from repro.telemetry.recorder import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    NULL_RECORDER,
    NullRecorder,
    Span,
    TelemetryRecorder,
    current_recorder,
    install_recorder,
    recording,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "DriftReport",
    "Histogram",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "PhaseDrift",
    "Span",
    "TelemetryRecorder",
    "chrome_trace",
    "current_recorder",
    "drift_report",
    "format_metrics",
    "install_recorder",
    "metrics_dump",
    "phase_of",
    "recording",
    "write_chrome_trace",
]


def __getattr__(name):
    # The drift report imports the machine/workload stack; load it on
    # first use so the recorder stays importable from anywhere (the
    # engine and machine import it at module load).
    if name in ("DriftReport", "PhaseDrift", "drift_report", "phase_of"):
        from repro.telemetry import drift

        return getattr(drift, name)
    raise AttributeError(f"module 'repro.telemetry' has no attribute {name!r}")
