"""Telemetry sideband: spans, counters, gauges and live progress.

See :mod:`repro.telemetry.core` for the event layer and sideband schema,
:mod:`repro.telemetry.report` for the ``telemetry-report`` aggregation
and :mod:`repro.telemetry.progress` for the ``--progress`` stderr ticker.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".core": (
        "DEFAULT_BUFFER_LIMIT", "NULL_TELEMETRY", "TELEMETRY_SCHEMA",
        "NullTelemetry", "Telemetry", "load_events", "merge_telemetry_files",
        "telemetry_files",
    ),
    ".progress": ("ProgressTicker",),
    ".report": ("TelemetryAggregate", "aggregate_telemetry", "render_report"),
})
