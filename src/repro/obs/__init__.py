"""`repro.obs` — structured tracing, metrics, profiling, and benchmark gates.

The observability layer of the solver stack: :class:`Span` trees for
tracing, a process-wide :class:`Telemetry` registry of counters / gauges
/ histograms, JSONL trace export with a versioned schema, an ASCII
profiling report, an always-on :class:`FlightRecorder` that attaches
trace dumps to structured solver errors, and Prometheus / JSON metrics
exposition.  Disabled by default (:class:`NullTelemetry`), with measured
enabled overhead tracked in ``BENCH_lp_scaling.json``.  The
``BENCH_*.json`` envelope and its invariant gates live in
:mod:`repro.obs.sentinel`, which this package does not import.

Quick profiling session::

    import repro.obs as obs

    tele = obs.enable()
    registry.solve(network, "transient")
    print(tele.summary())
    obs.export_jsonl(tele, "trace.jsonl")
    obs.disable()

Or from the command line::

    python -m repro.scenarios solve drain-bursty-tandem \\
        --method transient --profile --trace-out trace.jsonl
    python -m repro.obs report trace.jsonl
    python -m repro.obs sentinel baseline
    python -m repro.obs serve --port 9109

See ``docs/observability.md`` for the span model, metric name tables,
the benchmark gates, and the schema version policy.
"""

from repro.obs.core import (
    FlightRecorder,
    NullTelemetry,
    Span,
    Telemetry,
    TelemetrySnapshot,
    clock,
    disable,
    disable_flight_recorder,
    enable,
    enable_flight_recorder,
    get_flight_recorder,
    get_telemetry,
    register_flight_dump_exceptions,
    set_telemetry,
    use,
)
from repro.obs.export import (
    render_metrics_json,
    render_prometheus,
    start_metrics_server,
)
from repro.obs.report import render_summary
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    export_jsonl,
    load_trace,
    span_records,
    spans_from_records,
    validate_trace,
)
from repro.utils.errors import SolverError as _SolverError

# Structured solver failures carry a flight-recorder dump when one is
# enabled; the subclasses (IterativeSolverError, SeriesTruncationError)
# are covered via isinstance.  Registered here — not in core — so the
# core module stays free of repro imports.
register_flight_dump_exceptions(_SolverError)

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "FlightRecorder",
    "NullTelemetry",
    "Span",
    "Telemetry",
    "TelemetrySnapshot",
    "clock",
    "disable",
    "disable_flight_recorder",
    "enable",
    "enable_flight_recorder",
    "export_jsonl",
    "get_flight_recorder",
    "get_telemetry",
    "load_trace",
    "register_flight_dump_exceptions",
    "render_metrics_json",
    "render_prometheus",
    "render_summary",
    "set_telemetry",
    "span_records",
    "spans_from_records",
    "start_metrics_server",
    "use",
    "validate_trace",
]
