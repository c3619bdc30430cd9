"""Observability for the convergent scheduling pipeline.

The paper's convergence claims (Figures 7, 9) and compile-time profile
(Figure 10) are *process* measurements — they describe how scheduling
unfolds, not just the final cycle count.  This package provides the
instrumentation substrate for those measurements:

* :mod:`~repro.observability.tracer` — JSONL span/event tracing with a
  no-op :data:`~repro.observability.tracer.NULL_TRACER` default, so
  untraced scheduling stays behavior- and speed-neutral;
* :mod:`~repro.observability.metrics` — per-pass matrix-delta metrics
  (L1 churn, entropy, confidence) and a
  counters/histograms :class:`~repro.observability.metrics.MetricsRegistry`
  aggregated into harness results;
* :mod:`~repro.observability.render` — terminal views: the
  ``repro trace`` per-pass table with a confidence sparkline and the
  ``repro profile`` compile-time breakdown;
* :mod:`~repro.observability.bench` — schema-versioned benchmark
  snapshots (``BENCH_<n>.json``): schedule quality plus compile cost
  for the full workload matrix, with an environment fingerprint;
* :mod:`~repro.observability.diff` — the comparison engines behind
  ``repro bench --compare`` (exact-gated quality, tolerance-gated
  timing) and ``repro trace --diff`` (pass-aligned trace diffs);
* :mod:`~repro.observability.flight` — the engine flight recorder:
  crash-safe per-task JSONL ledgers, worker-timeline analysis behind
  ``repro timeline``, and Chrome trace-event export;
* :mod:`~repro.observability.trend` — cross-snapshot trend series
  behind ``repro trend``.

See ``docs/observability.md`` for the trace schema,
``docs/benchmarking.md`` for the snapshot schema and gate policy, and
``docs/telemetry.md`` for the ledger schema and quantile layout.
"""

from .flight import (
    FLIGHT_SCHEMA_VERSION,
    FlightLedger,
    FlightRecord,
    TimelineStats,
    WorkerLane,
    analyze_ledger,
    read_ledger,
    render_timeline,
    to_chrome_trace,
)
from .metrics import (
    CACHE_COUNTERS,
    CONFIDENCE_CAP,
    MetricsRegistry,
    QuantileHistogram,
    TELEMETRY_NAMES,
    matrix_delta,
)
from .render import (
    pass_spans,
    profile_data,
    render_profile,
    render_trace,
    sparkline,
    trace_data,
)
from .trend import CellTrend, load_trends, render_trend
from .tracer import (
    KIND_EVENT,
    KIND_SPAN,
    NULL_TRACER,
    NullTracer,
    TraceRecord,
    Tracer,
    active,
    install,
    read_jsonl,
    timed,
    tracing,
    uninstall,
)
from .bench import (
    BenchCell,
    BenchSnapshot,
    SCHEMA_VERSION,
    environment_fingerprint,
    latest_snapshot_path,
    next_snapshot_path,
    run_bench,
    snapshot_paths,
    validate_snapshot,
)
from .diff import (
    BenchComparison,
    CellDelta,
    align_traces,
    compare_snapshots,
    render_trace_diff,
)

__all__ = [
    "BenchCell",
    "BenchComparison",
    "BenchSnapshot",
    "CellDelta",
    "CellTrend",
    "FLIGHT_SCHEMA_VERSION",
    "FlightLedger",
    "FlightRecord",
    "SCHEMA_VERSION",
    "TimelineStats",
    "WorkerLane",
    "align_traces",
    "analyze_ledger",
    "compare_snapshots",
    "environment_fingerprint",
    "latest_snapshot_path",
    "load_trends",
    "next_snapshot_path",
    "read_ledger",
    "render_timeline",
    "render_trace_diff",
    "render_trend",
    "run_bench",
    "snapshot_paths",
    "to_chrome_trace",
    "validate_snapshot",
    "CACHE_COUNTERS",
    "CONFIDENCE_CAP",
    "KIND_EVENT",
    "KIND_SPAN",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "QuantileHistogram",
    "TELEMETRY_NAMES",
    "TraceRecord",
    "Tracer",
    "active",
    "install",
    "matrix_delta",
    "pass_spans",
    "profile_data",
    "read_jsonl",
    "render_profile",
    "render_trace",
    "sparkline",
    "timed",
    "trace_data",
    "tracing",
    "uninstall",
]
