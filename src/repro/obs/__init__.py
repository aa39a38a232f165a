"""Deterministic observability: tracing, metrics, exporters, run diffs.

The unified signal layer both runtimes emit into.  Everything is
simulated-time or logical-clock arithmetic — zero wall-clock or uuid
reads — so traces and metric snapshots are byte-identical across runs
of the same configuration, and ``repro obs diff`` compares two runs
with no noise floor.  See ``DESIGN.md`` §12.
"""

from repro.obs.diff import (
    DiffReport,
    MetricDelta,
    Regression,
    diff_metrics,
    diff_runs,
    find_regressions,
)
from repro.obs.export import (
    chrome_trace,
    chrome_trace_json,
    metrics_json,
    render_dashboard,
    trace_jsonl,
)
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    LatencyHistogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.recorder import (
    CHROME_FILE,
    DASHBOARD_FILE,
    FORMAT,
    MANIFEST_FILE,
    METRICS_FILE,
    TRACE_FILE,
    RunArtifacts,
    RunObserver,
    load_run,
)
from repro.obs.trace import Span, SpanContext, TraceEvent, Tracer

__all__ = [
    "BUCKET_BOUNDS",
    "CHROME_FILE",
    "DASHBOARD_FILE",
    "DiffReport",
    "FORMAT",
    "MANIFEST_FILE",
    "METRICS_FILE",
    "TRACE_FILE",
    "LatencyHistogram",
    "MetricDelta",
    "MetricFamily",
    "MetricsRegistry",
    "Regression",
    "RunArtifacts",
    "RunObserver",
    "Span",
    "SpanContext",
    "TraceEvent",
    "Tracer",
    "chrome_trace",
    "chrome_trace_json",
    "diff_metrics",
    "diff_runs",
    "find_regressions",
    "load_run",
    "metrics_json",
    "render_dashboard",
    "trace_jsonl",
]
