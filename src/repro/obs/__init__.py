"""Observability: one span model + deterministic metrics.

:mod:`repro.obs.tracer` holds the span model: one :class:`Span` type,
per-name totals kept as spans close, one JSONL writer, one reader and
one Chrome exporter, for the in-process pipeline and the fleet alike.
:mod:`repro.obs.metrics` holds the counters.  DESIGN.md
("Observability", "Fleet observability") describes how the evaluation
engine merges worker totals and registries, why serial and parallel
runs report identical counters, and how a fleet request becomes one
merged Perfetto timeline.
"""

from repro.obs.metrics import (
    NULL_METRICS,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    RollingHistogram,
    current_metrics,
    metrics_scope,
    observability_snapshot,
    write_observability_json,
)
from repro.obs.tracer import (
    NULL_TRACER,
    MergedTrace,
    NullTracer,
    Span,
    SpanWriter,
    Tracer,
    merge_traces,
    new_trace_id,
    read_events,
    read_spans,
    trace_file,
)

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "RollingHistogram",
    "current_metrics",
    "metrics_scope",
    "observability_snapshot",
    "write_observability_json",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SpanWriter",
    "MergedTrace",
    "merge_traces",
    "new_trace_id",
    "read_events",
    "read_spans",
    "trace_file",
]
