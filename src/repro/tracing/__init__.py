"""repro.tracing — causal span tracing for the simulated cluster.

Layered on (not replacing) the flat :class:`~repro.sim.trace.Tracer`:
where the flat tracer records *that* something happened, the span plane
records *why it took as long as it did* — every request and monitoring
probe becomes a tree of timed spans with one trace id, exportable to
Perfetto and analysable for its critical path. See docs/TRACING.md.

:class:`SpanMetrics` is imported on first use: it feeds the telemetry
plane, whose pipeline imports the monitoring schemes, which import the
verbs layer — and the verbs layer imports this package for its span
hooks. An eager import here would close that cycle.
"""

from repro.tracing.analysis import (
    SpanTree,
    analytic_rdma_read_ns,
    component_breakdown,
    critical_path,
    exclusive_times,
    flame,
    format_trace,
    name_breakdown,
    trace_summary,
)
from repro.tracing.context import TraceContext, ctx_of
from repro.tracing.export import (
    chrome_trace_json,
    save_chrome_trace,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
)
from repro.tracing.span import Span, SpanTracer, tracer_for

__all__ = [
    "Span",
    "SpanMetrics",
    "SpanTracer",
    "SpanTree",
    "TraceContext",
    "analytic_rdma_read_ns",
    "chrome_trace_json",
    "component_breakdown",
    "critical_path",
    "ctx_of",
    "exclusive_times",
    "flame",
    "format_trace",
    "name_breakdown",
    "save_chrome_trace",
    "to_chrome_trace",
    "to_jsonl",
    "trace_summary",
    "tracer_for",
    "validate_chrome_trace",
]


def __getattr__(name):
    if name == "SpanMetrics":
        from repro.tracing.metrics import SpanMetrics

        return SpanMetrics
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
