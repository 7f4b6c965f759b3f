"""Observability: metrics, structured events, tracing, and exporters.

See :doc:`docs/observability.md` for the metric and span catalogues and
the JSONL schemas.  Quick tour::

    from repro.obs import MetricsRegistry, SpanTracer

    metrics = MetricsRegistry()
    metrics.counter("lan.messages_sent").inc()
    metrics.histogram("lan.delivery_latency_ticks").observe(3)
    print(metrics.render_scoreboard())
    metrics.write_jsonl("metrics.jsonl")

    spans = SpanTracer(seed=42, sample=1.0)
    # ... pass spans= into Kernel/BIPSSimulation/run_e2e ...
    write_chrome_trace("trace.json", spans.records())
"""

from repro.obs.events import (
    DeltaPushed,
    DeviceDiscovered,
    Event,
    EventBus,
    InquiryStarted,
    NullEventBus,
    QueryServed,
    ServerBrownout,
    UserLoggedIn,
    WorkstationFailed,
    WorkstationRecovered,
)
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    snapshot_from_jsonl,
)
from repro.obs.tracing import (
    Span,
    SpanTracer,
    TraceContext,
    chrome_trace,
    merge_worker_spans,
    write_chrome_trace,
    write_spans_jsonl,
)

__all__ = [
    "Counter",
    "DeltaPushed",
    "DeviceDiscovered",
    "Event",
    "EventBus",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "InquiryStarted",
    "MetricError",
    "MetricsRegistry",
    "NullEventBus",
    "QueryServed",
    "ServerBrownout",
    "Span",
    "SpanTracer",
    "TraceContext",
    "UserLoggedIn",
    "WorkstationFailed",
    "WorkstationRecovered",
    "chrome_trace",
    "merge_worker_spans",
    "snapshot_from_jsonl",
    "write_chrome_trace",
    "write_spans_jsonl",
]
