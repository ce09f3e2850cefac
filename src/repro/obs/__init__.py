"""repro.obs -- observability for the serving stack.

Three sinks behind one handle:

* :class:`~repro.obs.trace.TraceRecorder` -- schema-versioned JSON-lines
  span traces, one record per resolved answer
  (:func:`~repro.obs.trace.span_of`), folded back into metrics-comparable
  totals by :func:`~repro.obs.trace.fold_spans`.
* :class:`~repro.obs.metrics.MetricsRegistry` -- labeled Counter / Gauge /
  Histogram families with Prometheus text-exposition and JSON exporters.
* :class:`~repro.obs.events.EventLog` -- structured control-plane events
  (model warm/evict, drift, retarget, recalibration, hard-cap trips).

The serving stack takes a single :class:`~repro.obs.observer.Observer`
that bundles all three; the default is :data:`~repro.obs.observer.
NULL_OBSERVER`, a process-wide no-op whose ``enabled`` flag lets hot
paths skip telemetry behind one attribute check.  ``python -m repro.obs``
tails, filters, and summarizes the resulting files.
"""

from repro.obs.events import EVENTS_SCHEMA, EventLog
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    METRICS_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus,
)
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.trace import (
    SPAN_REQUIRED_KEYS,
    TRACE_SCHEMA,
    SpanFold,
    TraceRecorder,
    fold_spans,
    iter_records,
    read_header,
    read_spans,
    span_of,
    validate_span,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "EVENTS_SCHEMA",
    "EventLog",
    "Gauge",
    "Histogram",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "NULL_OBSERVER",
    "Observer",
    "SPAN_REQUIRED_KEYS",
    "SpanFold",
    "TRACE_SCHEMA",
    "TraceRecorder",
    "fold_spans",
    "iter_records",
    "parse_prometheus",
    "read_header",
    "read_spans",
    "span_of",
    "validate_span",
]
