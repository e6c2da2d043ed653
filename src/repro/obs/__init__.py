"""End-to-end telemetry for the serving stack.

Three pieces, one package:

* :mod:`repro.obs.registry` — the process-wide metrics registry
  (counters, gauges, fixed log-bucket histograms), lock-cheap on the
  hot path and mergeable across worker-pool processes;
* :mod:`repro.obs.trace` — contextvar span tracing with deterministic
  ids derived from request seed material (released answers are
  byte-identical with tracing on or off);
* :mod:`repro.obs.exposition` — Prometheus-text and JSON renderings of
  registry snapshots, served by the wire ``metrics`` op and the
  ``repro obs`` CLI.
"""

from .exposition import json_payload, parse_prometheus_text, prometheus_text
from .registry import (
    OBS_SCHEMA,
    SIZE_BUCKETS,
    TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics,
    quantile_from_counts,
)
from .trace import (
    JsonLinesSink,
    Tracer,
    configure,
    deterministic_trace_id,
    seed_trace_id,
    tracer,
    validate_span_records,
)

__all__ = [
    "OBS_SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics",
    "quantile_from_counts",
    "SIZE_BUCKETS",
    "TIME_BUCKETS",
    "Tracer",
    "JsonLinesSink",
    "tracer",
    "configure",
    "deterministic_trace_id",
    "seed_trace_id",
    "validate_span_records",
    "prometheus_text",
    "json_payload",
    "parse_prometheus_text",
]
