"""Observability: metrics registry, request traces, spans, heartbeats.

``repro.obs`` is the cross-cutting observability layer.  It is
strictly *optional*: every producer in the simulator takes its sink as
a ``None``-default argument and, with no sink attached, executes the
exact pre-observability instruction stream (lint rule ``O501`` pins
this for the engine hot loops; the obs-parity tests pin it bit-exactly
for whole simulations).

Each export format has one definition, its writer, and is checked by
reading a file back through the writer's module:

* :class:`MetricsRegistry` — counters / gauges / histograms with
  deterministic JSON-snapshot and Prometheus text exports, read back
  by :meth:`MetricsRegistry.from_json` and
  :meth:`MetricsRegistry.check_prometheus`;
* :class:`TraceSampler` / :class:`TraceWriter` — reproducible sampled
  per-request JSONL traces (content-addressed sampling), read back by
  :func:`read_request_trace`;
* :class:`Observer` / :class:`RunRecorder` — the engine-facing sink;
* :class:`SpanTracker` / :class:`Span` — hierarchical deterministic
  spans (run → sweep → chunk → point → phase) with canonical JSONL
  export and worker-record adoption, read back by :func:`read_spans`;
* :class:`ProgressReporter` — atomically-rewritten live heartbeat
  files, read by :func:`read_heartbeat` and rendered by
  ``python -m repro.obs watch``;
* :mod:`repro.obs.benchdiff` — the bench regression gate behind
  ``python -m repro.obs bench-diff``;
* ``python -m repro.obs`` — the ``report`` / ``smoke`` /
  ``sweep-smoke`` / ``watch`` / ``bench-diff`` CLI.
"""

from .benchdiff import MetricDelta, diff_reports, run_bench_diff
from .progress import (
    PROGRESS_SCHEMA,
    ProgressReporter,
    read_heartbeat,
    render_heartbeat,
)
from .registry import (
    DEFAULT_BUCKETS,
    REGISTRY_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .sink import Observer, RunRecorder
from .spans import SPAN_KINDS, SPAN_SCHEMA, Span, SpanTracker, read_spans, span_id
from .trace import TRACE_VERSION, TraceSampler, TraceWriter, read_request_trace

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricDelta",
    "MetricsRegistry",
    "Observer",
    "PROGRESS_SCHEMA",
    "ProgressReporter",
    "REGISTRY_SCHEMA",
    "RunRecorder",
    "SPAN_KINDS",
    "SPAN_SCHEMA",
    "Span",
    "SpanTracker",
    "TRACE_VERSION",
    "TraceSampler",
    "TraceWriter",
    "diff_reports",
    "read_heartbeat",
    "read_request_trace",
    "read_spans",
    "render_heartbeat",
    "run_bench_diff",
    "span_id",
]
