"""Unified observability for the checking pipeline and runtime monitor.

Three primitives, bundled by :class:`Telemetry`:

* :mod:`repro.obs.trace` — a span tracer exporting Chrome trace-event
  JSON (``chrome://tracing`` / Perfetto);
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms for cache layers, cache quarantines and diagnostic-code
  frequencies;
* :mod:`repro.obs.events` — a structured event log (the bus cache
  corruption and runtime key transitions are published on), with an
  optional size-rotated JSONL audit sink (:class:`JsonlEventWriter`).

Two service-grade derivatives feed off the registry for the check
daemon: :mod:`repro.obs.timeseries` turns cumulative counters
and histograms into a bounded ring of per-interval rate/quantile
samples, and :mod:`repro.obs.expo` renders snapshots as Prometheus
text exposition (plus the atomic textfile writer behind ``vaultc
serve --prom-file``).  :class:`repro.obs.trace.TraceRing` is the
bounded on-disk ring the daemon's slow-request capture writes
Chrome-trace JSON into.

Metrics are always recorded: ``Telemetry()`` builds a live registry,
so every session, store and daemon counts its cache traffic the same
way.  Tracing is opt-in (``Telemetry(trace=True)``), because spans
cost memory per function; without it the tracer is the shared null
singleton, whose operations are no-ops.  The event log is always live
too — it only sees rare events (crashes, leaks), never per-statement
traffic.

See ``docs/OBSERVABILITY.md`` for the end-to-end workflow.
"""

from __future__ import annotations

from typing import Dict

from .events import Event, EventLog, JsonlEventWriter, open_event_log
from .expo import render_exposition, validate_exposition, write_textfile
from .metrics import (LATENCY_BUCKETS, Counter, Gauge, Histogram,
                      MetricsRegistry, bucket_quantile)
from .timeseries import TimeSeriesRing
from .trace import (NULL_TRACER, NullTracer, TraceRing, Tracer, activate,
                    current_tracer, validate_chrome_trace)


class Telemetry:
    """One session's observability bundle.

    Counters and histograms are always recorded, into the bundle's
    own :class:`MetricsRegistry`.  ``metrics`` is accepted and
    ignored.  ``trace=True`` records spans; tracing defaults off (the
    null tracer).  A daemon's sessions share the daemon's bundle.
    """

    def __init__(self, trace: bool = False, metrics: bool = False):
        self.tracer = Tracer() if trace else NULL_TRACER
        self.metrics = MetricsRegistry()
        self.events = EventLog()

    def snapshot(self) -> Dict[str, object]:
        """Everything queryable about the session, as plain data."""
        return {
            "metrics": self.metrics.snapshot(),
            "events": [{"kind": e.kind, "message": e.message,
                        "fields": dict(e.fields), "ts": e.ts, "pid": e.pid}
                       for e in self.events.records],
        }


__all__ = [
    "Counter",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "JsonlEventWriter",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Telemetry",
    "TimeSeriesRing",
    "TraceRing",
    "Tracer",
    "activate",
    "bucket_quantile",
    "current_tracer",
    "open_event_log",
    "render_exposition",
    "validate_chrome_trace",
    "validate_exposition",
    "write_textfile",
]
