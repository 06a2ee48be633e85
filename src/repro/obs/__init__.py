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

from typing import Dict, Optional

from .events import Event, EventLog, JsonlEventWriter, open_event_log
from .expo import render_exposition, validate_exposition, write_textfile
from .metrics import (LATENCY_BUCKETS, Counter, Gauge, Histogram,
                      MetricsRegistry, bucket_quantile)
from .timeseries import TimeSeriesRing
from .trace import (NULL_TRACER, NullTracer, TraceRing, Tracer, activate,
                    current_tracer, validate_chrome_trace)


class Telemetry:
    """One session's observability bundle.

    Counters and histograms are always recorded, into ``registry``
    when given (the daemon shares one registry across its sessions)
    and into a fresh :class:`MetricsRegistry` otherwise.  ``metrics``
    is accepted and ignored.  ``trace=True`` records spans; tracing
    defaults off (the null tracer).  The session also parks its
    compatibility surfaces here: ``profile`` is the dict behind
    ``CheckSession.last_profile`` and ``stats`` the
    :class:`~repro.pipeline.session.SessionStats` behind
    ``CheckSession.stats``.
    """

    def __init__(self, trace: bool = False, metrics: bool = False,
                 tracer: Optional[Tracer] = None,
                 registry: Optional[MetricsRegistry] = None,
                 events: Optional[EventLog] = None):
        self.tracer = tracer if tracer is not None else (
            Tracer() if trace else NULL_TRACER)
        self.metrics = registry if registry is not None \
            else MetricsRegistry()
        self.events = events if events is not None else EventLog()
        #: phase timings / check plan of the most recent check.
        self.profile: Dict[str, object] = {}
        #: the owning session's SessionStats (set by CheckSession).
        self.stats = None

    def snapshot(self) -> Dict[str, object]:
        """Everything queryable about the session, as plain data."""
        out: Dict[str, object] = {
            "profile": dict(self.profile),
            "metrics": self.metrics.snapshot(),
            "events": [{"kind": e.kind, "message": e.message,
                        "fields": dict(e.fields), "ts": e.ts, "pid": e.pid}
                       for e in self.events.records],
        }
        if self.stats is not None:
            out["stats"] = {
                name: value for name, value in vars(self.stats).items()
                if isinstance(value, (int, float))}
        return out


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
