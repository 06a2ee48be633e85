"""A span-based tracer exporting Chrome trace-event JSON.

The checker's phases (lex → parse → elaborate → check), per-function
flow checks and cache lookups are wrapped in **spans**; a finished trace loads directly into
``chrome://tracing`` or https://ui.perfetto.dev.  Design constraints:

* **zero overhead when disabled** — callsites hold a
  :data:`NULL_TRACER` singleton whose ``span``/``instant`` are no-ops
  returning a shared null context manager, and hot paths may guard on
  ``tracer.enabled`` (a plain attribute) before building span
  arguments;
* **monotonic timestamps** — events are stamped with
  ``time.perf_counter()``;
* **one track per process** — each event carries the recording
  process's pid, which the trace viewers render as a track.

The module also owns the *active tracer*: instrumented code deep in
the pipeline (the parser's lex/parse phases, for instance) fetches the
tracer installed by the enclosing :class:`~repro.pipeline.CheckSession`
via :func:`current_tracer` instead of threading it through every
signature.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

#: event fields every exporter consumer relies on (the trace-smoke
#: schema check validates these).
REQUIRED_EVENT_KEYS = ("name", "ph", "ts", "pid")


class _NullSpan:
    """The shared no-op context manager returned by the null tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """One live span; emits a complete ("X") event on exit."""

    __slots__ = ("_tracer", "name", "args", "_start")

    def __init__(self, tracer: "Tracer", name: str, args: Optional[dict]):
        self._tracer = tracer
        self.name = name
        self.args = args

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        now = time.perf_counter()
        self._tracer._complete(self.name, self._start, now, self.args)
        return False


class Tracer:
    """Records trace events for one process.

    ``span(name, **args)`` is a context manager timing one operation;
    ``instant(name, **args)`` marks a point in time.  ``export(path)``
    writes the Chrome trace-event JSON object format.
    """

    enabled = True

    def __init__(self, process_name: str = "vaultc",
                 pid: Optional[int] = None):
        self.process_name = process_name
        self.pid = pid if pid is not None else os.getpid()
        self.events: List[dict] = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str, **args) -> _Span:
        return _Span(self, name, args or None)

    def instant(self, name: str, **args) -> None:
        event = {"name": name, "ph": "i", "s": "p",
                 "ts": time.perf_counter() * 1e6,
                 "pid": self.pid, "tid": 0}
        if args:
            event["args"] = args
        self._append(event)

    def _complete(self, name: str, start: float, end: float,
                  args: Optional[dict]) -> None:
        event = {"name": name, "ph": "X",
                 "ts": start * 1e6, "dur": (end - start) * 1e6,
                 "pid": self.pid, "tid": 0}
        if args:
            event["args"] = args
        self._append(event)

    def _append(self, event: dict) -> None:
        if not self.events:
            self.events.append({"name": "process_name", "ph": "M", "ts": 0,
                                "pid": self.pid, "tid": 0,
                                "args": {"name": self.process_name}})
        self.events.append(event)

    def drain(self) -> List[dict]:
        """Take (and clear) the recorded events — the daemon drains
        each request's span tree so its tracer does not grow."""
        events, self.events = self.events, []
        return events

    # -- reporting -----------------------------------------------------------

    def phase_totals(self) -> Dict[str, float]:
        """Total seconds per span name, summed over all tracks."""
        totals: Dict[str, float] = {}
        for event in self.events:
            if event.get("ph") == "X":
                name = event["name"]
                totals[name] = totals.get(name, 0.0) \
                    + event.get("dur", 0.0) / 1e6
        return totals

    def to_chrome(self) -> dict:
        return {"traceEvents": list(self.events), "displayTimeUnit": "ms"}

    def export(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome(), handle, indent=1)
            handle.write("\n")


class NullTracer:
    """The disabled tracer: every operation is a no-op."""

    enabled = False
    events: tuple = ()

    def span(self, name: str, **args) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, **args) -> None:
        pass

    def drain(self) -> List[dict]:
        return []

    def phase_totals(self) -> Dict[str, float]:
        return {}

    def to_chrome(self) -> dict:
        return {"traceEvents": [], "displayTimeUnit": "ms"}

    def export(self, path: str) -> None:
        raise RuntimeError("cannot export a trace: tracing is disabled")


NULL_TRACER = NullTracer()


class TraceRing:
    """A bounded on-disk ring of Chrome-trace JSON files.

    The daemon's slow-request capture writes one file per offending
    request (``slow-<millis>-<seq>.json``); after every write the
    oldest files beyond ``keep`` are pruned, so the ring's disk
    footprint is bounded no matter how long the daemon lives.  Writes
    are atomic (tmp + rename) so a reader never sees a torn trace.
    """

    def __init__(self, directory: str, keep: int = 32,
                 prefix: str = "slow-"):
        self.directory = directory
        self.keep = max(1, int(keep))
        self.prefix = prefix
        self._seq = 0

    def paths(self) -> List[str]:
        """Retained trace files, oldest first (names sort by write
        time: a millisecond stamp plus a per-process sequence)."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return [os.path.join(self.directory, name) for name in sorted(names)
                if name.startswith(self.prefix) and name.endswith(".json")]

    def write(self, payload: dict) -> str:
        """Write one trace object into the ring; the new file's path."""
        os.makedirs(self.directory, exist_ok=True)
        name = (f"{self.prefix}{int(time.time() * 1000):013d}"
                f"-{self._seq:04d}.json")
        self._seq += 1
        path = os.path.join(self.directory, name)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
        os.replace(tmp, path)
        self._prune()
        return path

    def _prune(self) -> None:
        paths = self.paths()
        for stale in paths[:max(0, len(paths) - self.keep)]:
            try:
                os.unlink(stale)
            except OSError:
                pass

#: the tracer instrumented library code reports to; installed by the
#: session (or any caller) via :func:`activate`.
_ACTIVE: "Tracer | NullTracer" = NULL_TRACER


def current_tracer() -> "Tracer | NullTracer":
    return _ACTIVE


@contextmanager
def activate(tracer: "Tracer | NullTracer") -> Iterator["Tracer | NullTracer"]:
    """Install ``tracer`` as the process's active tracer for the
    duration of the block (restores the previous one on exit)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous


def validate_chrome_trace(payload: object) -> List[str]:
    """Schema-check a Chrome trace object; returns the violations.

    Used by the trace-smoke gate and the CLI tests: every event must
    carry :data:`REQUIRED_EVENT_KEYS`, phases must be known, and
    complete events need a non-negative duration.
    """
    problems: List[str] = []
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        return ["top level must be an object with a 'traceEvents' list"]
    events = payload["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        for key in REQUIRED_EVENT_KEYS:
            if key not in event:
                problems.append(f"event {i}: missing required key {key!r}")
        ph = event.get("ph")
        if ph not in ("X", "B", "E", "i", "I", "M", "C"):
            problems.append(f"event {i}: unknown phase {ph!r}")
        ts = event.get("ts")
        if "ts" in event and (isinstance(ts, bool)
                              or not isinstance(ts, (int, float))):
            problems.append(f"event {i}: ts must be numeric, "
                            f"got {type(ts).__name__}")
        if ph == "X":
            dur = event.get("dur", 0)
            if isinstance(dur, bool) or not isinstance(dur, (int, float)):
                problems.append(f"event {i}: dur must be numeric, "
                                f"got {type(dur).__name__}")
            elif dur < 0:
                problems.append(f"event {i}: negative duration")
        if not isinstance(event.get("pid"), int):
            problems.append(f"event {i}: pid must be an integer")
    return problems
