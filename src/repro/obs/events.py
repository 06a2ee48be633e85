"""A structured event log — the pipeline's and runtime monitor's bus.

Anything that used to be a bare ``print(..., file=sys.stderr)`` —
cache corruption above all — becomes an :class:`Event`: a kind, a
human-readable message, and a dict of structured fields (paths,
errors, tracebacks) that stay queryable after the run.
The runtime :class:`~repro.runtime.monitor.KeyMonitor` publishes its
key mints/transitions/leaks on the same bus, so one event stream holds
both the static checker's operational record and the dynamic monitor's
protocol record — the paper's static-vs-dynamic cost comparison read
off a single log.

Events are plain data.  Subscribers (callbacks taking one
:class:`Event`) see events as they are emitted.

The checking pipeline publishes its recovery paths here:

* ``shared_cache_corrupt`` / ``shared_cache_error`` — a store object
  failed its checksum and was quarantined, or a store read or write
  failed (fields: tier, key or op, error).  The file records behind
  ``--cache DIR`` report through these.

The check daemon (PR 5, :mod:`repro.server`) publishes its lifecycle
on the same bus:

* ``server_start`` / ``server_stop`` — the daemon came up on / left
  its socket (fields: path, pid, idle_timeout);
* ``server_idle_exit`` — the idle timeout elapsed with no requests;
* ``client_error`` — a client was dropped after a protocol violation
  (malformed frame, oversized header).
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, List, Optional

#: cap on retained records; the oldest half is dropped on overflow so
#: a long-lived session cannot grow without bound.
_MAX_RECORDS = 8192


class Event:
    """One structured record."""

    def __init__(self, kind: str, message: str,
                 fields: Optional[Dict[str, object]] = None,
                 ts: float = 0.0, pid: int = 0):
        self.kind = kind
        self.message = message
        self.fields = {} if fields is None else fields
        self.ts = ts
        self.pid = pid

    def render(self) -> str:
        extras = " ".join(f"{k}={v!r}" for k, v in sorted(self.fields.items())
                          if k != "traceback")
        return f"[{self.kind}] {self.message}" + (f" ({extras})" if extras
                                                  else "")


class EventLog:
    """An append-only event record with subscribers."""

    def __init__(self) -> None:
        self.records: List[Event] = []
        self._subscribers: List[Callable[[Event], None]] = []
        #: subscriber callbacks that raised (swallowed — a broken
        #: audit sink must never take the emitting pipeline down).
        self.subscriber_errors = 0

    def emit(self, kind: str, message: str = "", **fields) -> Event:
        event = Event(kind, message, fields, ts=time.time(), pid=os.getpid())
        self._record(event)
        return event

    def _record(self, event: Event) -> None:
        if len(self.records) >= _MAX_RECORDS:
            del self.records[:_MAX_RECORDS // 2]
        self.records.append(event)
        for subscriber in self._subscribers:
            try:
                subscriber(event)
            except Exception:                    # noqa: BLE001
                self.subscriber_errors += 1

    def subscribe(self, callback: Callable[[Event], None]) -> None:
        self._subscribers.append(callback)

    def by_kind(self, kind: str) -> List[Event]:
        return [e for e in self.records if e.kind == kind]

    def counts(self) -> Dict[str, int]:
        """Retained records tallied by kind (chaos tests and ``vaultc
        stats`` read recovery activity off this)."""
        out: Dict[str, int] = {}
        for event in self.records:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out


class JsonlEventWriter:
    """An :class:`EventLog` subscriber appending events to a
    size-rotated JSONL audit file.

    One JSON object per line (``ts``, ``pid``, ``kind``, ``message``,
    ``fields``; non-JSON field values degrade to ``repr``).  When the
    file grows past ``max_bytes`` it rotates shift-style
    (``log`` → ``log.1`` → … → ``log.<backups>``, oldest dropped), so
    a daemon's audit trail is bounded on disk however long it runs.
    Write failures are swallowed — combined with the event log's
    subscriber isolation, a full disk degrades the audit trail, never
    the daemon.
    """

    def __init__(self, path: str, max_bytes: int = 4 << 20,
                 backups: int = 2):
        self.path = path
        self.max_bytes = max(1024, int(max_bytes))
        self.backups = max(0, int(backups))
        self._handle = None
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._open()

    def _open(self) -> None:
        self._handle = open(self.path, "a", encoding="utf-8")

    def _rotate(self) -> None:
        self.close()
        if self.backups:
            for i in range(self.backups, 1, -1):
                older = f"{self.path}.{i - 1}"
                if os.path.exists(older):
                    os.replace(older, f"{self.path}.{i}")
            os.replace(self.path, f"{self.path}.1")
        else:
            os.unlink(self.path)
        self._open()

    def __call__(self, event: Event) -> None:
        if self._handle is None:
            return
        line = json.dumps(
            {"ts": event.ts, "pid": event.pid, "kind": event.kind,
             "message": event.message, "fields": event.fields},
            separators=(",", ":"), sort_keys=True, default=repr)
        self._handle.write(line + "\n")
        self._handle.flush()
        if self._handle.tell() >= self.max_bytes:
            self._rotate()

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None


def open_event_log(path: Optional[str], events: EventLog,
                   max_bytes: int = 4 << 20) -> Optional[JsonlEventWriter]:
    """Attach a :class:`JsonlEventWriter` to ``events`` (``None`` path
    means no audit log; the returned writer wants ``close()``)."""
    if not path:
        return None
    writer = JsonlEventWriter(path, max_bytes=max_bytes)
    events.subscribe(writer)
    return writer
