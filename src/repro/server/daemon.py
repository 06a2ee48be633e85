"""The ``vaultc serve`` check daemon.

A single-threaded selector loop on a Unix domain socket that keeps the
expensive parts of checking — the interpreter itself, the elaborated
stdlib base context, and per-unit chunk/context/summary caches —
**resident** between requests.  A cold
``vaultc check`` pays interpreter start-up plus full elaboration on
every invocation; a daemon check of an unchanged module is a unit-
replay cache hit, typically two orders of magnitude cheaper (see
``benchmarks/bench_server.py``).

Design:

* **warm sessions** — a registry of :class:`repro.pipeline.CheckSession`
  keyed by the stable hash of the session-selecting request options
  (:func:`repro.server.protocol.session_key`); least-recently-used
  sessions are closed and dropped past ``session_limit``;
* **concurrency** — the selector loop accepts any number of clients
  and buffers their frames; queued checks run one per loop turn in
  arrival order (they are CPU-bound), so concurrent clients serialize
  without interleaving diagnostics, and control ops are answered
  between checks.  A duplicate request is checked like any other:
  its session answers it by unit replay;
* **admission control** — the pending-request queue is bounded
  (``max_queue``): past the bound the daemon *sheds* instead of
  buffering, answering ``busy`` with a ``retry_after_ms`` hint sized
  from the observed check rate, so a burst costs clients one cheap
  round trip each rather than the daemon unbounded memory;
* **deadlines** — a request may carry ``deadline_ms``; one that is
  already expired when its turn comes gets a structured
  ``deadline_exceeded`` reply (with the time it waited) instead of a
  stale result, and never a half-written frame;
* **slow-loris reaping** — connections with bytes pending in either
  direction that make no I/O progress for ``io_timeout`` seconds are
  dropped (``server.conns_reaped``), so a client that trickles half a
  header or never reads its reply cannot pin buffers forever;
* **graceful shutdown** — SIGTERM/SIGINT (via :func:`serve`), the
  ``shutdown`` op, and the idle timeout all funnel into one idempotent
  :meth:`CheckServer.close` that closes client connections and
  sessions, and unlinks the socket.  The first
  SIGTERM *drains*: in-flight checks finish and are answered, queued
  requests are shed with ``draining`` replies, then the loop exits (a
  second signal stops immediately);
* **file records** — a request's ``cache_dir`` option selects a
  session that keeps one record per file in that directory (see
  :mod:`repro.cache`), so a session that was evicted, or a later
  process, starts warm.  The daemon opens no store of its own, and
  the store never leaves the daemon: clients send sources, not
  blobs.

Everything observable is published on the server's telemetry:
``server.*`` metrics, ``server_start``/``server_stop``/
``server_idle_exit``/``client_error`` events, and one
``server.request`` span per executed check.  ``docs/SERVER.md`` has
the protocol and failure-mode reference.
"""

from __future__ import annotations

import os
import selectors
import socket
import sys
import tempfile
import time
from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional, Tuple

from ..diagnostics import VaultError
from ..obs import (Telemetry, TimeSeriesRing, TraceRing, Tracer,
                   bucket_quantile, render_exposition, write_textfile)
from ..pipeline import CheckSession
from .protocol import (PROTOCOL_VERSION, ProtocolError, encode_frame,
                       normalize_options, option_error, session_key,
                       split_frames)

#: warm sessions kept before the least-recently-used one is closed.
DEFAULT_SESSION_LIMIT = 8

#: pending ``check`` requests buffered before the daemon load-sheds
#: with ``busy`` replies instead of growing the queue.
DEFAULT_MAX_QUEUE = 64

#: seconds a connection with pending bytes (half a frame in, an
#: unread reply out) may stall before it is reaped as a slow loris.
DEFAULT_IO_TIMEOUT = 30.0

#: bounds on the ``retry_after_ms`` hint in ``busy`` replies.
_RETRY_AFTER_MIN_MS = 50.0
_RETRY_AFTER_MAX_MS = 5000.0

#: seconds the drain path spends flushing final replies to slow
#: readers before giving up on them.
_DRAIN_FLUSH_SECONDS = 2.0

#: upper bound on one ``select`` sleep, so stop requests and idle
#: deadlines are honoured promptly even with no socket traffic.
_TICK_SECONDS = 0.5

#: counters pre-registered at start-up so a quiet daemon reports
#: explicit zeros.
SERVER_COUNTERS = ("server.connections", "server.requests",
                   "server.checks", "server.bad_requests",
                   "server.client_errors",
                   "server.pings", "server.telemetry_requests",
                   "server.slow_requests", "server.shed",
                   "server.deadline_exceeded", "server.drained",
                   "server.conns_reaped", "server.protocol_errors",
                   "server.health_requests")

#: seconds between time-series samples (``--sample-interval``).
DEFAULT_SAMPLE_INTERVAL = 5.0

#: slow-trace files retained in the on-disk ring (keep-newest-N).
DEFAULT_TRACE_KEEP = 32


def unix_sockets_available() -> bool:
    return hasattr(socket, "AF_UNIX")


def default_socket_path() -> str:
    """Where ``vaultc serve`` listens and ``--daemon auto`` looks:
    ``$VAULTC_SOCKET`` if set, else a per-user ``vaultc-<uid>/
    daemon.sock`` under ``$XDG_RUNTIME_DIR`` (or the tmp dir)."""
    explicit = os.environ.get("VAULTC_SOCKET")
    if explicit:
        return explicit
    base = os.environ.get("XDG_RUNTIME_DIR") or tempfile.gettempdir()
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(base, f"vaultc-{uid}", "daemon.sock")


class _Conn:
    """One connected client: its socket plus incremental I/O buffers.

    ``last_io`` advances on every byte of progress in either direction
    and anchors slow-loris reaping.  ``closing`` marks a connection
    whose final reply is queued: once the outbuf drains, the daemon
    closes it — the clean-close half of the ``protocol_error`` path.
    """

    __slots__ = ("sock", "inbuf", "outbuf", "closed", "closing",
                 "last_io")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.inbuf = b""
        self.outbuf = b""
        self.closed = False
        self.closing = False
        self.last_io = time.monotonic()


class _Request:
    """One queued ``check`` request awaiting execution.

    ``req_id`` is the client's optional ``id`` field, echoed in the
    reply so a retrying client can match replies to attempts.
    ``deadline`` is an absolute monotonic time (or ``None``); an
    expired request is answered ``deadline_exceeded``, never checked.
    """

    __slots__ = ("conn", "payload", "req_id", "deadline", "enqueued")

    def __init__(self, conn: _Conn, payload: dict, req_id: object = None,
                 deadline: Optional[float] = None):
        self.conn = conn
        self.payload = payload
        self.req_id = req_id
        self.deadline = deadline
        self.enqueued = time.monotonic()


class _SessionEntry:
    __slots__ = ("session", "last_used")

    def __init__(self, session: CheckSession):
        self.session = session
        self.last_used = time.monotonic()


class CheckServer:
    """A long-running check daemon on a Unix domain socket.

    Construct, :meth:`bind`, then :meth:`serve_forever` (or use the
    :func:`serve` convenience, which also wires signals).  ``close``
    is idempotent and safe from any point of the lifecycle.
    """

    def __init__(self, socket_path: Optional[str] = None,
                 idle_timeout: Optional[float] = None,
                 telemetry: Optional[Telemetry] = None,
                 session_limit: int = DEFAULT_SESSION_LIMIT,
                 enable_test_ops: bool = False,
                 sample_interval: float = DEFAULT_SAMPLE_INTERVAL,
                 prom_file: Optional[str] = None,
                 slow_ms: Optional[float] = None,
                 trace_dir: Optional[str] = None,
                 trace_keep: int = DEFAULT_TRACE_KEEP,
                 max_queue: int = DEFAULT_MAX_QUEUE,
                 io_timeout: Optional[float] = DEFAULT_IO_TIMEOUT):
        if not unix_sockets_available():
            raise VaultError(
                "the check daemon needs AF_UNIX sockets, which this "
                "platform does not provide")
        self.socket_path = socket_path or default_socket_path()
        self.idle_timeout = idle_timeout
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.session_limit = max(1, session_limit)
        #: honour ``test_die``/``die`` chaos hooks (never on by
        #: default; ``vaultc serve`` gates it behind
        #: ``$VAULTC_SERVER_TEST_OPS``).
        self.enable_test_ops = enable_test_ops
        self._sessions: "OrderedDict[str, _SessionEntry]" = OrderedDict()
        self._queue: Deque[_Request] = deque()
        self._conns: Dict[int, _Conn] = {}
        self._sel: Optional[selectors.BaseSelector] = None
        self._listener: Optional[socket.socket] = None
        self._wake_r: Optional[socket.socket] = None
        self._wake_w: Optional[socket.socket] = None
        self._bound = False
        self._closed = False
        self._stop = False
        #: admission control: queue bound and drain flag; the
        #: ``server.check_seconds`` histogram sizes ``retry_after_ms``.
        self.max_queue = max(1, max_queue)
        self.io_timeout = io_timeout
        self._draining = False
        self._shedding = False
        self._last_activity = time.monotonic()
        self._started_monotonic = time.monotonic()
        self._started_wall = time.time()
        #: the SLO surface: a bounded ring of per-interval rate and
        #: quantile samples over the daemon's registry, fed by the
        #: selector loop, served by the ``telemetry`` op; rewrites the
        #: Prometheus textfile (``--prom-file``) on every sample tick.
        self.sample_interval = sample_interval
        self.prom_file = prom_file
        self.timeseries = TimeSeriesRing(interval=sample_interval)
        self._prom_write_failed = False
        #: slow-request capture: requests whose ``server.request`` span
        #: exceeds ``slow_ms`` dump their span tree as Chrome-trace
        #: JSON into a keep-newest-N on-disk ring.  Needs a live
        #: tracer — one is installed if the caller's is the null one.
        self.slow_ms = slow_ms
        self._trace_ring: Optional[TraceRing] = None
        if slow_ms is not None:
            if not self.telemetry.tracer.enabled:
                self.telemetry.tracer = Tracer(process_name="vaultc-daemon")
            directory = trace_dir or os.path.join(
                os.path.dirname(self.socket_path) or ".", "traces")
            self._trace_ring = TraceRing(directory, keep=trace_keep)
        for name in SERVER_COUNTERS:
            self.telemetry.metrics.counter(name)

    # -- lifecycle -----------------------------------------------------------

    def bind(self) -> "CheckServer":
        """Create and listen on the socket.  A stale socket file (a
        previous daemon died without unlinking) is removed; a *live*
        one — something is accepting connections — is an error."""
        directory = os.path.dirname(self.socket_path)
        if directory:
            os.makedirs(directory, mode=0o700, exist_ok=True)
        if os.path.exists(self.socket_path):
            if self._socket_is_live(self.socket_path):
                raise VaultError(
                    f"a check daemon is already listening on "
                    f"{self.socket_path}")
            os.unlink(self.socket_path)
        self._sel = selectors.DefaultSelector()
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self._listener.bind(self.socket_path)
            self._listener.listen(16)
            self._listener.setblocking(False)
            self._sel.register(self._listener, selectors.EVENT_READ,
                               ("accept", None))
            self._wake_r, self._wake_w = socket.socketpair()
            self._wake_r.setblocking(False)
            self._wake_w.setblocking(False)
            self._sel.register(self._wake_r, selectors.EVENT_READ,
                               ("wake", None))
        except BaseException:
            self.close()
            raise
        self._bound = True
        self._started_monotonic = time.monotonic()
        self._started_wall = time.time()
        self.telemetry.events.emit(
            "server_start",
            f"check daemon (pid {os.getpid()}) listening on "
            f"{self.socket_path}",
            path=self.socket_path, socket=self.socket_path,
            pid=os.getpid(), version=PROTOCOL_VERSION,
            idle_timeout=self.idle_timeout)
        return self

    @staticmethod
    def _socket_is_live(path: str) -> bool:
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        probe.settimeout(0.5)
        try:
            probe.connect(path)
        except OSError:
            return False
        finally:
            probe.close()
        return True

    def wakeup_fileno(self) -> int:
        """The write end of the loop's wake-up pipe (for
        ``signal.set_wakeup_fd`` and cross-thread pokes)."""
        assert self._wake_w is not None, "bind() first"
        return self._wake_w.fileno()

    def request_stop(self) -> None:
        """Ask the loop to exit; safe from signal handlers and other
        threads (the selector is poked awake)."""
        self._stop = True
        if self._wake_w is not None:
            try:
                self._wake_w.send(b"\x00")
            except OSError:
                pass

    def request_drain(self) -> None:
        """Ask the loop to drain: finish and answer in-flight checks,
        shed everything still queued with ``draining`` replies, then
        exit.  Safe from signal handlers and other threads."""
        self._draining = True
        if self._wake_w is not None:
            try:
                self._wake_w.send(b"\x00")
            except OSError:
                pass

    @property
    def draining(self) -> bool:
        return self._draining

    def close(self) -> None:
        """Tear everything down; idempotent, callable at any point."""
        if self._closed:
            return
        self._closed = True
        self._stop = True
        for conn in list(self._conns.values()):
            self._drop_conn(conn)
        for sock in (self._listener, self._wake_r, self._wake_w):
            if sock is not None:
                try:
                    if self._sel is not None:
                        self._sel.unregister(sock)
                except (KeyError, ValueError):
                    pass
                try:
                    sock.close()
                except OSError:
                    pass
        self._listener = self._wake_r = self._wake_w = None
        if self._sel is not None:
            self._sel.close()
            self._sel = None
        if self._bound:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
            self._bound = False
        for entry in self._sessions.values():
            entry.session.close()
        self._sessions.clear()
        self.telemetry.events.emit(
            "server_stop",
            f"check daemon (pid {os.getpid()}) stopped",
            path=self.socket_path, pid=os.getpid())

    def __enter__(self) -> "CheckServer":
        if not self._bound:
            self.bind()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the loop ------------------------------------------------------------

    def serve_forever(self) -> None:
        """Run until a stop request, the idle timeout, or close()."""
        assert self._bound, "bind() before serve_forever()"
        try:
            while not self._stop:
                # Pending checks only poll the sockets, so control ops
                # and new arrivals are served between two checks.
                timeout = 0 if self._queue else _TICK_SECONDS
                if self.idle_timeout is not None and not self._queue:
                    remaining = self.idle_timeout - \
                        (time.monotonic() - self._last_activity)
                    if remaining <= 0:
                        self.telemetry.events.emit(
                            "server_idle_exit",
                            f"no requests for {self.idle_timeout:g}s; "
                            f"shutting down",
                            idle_timeout=self.idle_timeout)
                        break
                    timeout = min(timeout, remaining)
                for key, mask in self._sel.select(timeout):
                    self._handle_event(key, mask)
                if self._queue and not self._stop and not self._draining:
                    self._run_next()
                if self._draining:
                    self._finish_drain()
                    break
                self._reap_stalled_conns()
                self._sample_tick()
        finally:
            self.close()

    def _finish_drain(self) -> None:
        """The drain endgame, run once after the loop notices
        ``_draining``: stop accepting, shed whatever is still queued
        with ``draining`` replies, give slow readers a short grace
        window to take their final bytes, then fall through to
        ``close()``."""
        if self._listener is not None:
            try:
                if self._sel is not None:
                    self._sel.unregister(self._listener)
            except (KeyError, ValueError):
                pass
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        # One last ingest pass so stragglers that arrived during the
        # final check get a structured ``draining`` reply (via
        # _on_frame) instead of a dead socket.
        try:
            self._drain_ready_once()
        except OSError:
            pass
        shed = 0
        while self._queue:
            req = self._queue.popleft()
            self._reply(req.conn, {"ok": False, "kind": "draining",
                                   "error": "daemon is draining; "
                                            "retry or fall back"},
                        req.req_id)
            shed += 1
        if shed:
            self.telemetry.metrics.counter("server.drained").inc(shed)
        self.telemetry.events.emit(
            "server_drain",
            f"drained: {shed} queued request(s) shed, "
            f"{len(self._conns)} connection(s) open",
            shed=shed, connections=len(self._conns))
        deadline = time.monotonic() + _DRAIN_FLUSH_SECONDS
        while time.monotonic() < deadline:
            pending = [c for c in self._conns.values() if c.outbuf]
            if not pending:
                break
            for conn in pending:
                self._flush(conn)
            if self._sel is not None:
                try:
                    for key, mask in self._sel.select(0.05):
                        if key.data[0] == "conn" \
                                and mask & selectors.EVENT_WRITE:
                            self._flush(key.data[1])
                except OSError:
                    break

    def _reap_stalled_conns(self) -> None:
        """Drop connections with pending bytes in either direction and
        no I/O progress for ``io_timeout`` seconds — a client trickling
        half a header (slow loris) or never reading its reply."""
        if self.io_timeout is None:
            return
        now = time.monotonic()
        for conn in list(self._conns.values()):
            if not conn.inbuf and not conn.outbuf:
                continue                 # idle-but-quiet is fine
            stalled = now - conn.last_io
            if stalled <= self.io_timeout:
                continue
            self.telemetry.metrics.counter("server.conns_reaped").inc()
            self.telemetry.events.emit(
                "conn_reaped",
                f"dropping stalled client after {stalled:.1f}s "
                f"({len(conn.inbuf)}B pending in, "
                f"{len(conn.outbuf)}B pending out)",
                stalled_seconds=stalled,
                pending_in=len(conn.inbuf),
                pending_out=len(conn.outbuf))
            self._drop_conn(conn)

    def _sample_tick(self) -> None:
        """One selector-loop visit to the time-series aggregator: a
        cheap no-op until the sample interval elapses, then one sample
        plus (when configured) an atomic Prometheus textfile rewrite."""
        sample = self.timeseries.maybe_sample(self.telemetry.metrics)
        if sample is None or not self.prom_file:
            return
        try:
            write_textfile(self.prom_file, self.render_exposition())
            self._prom_write_failed = False
        except OSError as exc:
            if not self._prom_write_failed:       # report once per outage
                self._prom_write_failed = True
                self.telemetry.events.emit(
                    "prom_write_failed",
                    f"cannot rewrite {self.prom_file}: {exc}",
                    path=self.prom_file,
                    error=f"{type(exc).__name__}: {exc}")

    def render_exposition(self) -> str:
        """The daemon's registry (plus uptime/queue/session gauges) as
        Prometheus text exposition."""
        extra = {
            "vaultc_uptime_seconds":
                time.monotonic() - self._started_monotonic,
            "vaultc_queue_depth": len(self._queue),
            "vaultc_queue_limit": self.max_queue,
            "vaultc_draining": 1.0 if self._draining else 0.0,
            "vaultc_sessions": len(self._sessions),
        }
        return render_exposition(self.telemetry.metrics.snapshot(),
                                 extra_gauges=extra)

    def _handle_event(self, key: selectors.SelectorKey, mask: int) -> None:
        kind, conn = key.data
        if kind == "accept":
            self._accept()
        elif kind == "wake":
            try:
                self._wake_r.recv(4096)
            except OSError:
                pass
        elif kind == "conn":
            if mask & selectors.EVENT_WRITE:
                self._flush(conn)
            if mask & selectors.EVENT_READ and not conn.closed:
                self._on_readable(conn)

    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            sock.setblocking(False)
            conn = _Conn(sock)
            self._conns[sock.fileno()] = conn
            self._sel.register(sock, selectors.EVENT_READ, ("conn", conn))
            self._last_activity = time.monotonic()
            self.telemetry.metrics.counter("server.connections").inc()

    def _on_readable(self, conn: _Conn) -> None:
        if conn.closed:
            return
        try:
            chunk = conn.sock.recv(1 << 16)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop_conn(conn)
            return
        if not chunk:
            # Client hung up.  Any of its requests still queued are
            # left in place; replying to a closed connection is a
            # tolerated no-op (see _send), so a disconnect mid-request
            # never disturbs the daemon or its other clients.
            self._drop_conn(conn)
            return
        conn.inbuf += chunk
        conn.last_io = time.monotonic()
        if conn.closing:
            # Already condemned (protocol error): ignore further input,
            # just let the final reply drain.
            conn.inbuf = b""
            return
        try:
            frames, conn.inbuf = split_frames(conn.inbuf)
        except ProtocolError as exc:
            self._client_error(conn, exc)
            return
        for frame in frames:
            self._on_frame(conn, frame)

    def _client_error(self, conn: _Conn, exc: Exception) -> None:
        """An unframeable byte stream (oversized or malformed frame):
        answer with a structured ``protocol_error`` so a conforming
        client can report *why*, then close cleanly — the reply is
        flushed first (``closing``), never a silent RST."""
        self.telemetry.metrics.counter("server.client_errors").inc()
        self.telemetry.metrics.counter("server.protocol_errors").inc()
        self.telemetry.events.emit(
            "client_error",
            f"dropping client after protocol error: {exc}",
            error=f"{type(exc).__name__}: {exc}")
        conn.inbuf = b""
        conn.closing = True
        self._send(conn, {"ok": False, "kind": "protocol_error",
                          "error": str(exc)})

    def _drop_conn(self, conn: _Conn) -> None:
        if conn.closed:
            return
        conn.closed = True
        self._conns.pop(conn.sock.fileno(), None)
        try:
            if self._sel is not None:
                self._sel.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass

    # -- request handling ----------------------------------------------------

    def _on_frame(self, conn: _Conn, frame: dict) -> None:
        self._last_activity = time.monotonic()
        self.telemetry.metrics.counter("server.requests").inc()
        op = frame.get("op")
        req_id = frame.get("id")
        if op == "check":
            source = frame.get("source")
            filename = frame.get("filename", "<input>")
            if not isinstance(source, str) or not isinstance(filename, str):
                self._bad_request(conn, "check needs string 'source' "
                                        "(and optional string 'filename')",
                                  req_id)
                return
            options = frame.get("options")
            if options is not None and not isinstance(options, dict):
                self._bad_request(conn, "'options' must be an object",
                                  req_id)
                return
            error = option_error(options or {})
            if error is not None:
                self._bad_request(conn, error, req_id)
                return
            deadline_ms = frame.get("deadline_ms")
            deadline: Optional[float] = None
            if deadline_ms is not None:
                if isinstance(deadline_ms, bool) \
                        or not isinstance(deadline_ms, (int, float)) \
                        or deadline_ms < 0:
                    self._bad_request(
                        conn, "'deadline_ms' must be a non-negative "
                              "number", req_id)
                    return
                deadline = time.monotonic() + float(deadline_ms) / 1000.0
            if self._draining:
                self._reply(conn, {"ok": False, "kind": "draining",
                                   "error": "daemon is draining; "
                                            "retry or fall back"},
                            req_id)
                return
            if len(self._queue) >= self.max_queue:
                self._shed(conn, req_id)
                return
            self._shedding = False
            options = normalize_options(options)
            frame["options"] = options
            self._queue.append(_Request(conn, frame, req_id=req_id,
                                        deadline=deadline))
            return
        if op == "ping":
            self.telemetry.metrics.counter("server.pings").inc()
            self._send(conn, {"ok": True, "pid": os.getpid(),
                              "version": PROTOCOL_VERSION,
                              "socket": self.socket_path,
                              "uptime_seconds": time.monotonic()
                              - self._started_monotonic})
            return
        if op == "health":
            # Cheap liveness for external orchestration (supervisors,
            # load balancers): no session or store access, one frame.
            self.telemetry.metrics.counter("server.health_requests").inc()
            self._reply(conn, {"ok": True, "pid": os.getpid(),
                               "version": PROTOCOL_VERSION,
                               "queue_depth": len(self._queue),
                               "queue_limit": self.max_queue,
                               "draining": self._draining,
                               "connections": len(self._conns),
                               "sessions": len(self._sessions),
                               "uptime_seconds": time.monotonic()
                               - self._started_monotonic}, req_id)
            return
        if op == "stats":
            self._send(conn, {"ok": True, "stats": self._stats()})
            return
        if op == "telemetry":
            self.telemetry.metrics.counter("server.telemetry_requests").inc()
            self._send(conn, {"ok": True, **self._telemetry_payload()})
            return
        if op == "shutdown":
            if frame.get("drain"):
                self._send(conn, {"ok": True, "stopping": True,
                                  "draining": True})
                self.request_drain()
            else:
                self._send(conn, {"ok": True, "stopping": True})
                self.request_stop()
            return
        if op == "die" and self.enable_test_ops:
            # Chaos hook (tests only): drop dead without replying, as
            # an OOM-killed or SIGKILLed daemon would.
            os._exit(86)
        self._bad_request(conn, f"unknown op {op!r}")

    def _bad_request(self, conn: _Conn, message: str,
                     req_id: object = None) -> None:
        self.telemetry.metrics.counter("server.bad_requests").inc()
        self._reply(conn, {"ok": False, "kind": "bad_request",
                           "error": message}, req_id)

    def _reply(self, conn: _Conn, obj: dict, req_id: object) -> None:
        """Send a reply, echoing the client's request ``id`` if it
        supplied one."""
        if req_id is not None:
            obj = dict(obj, id=req_id)
        self._send(conn, obj)

    def _retry_after_ms(self) -> float:
        """Size the ``busy`` hint from observed behaviour: roughly how
        long until the current queue drains, given the average duration
        of the checks answered so far (the ``server.check_seconds``
        histogram), clamped to a sane band."""
        seconds = self.telemetry.metrics.histogram("server.check_seconds")
        avg = seconds.sum / seconds.count if seconds.count else 0.05
        estimate = len(self._queue) * avg * 1000.0
        return max(_RETRY_AFTER_MIN_MS,
                   min(_RETRY_AFTER_MAX_MS, estimate))

    def _shed(self, conn: _Conn, req_id: object) -> None:
        """Load-shed one check request: the queue is at ``max_queue``,
        so answer ``busy`` (with a data-driven ``retry_after_ms``)
        instead of buffering without bound."""
        self.telemetry.metrics.counter("server.shed").inc()
        if not self._shedding:
            # Edge-triggered: one event per episode of overload, not
            # one per shed request.
            self._shedding = True
            self.telemetry.events.emit(
                "request_shed",
                f"queue full ({self.max_queue}); shedding with busy "
                f"replies",
                queue_limit=self.max_queue)
        self._reply(conn, {"ok": False, "kind": "busy",
                           "error": "daemon queue is full",
                           "queue_depth": len(self._queue),
                           "retry_after_ms": self._retry_after_ms()},
                    req_id)

    def _run_next(self) -> None:
        """Check (or expire) the oldest queued request and reply.  A
        deadline that expires *mid-check* still gets the result: the
        work is done, and a late result beats a wasted check plus a
        retry of the same bytes."""
        req = self._queue.popleft()
        if not self._expire(req):
            self._reply(req.conn, self._execute_check(req.payload),
                        req.req_id)
        self._last_activity = time.monotonic()

    def _expire(self, req: _Request) -> bool:
        """Answer ``deadline_exceeded`` (and return True) if the
        request's deadline passed while it sat in the queue."""
        if req.deadline is None or time.monotonic() <= req.deadline:
            return False
        waited_ms = (time.monotonic() - req.enqueued) * 1000.0
        self.telemetry.metrics.counter("server.deadline_exceeded").inc()
        self.telemetry.events.emit(
            "deadline_exceeded",
            f"request expired after {waited_ms:.1f} ms in queue",
            waited_ms=waited_ms)
        self._reply(req.conn,
                    {"ok": False, "kind": "deadline_exceeded",
                     "error": "deadline expired before the check "
                              "started",
                     "waited_ms": waited_ms}, req.req_id)
        return True

    def _drain_ready_once(self) -> None:
        """One zero-timeout selector pass."""
        for key, mask in self._sel.select(0):
            self._handle_event(key, mask)

    # -- replies -------------------------------------------------------------

    def _send(self, conn: _Conn, obj: dict) -> None:
        """Queue a reply and push as much as the socket takes now; the
        rest drains via EVENT_WRITE.  Sending to a client that already
        hung up is a tolerated no-op — a disconnect mid-request must
        not disturb the run that was checking on its behalf."""
        if conn.closed:
            return
        conn.outbuf += encode_frame(obj)
        self._flush(conn)

    def _flush(self, conn: _Conn) -> None:
        try:
            while conn.outbuf:
                sent = conn.sock.send(conn.outbuf)
                conn.outbuf = conn.outbuf[sent:]
                if sent:
                    conn.last_io = time.monotonic()
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            self._drop_conn(conn)
            return
        if conn.closing and not conn.outbuf:
            # Final reply delivered: complete the clean close.
            self._drop_conn(conn)
            return
        mask = selectors.EVENT_READ
        if conn.outbuf:
            mask |= selectors.EVENT_WRITE
        try:
            self._sel.modify(conn.sock, mask, ("conn", conn))
        except (KeyError, ValueError):
            pass

    def _execute_check(self, payload: dict) -> dict:
        source = payload["source"]
        filename = payload.get("filename", "<input>")
        options = payload["options"]
        if self.enable_test_ops and payload.get("test_die"):
            # Chaos hook (tests only): die mid-request, after the
            # client has committed to waiting for this reply.
            os._exit(86)
        session = self._session_for(options)
        started = time.perf_counter()
        response: Optional[dict] = None
        try:
            with self.telemetry.tracer.span("server.request",
                                            filename=filename):
                if self.enable_test_ops and payload.get("test_sleep"):
                    # Chaos hook (tests only): a deterministically slow
                    # request, for exercising the slow-trace ring.
                    time.sleep(float(payload["test_sleep"]))
                report = session.check(source, filename)
        except VaultError as exc:
            # Checker *input* errors (syntax crashes, bad units) are a
            # normal reply; the client re-raises locally so the CLI
            # output is byte-identical to the in-process path.
            response = {"ok": False, "kind": "vault_error",
                        "error": str(exc)}
        except Exception as exc:                     # noqa: BLE001
            self.telemetry.events.emit(
                "check_aborted",
                f"daemon check of {filename} raised: {exc}",
                filename=filename,
                error=f"{type(exc).__name__}: {exc}")
            response = {"ok": False, "kind": "internal_error",
                        "error": f"{type(exc).__name__}: {exc}"}
        elapsed = time.perf_counter() - started
        if response is None:
            self.telemetry.metrics.counter("server.checks").inc()
            self.telemetry.metrics.histogram(
                "server.check_seconds").observe(elapsed)
            response = {"ok": True,
                        "check_ok": report.ok,
                        "render": report.render(),
                        "errors": len(report.errors),
                        "diagnostics": len(report.diagnostics),
                        "seconds": elapsed}
        self._capture_slow(filename, elapsed)
        return response

    def _capture_slow(self, filename: str, elapsed: float) -> None:
        """Slow-request capture: drain the request's span tree off the
        shared tracer (bounding tracer memory whether or not the
        request was slow) and, past the ``--slow-ms`` threshold, land
        it in the on-disk trace ring as Chrome-trace JSON."""
        if self._trace_ring is None:
            return
        events = self.telemetry.tracer.drain()
        if elapsed * 1000.0 < self.slow_ms:
            return
        payload = {"traceEvents": events, "displayTimeUnit": "ms"}
        try:
            path = self._trace_ring.write(payload)
        except OSError as exc:
            self.telemetry.events.emit(
                "trace_write_failed",
                f"cannot write a slow trace for {filename}: {exc}",
                filename=filename,
                error=f"{type(exc).__name__}: {exc}")
            return
        self.telemetry.metrics.counter("server.slow_requests").inc()
        self.telemetry.events.emit(
            "slow_request",
            f"check of {filename} took {elapsed * 1000:.1f} ms "
            f"(threshold {self.slow_ms:g} ms); trace at {path}",
            filename=filename, seconds=elapsed,
            slow_ms=self.slow_ms, trace=path)

    # -- warm sessions -------------------------------------------------------

    def _session_for(self, options: Dict[str, object]) -> CheckSession:
        key = session_key(options)
        entry = self._sessions.get(key)
        if entry is not None:
            entry.last_used = time.monotonic()
            self._sessions.move_to_end(key)
            return entry.session
        session = CheckSession(
            stdlib=bool(options.get("stdlib", True)),
            units=options.get("units"),
            cache_dir=options.get("cache_dir"),
            # Sessions share the daemon's metrics/events/tracer but
            # keep their own profile: sharing one Telemetry object
            # across sessions would cross-wire each session's
            # last_profile.  Per-session counts live on SessionStats.
            telemetry=Telemetry(tracer=self.telemetry.tracer,
                                registry=self.telemetry.metrics,
                                events=self.telemetry.events))
        while len(self._sessions) >= self.session_limit:
            _evicted_key, evicted = self._sessions.popitem(last=False)
            evicted.session.close()
        self._sessions[key] = _SessionEntry(session)
        return session

    def _session_rows(self) -> List[dict]:
        """One row per warm session, in LRU order (oldest first)."""
        sessions = []
        for key, entry in self._sessions.items():
            stats = entry.session.stats
            sessions.append({
                "key": key[:16],
                "checks": stats.checks,
                "functions_checked": stats.functions_checked,
                "functions_replayed": stats.functions_replayed,
                "shared_unit_hits": stats.shared_unit_hits,
                "idle_seconds": time.monotonic() - entry.last_used,
            })
        return sessions

    def _telemetry_payload(self) -> dict:
        """The ``telemetry`` op's reply body: live counters, latency
        quantiles, the time-series window, and per-session LRU state —
        everything ``vaultc top`` renders, as one frame."""
        counters: Dict[str, float] = {}
        quantiles: Dict[str, dict] = {}
        gauges: Dict[str, float] = {}
        for name, data in sorted(self.telemetry.metrics.snapshot().items()):
            kind = data.get("type")
            if kind == "counter":
                counters[name] = data["value"]
            elif kind == "gauge":
                gauges[name] = data["value"]
            elif kind == "histogram":
                bounds = data["bounds"]
                bucket_counts = data["bucket_counts"]
                quantiles[name] = {
                    "count": data["count"],
                    "sum": data["sum"],
                    "p50": bucket_quantile(bounds, bucket_counts, 0.5),
                    "p95": bucket_quantile(bounds, bucket_counts, 0.95),
                    "p99": bucket_quantile(bounds, bucket_counts, 0.99),
                }
        out = {
            "pid": os.getpid(),
            "version": PROTOCOL_VERSION,
            "socket": self.socket_path,
            "started": self._started_wall,
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "queue_depth": len(self._queue),
            "queue_limit": self.max_queue,
            "draining": self._draining,
            "connections": len(self._conns),
            "counters": counters,
            "gauges": gauges,
            "quantiles": quantiles,
            "sessions": self._session_rows(),
            "session_limit": self.session_limit,
            "event_counts": self.telemetry.events.counts(),
            "timeseries": self.timeseries.describe(),
            "shared_cache": self._shared_cache_stats(),
        }
        if self._trace_ring is not None:
            out["slow_traces"] = {
                "slow_ms": self.slow_ms,
                "directory": self._trace_ring.directory,
                "keep": self._trace_ring.keep,
                "files": len(self._trace_ring.paths()),
            }
        return out

    def _stats(self) -> dict:
        out = self.telemetry.snapshot()
        out["sessions"] = self._session_rows()
        out["pid"] = os.getpid()
        out["socket"] = self.socket_path
        out["shared_cache"] = self._shared_cache_stats()
        return out

    def _shared_cache_stats(self) -> Dict[str, dict]:
        """Store traffic, one block per cache directory of the warm
        sessions (the most recently used session's store, when several
        share one); empty when no session has one.  What `vaultc cache
        stats` reads."""
        sessions = [entry.session for entry in self._sessions.values()]
        return {session.cache_dir: session.store.stats_snapshot()
                for session in sessions if session.store is not None}


def serve(socket_path: Optional[str] = None,
          idle_timeout: Optional[float] = None,
          telemetry: Optional[Telemetry] = None,
          ready_out=None,
          sample_interval: float = DEFAULT_SAMPLE_INTERVAL,
          prom_file: Optional[str] = None,
          slow_ms: Optional[float] = None,
          trace_dir: Optional[str] = None,
          trace_keep: int = DEFAULT_TRACE_KEEP,
          max_queue: int = DEFAULT_MAX_QUEUE,
          io_timeout: Optional[float] = DEFAULT_IO_TIMEOUT) -> int:
    """Run a daemon in the calling (main) thread until shutdown.

    Wires SIGTERM/SIGINT to a graceful *drain* through the server's
    wake-up pipe (a signal landing mid-``select`` interrupts the sleep
    immediately instead of waiting out the tick): in-flight checks
    finish and are answered, queued requests are shed with
    ``draining`` replies, then the process exits.  A second signal
    stops immediately.  Returns the process exit code.
    """
    import signal

    server = CheckServer(
        socket_path=socket_path, idle_timeout=idle_timeout,
        telemetry=telemetry,
        enable_test_ops=bool(os.environ.get("VAULTC_SERVER_TEST_OPS")),
        sample_interval=sample_interval, prom_file=prom_file,
        slow_ms=slow_ms, trace_dir=trace_dir, trace_keep=trace_keep,
        max_queue=max_queue, io_timeout=io_timeout)
    server.bind()
    previous: List[Tuple[int, object]] = []
    old_wakeup = None

    def _on_signal(_signum, _frame):
        if server.draining:
            server.request_stop()
        else:
            server.request_drain()

    try:
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous.append((signum, signal.signal(signum, _on_signal)))
        old_wakeup = signal.set_wakeup_fd(server.wakeup_fileno(),
                                          warn_on_full_buffer=False)
    except ValueError:
        # Not the main thread: signals stay with whoever owns them.
        pass
    if ready_out is not None:
        print(f"vaultc daemon (pid {os.getpid()}) listening on "
              f"{server.socket_path}", file=ready_out, flush=True)
    try:
        server.serve_forever()
    finally:
        server.close()
        if old_wakeup is not None:
            try:
                signal.set_wakeup_fd(old_wakeup)
            except ValueError:
                pass
        for signum, handler in previous:
            signal.signal(signum, handler)
    return 0
