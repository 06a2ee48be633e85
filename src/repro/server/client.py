"""Client side of the check daemon: connect, request, fall back.

:class:`DaemonClient` is the raw wire client.  :func:`check_detailed`
is what ``vaultc check --daemon`` uses: it tries the daemon and
**transparently falls back to in-process checking** whenever the
daemon is unreachable, dies mid-request, or replies with something
unusable — with diagnostics byte-identical in both paths (the daemon
runs the same :class:`~repro.pipeline.CheckSession` pipeline, whose
output is pinned byte-for-byte against ``repro.check_source`` by the
golden corpus in ``tests/test_golden.py``).

The only daemon failure that is *not* silently absorbed is a reply of
kind ``vault_error``: that means the daemon successfully determined
the *input* is broken (e.g. a syntax crash), so the client raises the
same :class:`~repro.diagnostics.VaultError` the in-process path would
have raised — identical CLI behaviour, no wasted re-check.

Resilience contract (the client half of the daemon's admission
control):

* every socket carries a **read timeout** — a *hung* daemon (accepted
  the connection, never replies) surfaces as
  :class:`DaemonUnavailable` after ``read_timeout`` seconds instead of
  wedging the caller forever;
* :func:`check_via_daemon` retries **transport** failures and ``busy``
  replies a bounded number of times with exponential backoff plus full
  jitter (checks are idempotent: the daemon recomputes from the
  request bytes, so a retry can only produce the same reply);
* ``draining`` and ``deadline_exceeded`` replies and exhausted retries
  all collapse to "no daemon" — the caller falls back in-process and
  output stays byte-identical either way.
"""

from __future__ import annotations

import os
import random
import socket
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..diagnostics import VaultError
from .daemon import default_socket_path, unix_sockets_available
from .protocol import (PROTOCOL_VERSION, ProtocolError, normalize_options,
                       recv_frame, send_frame)

#: seconds allowed for connect + ping.
CONNECT_TIMEOUT = 5.0

#: seconds allowed for one reply.  Generous — a cold check of
#: a big module is legitimate work — but finite, so a wedged daemon
#: costs one bounded wait and a fallback, never a hang.
READ_TIMEOUT = 120.0

#: transport-failure / busy retries in :func:`check_via_daemon`.
DEFAULT_RETRIES = 2

#: first backoff window; doubles per attempt, full jitter.
BACKOFF_BASE_SECONDS = 0.05

#: ceiling on honouring a ``busy`` reply's ``retry_after_ms`` hint —
#: the daemon may ask for seconds, but an interactive client prefers
#: falling back to waiting that long.
MAX_BUSY_WAIT_SECONDS = 0.5


def backoff_delay(attempt: int, rng: Callable[[], float]) -> float:
    """Exponential backoff with full jitter: a uniform draw from
    ``[0, BACKOFF_BASE * 2^attempt]`` — retries from a burst of
    clients decorrelate instead of reconverging."""
    return BACKOFF_BASE_SECONDS * (2 ** attempt) * rng()


class DaemonUnavailable(Exception):
    """No usable daemon behind the socket (absent, dead, or talking a
    different protocol) — the cue to check in-process instead."""


def resolve_socket(spec: Optional[str]) -> str:
    """``auto``/``None``/empty -> the default path; else the path."""
    if not spec or spec == "auto":
        return default_socket_path()
    return spec


class DaemonClient:
    """A blocking client for one daemon connection."""

    def __init__(self, socket_path: Optional[str] = None,
                 connect_timeout: float = CONNECT_TIMEOUT,
                 read_timeout: Optional[float] = READ_TIMEOUT):
        if not unix_sockets_available():
            raise DaemonUnavailable("no AF_UNIX support on this platform")
        self.socket_path = resolve_socket(socket_path)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(connect_timeout)
        try:
            self._sock.connect(self.socket_path)
        except OSError as exc:
            self._sock.close()
            raise DaemonUnavailable(
                f"cannot reach a check daemon at {self.socket_path}: "
                f"{exc}") from None
        # Every round trip stays bounded: a daemon that accepted the
        # connection but never replies (wedged, not dead) must surface
        # as DaemonUnavailable, not hang the caller.
        self._sock.settimeout(read_timeout)

    def request(self, payload: dict) -> dict:
        """One request/reply round trip; :class:`DaemonUnavailable` on
        any transport-level failure (EOF, reset, garbage frames)."""
        try:
            send_frame(self._sock, payload)
            reply = recv_frame(self._sock)
        except (OSError, ProtocolError) as exc:
            raise DaemonUnavailable(
                f"daemon connection failed mid-request: {exc}") from None
        if reply is None:
            raise DaemonUnavailable("daemon closed the connection "
                                    "without replying")
        return reply

    # -- convenience ops -----------------------------------------------------

    def ping(self) -> dict:
        reply = self.request({"op": "ping"})
        if not reply.get("ok") or reply.get("version") != PROTOCOL_VERSION:
            raise DaemonUnavailable(
                f"daemon speaks protocol {reply.get('version')!r}, "
                f"client speaks {PROTOCOL_VERSION}")
        return reply

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def telemetry(self) -> dict:
        return self.request({"op": "telemetry"})

    def health(self) -> dict:
        """Cheap liveness + load: pid, queue depth/limit, drain state."""
        return self.request({"op": "health"})

    def shutdown(self, drain: bool = False) -> dict:
        payload = {"op": "shutdown"}
        if drain:
            payload["drain"] = True
        return self.request(payload)

    def check(self, source: str, filename: str = "<input>",
              options: Optional[Dict[str, object]] = None,
              deadline_ms: Optional[float] = None,
              req_id: object = None) -> dict:
        payload = {"op": "check", "source": source,
                   "filename": filename, "options": options or {}}
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if req_id is not None:
            payload["id"] = req_id
        return self.request(payload)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class CheckOutcome:
    """What ``vaultc check`` needs to print, wherever it was computed."""

    ok: bool
    render: str
    errors: int
    via_daemon: bool


def check_via_daemon(source: str, filename: str = "<input>",
                     options: Optional[Dict[str, object]] = None,
                     socket_path: Optional[str] = "auto",
                     retries: int = DEFAULT_RETRIES,
                     read_timeout: Optional[float] = READ_TIMEOUT,
                     _sleep: Callable[[float], None] = time.sleep,
                     _rng: Optional[Callable[[], float]] = None
                     ) -> Optional[CheckOutcome]:
    """Try one check through the daemon; ``None`` means "no daemon —
    check in-process yourself".  Raises :class:`VaultError` only when
    the daemon proved the input itself is broken.

    Transport failures (daemon died mid-reply, torn frame, read
    timeout) and ``busy`` replies are retried up to ``retries`` times
    with exponential backoff plus jitter.  A check request is
    idempotent — the daemon recomputes the reply from the request
    bytes — so a retry can only yield the same diagnostics, never a
    duplicate.  ``draining``/``deadline_exceeded`` replies and an
    exhausted budget fall back (return ``None``) instead of piling
    onto a daemon that asked us to go away."""
    rng = _rng if _rng is not None else random.random
    normalized = normalize_options(options)
    # The daemon runs in its own working directory: send a directory
    # that names what it names here.
    if isinstance(normalized["cache_dir"], str) and normalized["cache_dir"]:
        normalized["cache_dir"] = os.path.abspath(normalized["cache_dir"])
    attempt = 0
    while True:
        try:
            with DaemonClient(socket_path,
                              read_timeout=read_timeout) as client:
                reply = client.check(source, filename, normalized)
        except DaemonUnavailable:
            if attempt >= retries:
                return None
            _sleep(backoff_delay(attempt, rng))
            attempt += 1
            continue
        if reply.get("ok") is True and isinstance(reply.get("render"),
                                                  str):
            return CheckOutcome(ok=bool(reply.get("check_ok")),
                                render=reply["render"],
                                errors=int(reply.get("errors", 0)),
                                via_daemon=True)
        kind = reply.get("kind")
        if kind == "vault_error":
            raise VaultError(str(reply.get("error",
                                           "daemon check failed")))
        if kind == "busy" and attempt < retries:
            hint = reply.get("retry_after_ms")
            wait = (float(hint) / 1000.0
                    if isinstance(hint, (int, float))
                    and not isinstance(hint, bool)
                    else BACKOFF_BASE_SECONDS)
            wait = min(wait, MAX_BUSY_WAIT_SECONDS)
            _sleep(wait * (0.5 + 0.5 * rng()))     # jittered hint
            attempt += 1
            continue
        # draining, deadline_exceeded, internal_error, unknown shape,
        # or an exhausted busy budget: behave as if there were no
        # daemon at all.
        return None


def check_detailed(source: str, filename: str = "<input>",
                   options: Optional[Dict[str, object]] = None,
                   socket_path: Optional[str] = "auto") -> CheckOutcome:
    """Daemon-first check with transparent in-process fallback.

    ``socket_path=None`` skips the daemon entirely.  The fallback
    produces byte-identical output to the daemon path (same pipeline,
    same renderer).
    """
    if socket_path is not None:
        outcome = check_via_daemon(source, filename, options, socket_path)
        if outcome is not None:
            return outcome
    from ..api import check_source
    options = normalize_options(options)
    if options["cache_dir"]:
        from ..pipeline import CheckSession
        with CheckSession(stdlib=options["stdlib"], units=options["units"],
                          cache_dir=options["cache_dir"]) as session:
            report = session.check(source, filename)
    else:
        report = check_source(source, filename,
                              stdlib=options["stdlib"],
                              units=options["units"])
    return CheckOutcome(ok=report.ok, render=report.render(),
                        errors=len(report.errors), via_daemon=False)
