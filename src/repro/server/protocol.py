"""Wire protocol for the ``vaultc`` check daemon.

One frame = a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON (one object per frame).  JSON rather than pickle,
because daemon clients are untrusted peers on a shared socket: a
hostile frame can at worst fail to decode, never execute code.

Requests are objects with an ``op`` field:

``{"op": "check", "source": ..., "filename": ..., "options": {...}}``
    Protocol-check one compilation unit.  ``options`` may carry
    ``stdlib`` (a boolean), ``units`` (a list of strings) and
    ``cache_dir`` (the directory the session keeps its file records
    in); a value of another type is a ``bad_request``.  Unknown keys
    are ignored so older clients keep working (that includes
    ``shared_cache``, which once named a second store, and the keys
    that once sized and tuned a worker pool, such as ``jobs``).  Two optional
    top-level fields: ``deadline_ms`` (a non-negative number — a
    request still queued when it expires is answered
    ``deadline_exceeded`` instead of checked) and ``id`` (any JSON
    value, echoed verbatim in the reply so a retrying client can match
    replies to attempts).
``{"op": "ping"}``
    Liveness probe; the reply carries the daemon pid, the protocol
    version, the socket path, and ``uptime_seconds``.
``{"op": "health"}``
    Load-aware liveness for orchestration (supervisors, balancers):
    ``queue_depth``, ``queue_limit``, ``draining``, ``connections``,
    ``sessions``, ``uptime_seconds`` — no session or store access, so
    it stays cheap under load.
``{"op": "stats"}``
    The daemon's telemetry snapshot plus its session registry.
``{"op": "telemetry"}``
    The live SLO surface: flat ``counters``, per-histogram latency
    ``quantiles`` (count/sum/p50/p95/p99), the bounded ``timeseries``
    window of per-interval rate samples, per-session LRU ``sessions``
    rows, ``queue_depth``, uptime, and (when slow-request capture is
    on) the ``slow_traces`` ring state.  What ``vaultc top`` polls.
``{"op": "shutdown"}``
    Ask the daemon to exit after replying; ``{"drain": true}`` asks
    for a graceful drain (finish in-flight, shed queued) instead of an
    immediate stop.

Replies always carry ``"ok"``: ``true`` with op-specific fields
(a ``check`` reply has ``check_ok``, ``render``, ``errors``), or
``false`` with ``error`` and a machine-readable ``kind``:

``"vault_error"``
    checker *input* errors (the client re-raises locally);
``"bad_request"``
    a well-framed request the daemon cannot honour;
``"protocol_error"``
    an unframeable byte stream (oversized or malformed frame) — sent
    as the connection's final frame before a clean close;
``"busy"``
    load shed: the pending queue is at its bound; carries
    ``retry_after_ms`` (a data-driven hint) and ``queue_depth``;
``"deadline_exceeded"``
    the request's ``deadline_ms`` expired in the queue; carries
    ``waited_ms``;
``"draining"``
    the daemon is shutting down gracefully; retry elsewhere or fall
    back;
``"internal_error"``
    the check itself raised (a daemon bug, reported not hidden).

See ``docs/SERVER.md`` for the full schema.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Dict, List, Optional, Tuple

#: bump when a frame or reply changes incompatibly; ``ping`` replies
#: carry it so clients can refuse to talk across versions.
PROTOCOL_VERSION = 1

_HEADER = struct.Struct("!I")
HEADER_SIZE = _HEADER.size

#: payloads above this are rejected before allocation — a daemon on a
#: world-readable socket must not be OOM-able by one bogus header.
MAX_FRAME = 64 << 20


class ProtocolError(Exception):
    """A malformed frame (bad length, bad JSON, or a truncated read)."""


def encode_frame(obj: object) -> bytes:
    """One request/reply as wire bytes (header + canonical JSON)."""
    payload = json.dumps(obj, separators=(",", ":"),
                         sort_keys=True).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME}-byte limit")
    return _HEADER.pack(len(payload)) + payload


def _decode_payload(payload: bytes) -> dict:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(obj).__name__}")
    return obj


def split_frames(buffer: bytes) -> Tuple[List[dict], bytes]:
    """Decode every complete frame in ``buffer``; return the decoded
    objects and the unconsumed tail (the server's incremental reader —
    a slow client's half-written frame just stays buffered)."""
    frames: List[dict] = []
    while len(buffer) >= HEADER_SIZE:
        (length,) = _HEADER.unpack(buffer[:HEADER_SIZE])
        if length > MAX_FRAME:
            raise ProtocolError(
                f"frame header announces {length} bytes "
                f"(limit {MAX_FRAME})")
        end = HEADER_SIZE + length
        if len(buffer) < end:
            break
        frames.append(_decode_payload(buffer[HEADER_SIZE:end]))
        buffer = buffer[end:]
    return frames, buffer


# -- blocking-socket helpers (the client side) -------------------------------

def send_frame(sock: socket.socket, obj: object) -> None:
    sock.sendall(encode_frame(obj))


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    parts: List[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            if parts:
                raise ProtocolError(
                    "peer closed the connection mid-frame")
            return None                      # clean EOF: the peer is gone
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


def recv_frame(sock: socket.socket) -> Optional[dict]:
    """One decoded frame, or ``None`` on a clean EOF before the first
    header byte.  EOF mid-frame is a :class:`ProtocolError` (the peer
    died mid-reply — distinguishable from "no reply at all")."""
    header = _recv_exact(sock, HEADER_SIZE)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(
            f"frame header announces {length} bytes (limit {MAX_FRAME})")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError("peer closed the connection mid-frame")
    return _decode_payload(payload)


# -- stable keys --------------------------------------------------------------

def _canonical(obj: object) -> bytes:
    return json.dumps(obj, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")


#: option keys that select a :class:`~repro.pipeline.CheckSession`; two
#: requests differing only in other keys share one warm session.
SESSION_OPTION_KEYS = ("stdlib", "units", "cache_dir")


def option_error(options: Dict[str, object]) -> Optional[str]:
    """Why a request's ``options`` cannot select a session, or
    ``None``: each session-selecting key present must have its type."""
    if not isinstance(options.get("stdlib", True), bool):
        return "'options.stdlib' must be a boolean"
    units = options.get("units")
    if units is not None and not (
            isinstance(units, list)
            and all(isinstance(unit, str) for unit in units)):
        return "'options.units' must be a list of strings"
    cache_dir = options.get("cache_dir")
    if cache_dir is not None and not isinstance(cache_dir, str):
        return "'options.cache_dir' must be a string"
    return None


def normalize_options(options: Optional[Dict[str, object]]
                      ) -> Dict[str, object]:
    """The session-selecting view of a request's ``options``: known
    keys only, defaults filled in, so equivalent requests normalize to
    the same dict (and therefore the same session key)."""
    options = options or {}
    units = options.get("units")
    return {
        "stdlib": bool(options.get("stdlib", True)),
        "units": list(units) if units is not None else None,
        "cache_dir": options.get("cache_dir"),
    }


def session_key(options: Dict[str, object]) -> str:
    """Registry key for the warm session serving these options (the
    same stable content hashing the summary cache uses — see
    :func:`repro.pipeline.fingerprint.cache_checksum`)."""
    from ..pipeline.fingerprint import cache_checksum
    return cache_checksum(_canonical(
        {key: options.get(key) for key in SESSION_OPTION_KEYS}))

