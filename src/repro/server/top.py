"""``vaultc top`` — a live terminal dashboard for the check daemon.

Polls the ``telemetry`` wire op and renders the daemon's SLO surface
in place: request/check throughput (off the newest time-series
sample), check-latency quantiles, the hit rate of the sessions' file
records (``--cache DIR``), the session-LRU state, and slow-request
capture activity.  Two modes:

* **live** (default) — redraw every ``--interval`` seconds until
  Ctrl-C, using the ANSI clear/home sequence (no curses dependency);
* **one-shot** (``--once``, optionally ``--json``) — fetch one
  telemetry frame and print it, for scripts and tests.

Rendering is a pure function of one telemetry reply
(:func:`render_top`), so the screen layout is unit-testable without a
daemon in sight.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Dict, List, Optional

from .client import DaemonClient, DaemonUnavailable

#: ANSI: clear screen + cursor home (what ``watch(1)`` effectively does).
_CLEAR = "\x1b[2J\x1b[H"


def _fmt_seconds(seconds: float) -> str:
    seconds = max(0, int(seconds))
    hours, rest = divmod(seconds, 3600)
    minutes, secs = divmod(rest, 60)
    if hours:
        return f"{hours}h{minutes:02d}m{secs:02d}s"
    if minutes:
        return f"{minutes}m{secs:02d}s"
    return f"{secs}s"


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.1f}ms"


def _rate(sample: Optional[dict], name: str) -> float:
    if not sample:
        return 0.0
    return float(sample.get("rates", {}).get(name, 0.0))


def _hit_rate(counters: Dict[str, float], hits: str, misses: str
              ) -> Optional[float]:
    h = counters.get(hits, 0)
    total = h + counters.get(misses, 0)
    if total <= 0:
        return None
    return h / total


def render_top(reply: dict) -> str:
    """One telemetry reply as the dashboard screen (no ANSI codes)."""
    lines: List[str] = []
    counters: Dict[str, float] = reply.get("counters", {}) or {}
    quantiles: Dict[str, dict] = reply.get("quantiles", {}) or {}
    timeseries = reply.get("timeseries") or {}
    samples = timeseries.get("samples") or []
    newest = samples[-1] if samples else None

    lines.append(
        f"vaultc daemon  pid {reply.get('pid', '?')}  "
        f"up {_fmt_seconds(reply.get('uptime_seconds', 0))}  "
        f"proto v{reply.get('version', '?')}  "
        f"socket {reply.get('socket', '?')}")
    queue = f"queue {reply.get('queue_depth', 0)}"
    if reply.get("queue_limit") is not None:
        queue += f"/{reply['queue_limit']}"
    lines.append(
        queue
        + ("  DRAINING" if reply.get("draining") else "")
        + f"  connections {reply.get('connections', 0)}  "
        f"sessions {len(reply.get('sessions') or [])}"
        f"/{reply.get('session_limit', '?')}  "
        f"samples {len(samples)}"
        + (f" @{timeseries.get('interval', 0):g}s" if timeseries else ""))
    lines.append("")

    lines.append(f"throughput   requests/s {_rate(newest, 'server.requests'):8.2f}"
                 f"   checks/s {_rate(newest, 'server.checks'):8.2f}"
                 f"   (over the newest sample window)")
    check = quantiles.get("server.check_seconds")
    if check:
        lines.append(f"check latency   p50 {_fmt_ms(check['p50']):>10}"
                     f"   p95 {_fmt_ms(check['p95']):>10}"
                     f"   p99 {_fmt_ms(check['p99']):>10}"
                     f"   n={check['count']}")
    lines.append("")

    lines.append("counters")
    for name in sorted(counters):
        lines.append(f"  {name:<32} {counters[name]:>12g}")
    lines.append("")

    rate = _hit_rate(counters, "cache.shared.cas.hits",
                     "cache.shared.cas.misses")
    if rate is not None:
        lines.append("shared cache")
        lines.append(f"  cas      hit rate {rate * 100:6.1f}%")
        lines.append("")

    sessions = reply.get("sessions") or []
    if sessions:
        lines.append(f"{'session':<18} {'checks':>7} {'replayed':>9} "
                     f"{'idle':>8}")
        for row in sessions:
            lines.append(f"{row.get('key', '?'):<18} "
                         f"{row.get('checks', 0):>7} "
                         f"{row.get('functions_replayed', 0):>9} "
                         f"{_fmt_seconds(row.get('idle_seconds', 0)):>8}")

    slow = reply.get("slow_traces")
    if slow:
        lines.append("")
        lines.append(
            f"slow traces  threshold {slow.get('slow_ms', 0):g}ms  "
            f"captured {counters.get('server.slow_requests', 0):g}  "
            f"on disk {slow.get('files', 0)}/{slow.get('keep', '?')}  "
            f"in {slow.get('directory', '?')}")
    return "\n".join(lines) + "\n"


def run_top(socket_path: Optional[str] = "auto", interval: float = 2.0,
            once: bool = False, as_json: bool = False,
            out=None) -> int:
    """Drive the dashboard; the process exit code."""
    out = out if out is not None else sys.stdout

    def _fetch() -> dict:
        # Short read timeout: a wedged daemon turns into one rc-1
        # error line, not a dashboard that hangs forever.
        with DaemonClient(socket_path, read_timeout=10.0) as client:
            return client.telemetry()

    try:
        if once:
            reply = _fetch()
            if as_json:
                print(json.dumps(reply, indent=2, sort_keys=True), file=out)
            else:
                print(render_top(reply), end="", file=out)
            return 0
        while True:
            reply = _fetch()
            print(_CLEAR + render_top(reply), end="", file=out, flush=True)
            time.sleep(max(0.1, interval))
    except DaemonUnavailable as exc:
        print(f"vaultc top: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print(file=out)
        return 0
