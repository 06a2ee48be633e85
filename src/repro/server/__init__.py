"""The persistent check daemon (``vaultc serve``) and its clients.

The paper's pitch is protocol checking *in the compile loop*; in a
modern editor/CI loop that means a resident service, not a cold batch
process.  This package keeps the whole warm stack of the pipeline —
stdlib base context, chunk/context/summary caches — alive in a daemon
behind a Unix domain socket:

* :class:`CheckServer` / :func:`serve` — the daemon (selector loop,
  warm-session registry, request coalescing, idle timeout, graceful
  shutdown);
* :class:`DaemonClient`, :func:`check_detailed` — the wire client and
  the daemon-first/in-process-fallback check used by
  ``vaultc check --daemon`` (bounded timeouts, jittered retry);
* :class:`Supervisor` — ``vaultc serve --supervise``, crash-loop
  respawn of the daemon with backoff and rate limiting;
* :class:`ChaosProxy` — the test-only wire-fault injector behind
  ``make daemon-chaos-smoke``;
* :class:`Watcher` / :func:`run_watch` — ``vaultc watch DIR``,
  mtime-polling re-check of changed ``.vlt`` files;
* :func:`run_top` / :func:`render_top` — ``vaultc top``, a live
  dashboard over the daemon's ``telemetry`` wire op (throughput,
  latency quantiles, cache hit rates, session LRU, slow traces);
* :mod:`repro.server.protocol` — the length-prefixed JSON frame
  format shared by both sides.

See ``docs/SERVER.md`` for the protocol reference, lifecycle and
failure modes.
"""

from .chaos import ChaosProxy
from .client import (CheckOutcome, DaemonClient, DaemonUnavailable,
                     check_detailed, check_via_daemon, resolve_socket)
from .daemon import (CheckServer, default_socket_path, serve,
                     unix_sockets_available)
from .supervise import Supervisor
from .protocol import (MAX_FRAME, PROTOCOL_VERSION, ProtocolError,
                       encode_frame, normalize_options, recv_frame,
                       request_key, send_frame, session_key, split_frames)
from .top import render_top, run_top
from .watch import Watcher, render_outcome, run_watch, scan_tree

__all__ = [
    "ChaosProxy",
    "CheckOutcome",
    "CheckServer",
    "DaemonClient",
    "DaemonUnavailable",
    "MAX_FRAME",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Supervisor",
    "Watcher",
    "check_detailed",
    "check_via_daemon",
    "default_socket_path",
    "encode_frame",
    "normalize_options",
    "recv_frame",
    "render_outcome",
    "render_top",
    "request_key",
    "resolve_socket",
    "run_top",
    "run_watch",
    "scan_tree",
    "send_frame",
    "serve",
    "session_key",
    "split_frames",
    "unix_sockets_available",
]
