"""Crash supervision for the check daemon (``vaultc serve --supervise``).

The daemon is designed not to die — client faults are contained by the
protocol layer — but "designed not to" is not "cannot": the OOM
killer, a bug in a native extension, or an operator's stray ``kill
-9`` all end the process without warning.  ``--supervise`` runs the
real server in a *child* process and restarts it when it crashes:

* a child that exits **cleanly** (rc 0 — idle timeout, drain,
  ``shutdown`` op) ends supervision: intentional exits are honoured,
  never fought;
* a crash is respawned after **crash-loop backoff** — the delay
  doubles per consecutive quick death (a child that stayed up
  ``healthy_seconds`` resets the streak) up to ``backoff_cap``;
* respawns are **rate-limited**: more than ``max_respawns`` inside
  ``respawn_window`` seconds means the daemon cannot hold (bad config,
  poisoned socket dir) and the supervisor gives up with rc 1 rather
  than flapping forever;
* SIGTERM/SIGINT to the supervisor are **forwarded** to the child, so
  the drain semantics of :func:`repro.server.daemon.serve` work
  unchanged under supervision;
* every respawn is a ``daemon_respawn`` event plus one stderr line —
  the flap history is observable, not silent.

Time sources, sleeping, and process spawning are injectable, so the
whole policy is unit-testable without forking a single real daemon.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from collections import deque
from typing import Callable, Deque, List, Optional, Sequence

from ..obs import Telemetry

__all__ = ["Supervisor", "DEFAULT_BACKOFF_BASE", "DEFAULT_BACKOFF_CAP",
           "DEFAULT_HEALTHY_SECONDS", "DEFAULT_MAX_RESPAWNS",
           "DEFAULT_RESPAWN_WINDOW"]

#: first respawn delay; doubles per consecutive quick crash.
DEFAULT_BACKOFF_BASE = 0.5

#: ceiling on one respawn delay.
DEFAULT_BACKOFF_CAP = 30.0

#: a child alive this long is "healthy": the backoff streak resets.
DEFAULT_HEALTHY_SECONDS = 5.0

#: respawns tolerated inside one window before giving up.
DEFAULT_MAX_RESPAWNS = 8

#: seconds of respawn history the rate limit looks at.
DEFAULT_RESPAWN_WINDOW = 60.0


def _default_spawn(args: Sequence[str]) -> "subprocess.Popen":
    return subprocess.Popen(list(args))


class Supervisor:
    """Respawn a crashing daemon child with backoff and a rate limit.

    ``child_args`` is the full argv of the child (typically this very
    CLI minus ``--supervise``).  ``run()`` blocks until the child exits
    cleanly, the rate limit trips, or a forwarded signal ends the
    child; it returns the supervisor's exit code.
    """

    def __init__(self, child_args: Sequence[str],
                 telemetry: Optional[Telemetry] = None,
                 backoff_base: float = DEFAULT_BACKOFF_BASE,
                 backoff_cap: float = DEFAULT_BACKOFF_CAP,
                 healthy_seconds: float = DEFAULT_HEALTHY_SECONDS,
                 max_respawns: int = DEFAULT_MAX_RESPAWNS,
                 respawn_window: float = DEFAULT_RESPAWN_WINDOW,
                 spawn: Callable[[Sequence[str]], object] = _default_spawn,
                 sleep: Callable[[float], None] = time.sleep,
                 monotonic: Callable[[], float] = time.monotonic,
                 stderr=None):
        self.child_args = list(child_args)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.healthy_seconds = healthy_seconds
        self.max_respawns = max_respawns
        self.respawn_window = respawn_window
        self._spawn = spawn
        self._sleep = sleep
        self._monotonic = monotonic
        self._stderr = stderr if stderr is not None else sys.stderr
        self._child = None
        self._stopping = False
        #: monotonic stamps of recent respawns (the rate-limit window).
        self._respawn_times: Deque[float] = deque()
        self.respawns = 0
        self.consecutive_crashes = 0

    # -- policy pieces (pure, unit-tested directly) ---------------------------

    def backoff_delay(self) -> float:
        """Delay before the next respawn given the crash streak."""
        return min(self.backoff_cap,
                   self.backoff_base * (2 ** self.consecutive_crashes))

    def rate_limited(self, now: float) -> bool:
        """Would one more respawn exceed the window's budget?"""
        cutoff = now - self.respawn_window
        while self._respawn_times and self._respawn_times[0] < cutoff:
            self._respawn_times.popleft()
        return len(self._respawn_times) >= self.max_respawns

    # -- signal forwarding ----------------------------------------------------

    def request_stop(self, signum: Optional[int] = None) -> None:
        """Forward a stop to the child and end supervision once it
        exits.  Safe from signal handlers."""
        import signal as _signal
        self._stopping = True
        child = self._child
        if child is not None:
            try:
                child.send_signal(signum if signum is not None
                                  else _signal.SIGTERM)
            except (OSError, AttributeError):
                pass

    # -- the loop -------------------------------------------------------------

    def run(self) -> int:
        import signal

        previous: List = []
        try:
            for signum in (signal.SIGTERM, signal.SIGINT):
                previous.append((signum, signal.signal(
                    signum, lambda s, _f: self.request_stop(s))))
        except ValueError:
            pass                      # not the main thread
        try:
            return self._run_loop()
        finally:
            for signum, handler in previous:
                signal.signal(signum, handler)

    def _run_loop(self) -> int:
        while True:
            started = self._monotonic()
            try:
                self._child = self._spawn(self.child_args)
            except OSError as exc:
                print(f"vaultc supervise: cannot spawn daemon: {exc}",
                      file=self._stderr, flush=True)
                return 1
            rc = self._wait_child()
            lived = self._monotonic() - started
            self._child = None
            if self._stopping or rc == 0:
                # A clean exit (idle timeout, drain, shutdown op) or a
                # forwarded stop: supervision is done.
                return 0 if rc == 0 else rc
            if lived >= self.healthy_seconds:
                self.consecutive_crashes = 0
            now = self._monotonic()
            if self.rate_limited(now):
                print(f"vaultc supervise: daemon crashed "
                      f"{self.max_respawns} times in "
                      f"{self.respawn_window:g}s; giving up",
                      file=self._stderr, flush=True)
                self.telemetry.events.emit(
                    "daemon_giveup",
                    f"daemon crash-looped past {self.max_respawns} "
                    f"respawns in {self.respawn_window:g}s",
                    respawns=self.respawns, rc=rc)
                return 1
            delay = self.backoff_delay()
            self.consecutive_crashes += 1
            self.respawns += 1
            self._respawn_times.append(now)
            print(f"vaultc supervise: daemon exited with rc {rc} "
                  f"after {lived:.1f}s; respawning in {delay:.1f}s "
                  f"(respawn #{self.respawns})",
                  file=self._stderr, flush=True)
            self.telemetry.events.emit(
                "daemon_respawn",
                f"daemon exited rc {rc} after {lived:.1f}s; "
                f"respawn #{self.respawns} in {delay:.1f}s",
                rc=rc, lived_seconds=lived, delay_seconds=delay,
                respawn=self.respawns)
            self._sleep(delay)
            if self._stopping:
                return 0

    def _wait_child(self) -> int:
        """Block until the child exits; tolerate interrupted waits
        (a forwarded signal lands while we sit in ``wait``)."""
        while True:
            try:
                return self._child.wait()
            except KeyboardInterrupt:
                self.request_stop()
            except OSError:
                poll = getattr(self._child, "poll", None)
                rc = poll() if poll is not None else None
                return rc if rc is not None else 1
