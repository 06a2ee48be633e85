"""Differential byte-identity harness over the three checking paths.

One source program is checked through every execution path the repo
ships — plain serial :func:`repro.check_source`, a warm
:class:`CheckSession` cache replay, and a live check daemon over its
socket — and each path's output is rendered to the
exact bytes ``vaultc check`` would print.  Any disagreement between
paths is a *divergence*: the checker's diagnostics are supposed to be
a pure function of the source, however they were computed.

A path the platform cannot support (no ``AF_UNIX`` for the daemon) is
skipped and recorded, never silently dropped.
"""

from __future__ import annotations

import socket
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import check_source
from repro.pipeline import CheckSession

__all__ = ["ALL_PATHS", "DifferentialHarness", "DifferentialResult",
           "InProcessDaemon", "canonical_stdout", "daemon_available"]

#: every path the harness knows, in baseline-first order.
ALL_PATHS = ("serial", "cached", "daemon")


def canonical_stdout(ok: bool, render: str, errors: int, rel: str) -> str:
    """Exactly what ``vaultc check <rel>`` writes to stdout (the same
    bytes ``tests/golden`` pins)."""
    if ok:
        return f"{rel}: OK (protocols verified)\n"
    return f"{render}\n{rel}: {errors} error(s)\n"


def daemon_available() -> bool:
    return hasattr(socket, "AF_UNIX")


class InProcessDaemon:
    """A :class:`repro.server.CheckServer` bound on ``socket_path`` and
    served from a daemon thread of this process."""

    def __init__(self, socket_path: str) -> None:
        from repro.server import CheckServer
        self.socket_path = socket_path
        self.server = CheckServer(socket_path=socket_path)
        self.server.bind()
        self._thread = threading.Thread(target=self.server.serve_forever,
                                        daemon=True)
        self._thread.start()

    def check(self, source: str, filename: str) -> dict:
        """The daemon's reply to one ``check`` request."""
        from repro.server import DaemonClient
        with DaemonClient(self.socket_path) as client:
            return client.check(source, filename=filename)

    def close(self) -> None:
        self.server.request_stop()
        self._thread.join(10)
        self.server.close()


@dataclass
class DifferentialResult:
    """Outputs of one program across all runnable paths."""

    rel: str
    outputs: Dict[str, str]                  # path name -> stdout bytes
    skipped: Tuple[str, ...] = ()

    @property
    def baseline(self) -> str:
        return self.outputs["serial"]

    @property
    def divergent_paths(self) -> List[str]:
        return [p for p, out in self.outputs.items()
                if p != "serial" and out != self.baseline]

    @property
    def divergent(self) -> bool:
        return bool(self.divergent_paths)


class DifferentialHarness:
    """Reusable harness: sessions and the daemon are created once and
    shared across every checked program.

    Use as a context manager::

        with DifferentialHarness() as harness:
            result = harness.check(source, "fuzz-42.vlt")
            assert not result.divergent
    """

    def __init__(self, use_daemon: bool = True,
                 use_cache: bool = True) -> None:
        self._cached: Optional[CheckSession] = None
        self._daemon: Optional[InProcessDaemon] = None
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        self.skipped: List[str] = []

        if use_cache:
            self._tmp = tempfile.TemporaryDirectory(prefix="vault-diff-")
            self._cached = CheckSession(cache_dir=self._tmp.name + "/cache")
        if use_daemon and daemon_available():
            if self._tmp is None:
                self._tmp = tempfile.TemporaryDirectory(prefix="vault-diff-")
            self._daemon = InProcessDaemon(self._tmp.name + "/check.sock")
        elif use_daemon:
            self.skipped.append("daemon")

    # -- lifecycle ----------------------------------------------------

    def __enter__(self) -> "DifferentialHarness":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._daemon is not None:
            self._daemon.close()
            self._daemon = None
        if self._cached is not None:
            self._cached.close()
            self._cached = None
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    @property
    def paths(self) -> List[str]:
        """The paths this harness will actually run."""
        return [p for p in ALL_PATHS if p not in self.skipped
                and not (p == "cached" and self._cached is None)
                and not (p == "daemon" and self._daemon is None)]

    # -- checking -----------------------------------------------------

    def check(self, source: str, rel: str) -> DifferentialResult:
        outputs: Dict[str, str] = {}

        report = check_source(source, filename=rel)
        outputs["serial"] = canonical_stdout(
            report.ok, report.render(), len(report.errors), rel)

        if self._cached is not None:
            self._cached.check(source, filename=rel)   # populate
            rep = self._cached.check(source, filename=rel)   # warm replay
            outputs["cached"] = canonical_stdout(
                rep.ok, rep.render(), len(rep.errors), rel)

        if self._daemon is not None:
            reply = self._daemon.check(source, rel)
            if reply.get("ok"):
                outputs["daemon"] = canonical_stdout(
                    reply["check_ok"], reply["render"],
                    reply["errors"], rel)
            else:
                outputs["daemon"] = f"<daemon error: {reply!r}>\n"

        return DifferentialResult(rel=rel, outputs=outputs,
                                  skipped=tuple(self.skipped))
