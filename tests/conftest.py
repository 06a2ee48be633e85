"""Shared helpers for the test suite."""

from __future__ import annotations

import os
import socket as socket_mod
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Sequence

import pytest

from repro import check_source, load_context
from repro.diagnostics import Code, Reporter
from repro.stdlib.hostimpl import Host, create_host, make_interpreter

REPO = Path(__file__).resolve().parent.parent

#: skip marker for anything that needs AF_UNIX sockets.
needs_unix = pytest.mark.skipif(
    not hasattr(socket_mod, "AF_UNIX"), reason="needs AF_UNIX sockets")

POINT = "struct point { int x; int y; }\n"


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="regenerate the pinned checker outputs under tests/golden/ "
             "instead of asserting against them")


def check(source: str, units: Optional[Sequence[str]] = None) -> Reporter:
    return check_source(source, units=units)


def codes(source: str, units: Optional[Sequence[str]] = None) -> List[Code]:
    return check(source, units).codes()


def assert_ok(source: str, units: Optional[Sequence[str]] = None) -> None:
    report = check(source, units)
    assert report.ok, "expected clean check, got:\n" + report.render()


def assert_rejected(source: str, code: Code,
                    units: Optional[Sequence[str]] = None) -> None:
    report = check(source, units)
    assert not report.ok, "expected rejection, but the program checked"
    assert report.has(code), (
        f"expected {code.value}, got "
        f"{[c.value for c in report.codes()]}:\n{report.render()}")


def run_program(source: str, entry: str = "main"):
    """Check-free execution helper: returns (result, host)."""
    ctx, reporter = load_context(source)
    assert reporter.ok, reporter.render()
    host = create_host()
    interp = make_interpreter(ctx, host)
    return interp.call(entry), host


@pytest.fixture
def host() -> Host:
    return create_host()


# ---------------------------------------------------------------------------
# Daemon helpers, shared by test_server, test_golden and test_fuzz
# ---------------------------------------------------------------------------

class ServerHandle:
    """An in-thread ``CheckServer`` plus its serving thread."""

    def __init__(self, server, thread: threading.Thread):
        self.server = server
        self.thread = thread
        self.socket_path = server.socket_path

    def stop(self):
        self.server.request_stop()
        self.thread.join(10)
        self.server.close()


def open_fds():
    """This process's open descriptor numbers, or ``None`` without
    ``/proc`` (fd-leak tests skip then)."""
    return set(os.listdir("/proc/self/fd")) if os.path.isdir(
        "/proc/self/fd") else None


def start_server(tmp_path, **kwargs) -> ServerHandle:
    """Bind a ``CheckServer`` on a socket under ``tmp_path`` and serve
    it from a daemon thread.  Callers own the ``.stop()``."""
    from repro.obs import Telemetry
    from repro.server import CheckServer

    sock = str(Path(tmp_path) / "daemon.sock")
    kwargs.setdefault("telemetry", Telemetry(metrics=True))
    server = CheckServer(socket_path=sock, **kwargs)
    server.bind()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return ServerHandle(server, thread)


@pytest.fixture(scope="module")
def daemon_socket(tmp_path_factory):
    """A module-lifetime in-thread daemon; yields its socket path."""
    handle = start_server(tmp_path_factory.mktemp("shared-daemon"))
    try:
        yield handle.socket_path
    finally:
        handle.stop()


def spawn_daemon(sock: str, *extra: str,
                 test_ops: bool = False) -> subprocess.Popen:
    """A real ``vaultc serve`` subprocess, pinged until ready."""
    from repro.server import DaemonClient, DaemonUnavailable

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    if test_ops:
        env["VAULTC_SERVER_TEST_OPS"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--socket", sock,
         *extra],
        cwd=str(REPO), env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline:
        try:
            with DaemonClient(sock) as client:
                client.ping()
            return proc
        except DaemonUnavailable:
            if proc.poll() is not None:
                raise AssertionError(
                    f"daemon exited early with rc={proc.returncode}")
            time.sleep(0.05)
    proc.kill()
    raise AssertionError("daemon never became ready")


def vaultc(args, cwd=REPO) -> subprocess.CompletedProcess:
    """Run the ``vaultc`` CLI in a subprocess and capture its output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=str(cwd), env=env, capture_output=True, text=True)


class ScriptedDaemon:
    """A minimal fake daemon: each incoming request consumes the next
    script step.  Steps: a dict (reply it), ``"close"`` (EOF without
    replying), ``"hang"`` (hold the connection open, never reply)."""

    def __init__(self, path, script):
        from repro.server import recv_frame, send_frame, ProtocolError
        self._recv_frame = recv_frame
        self._send_frame = send_frame
        self._protocol_error = ProtocolError
        self.path = path
        self.script = list(script)
        self._listener = socket_mod.socket(socket_mod.AF_UNIX,
                                           socket_mod.SOCK_STREAM)
        self._listener.bind(path)
        self._listener.listen(8)
        self.requests = []
        self._threads = []
        self._stop = False
        self._accept = threading.Thread(target=self._loop, daemon=True)
        self._accept.start()

    def _loop(self):
        while not self._stop:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            t = threading.Thread(target=self._serve, args=(sock,),
                                 daemon=True)
            self._threads.append(t)
            t.start()

    def _serve(self, sock):
        try:
            while True:
                frame = self._recv_frame(sock)
                if frame is None:
                    return
                self.requests.append(frame)
                step = self.script.pop(0) if self.script else "close"
                if step == "close":
                    return
                if step == "hang":
                    sock.settimeout(10)
                    try:
                        sock.recv(1)         # block until client quits
                    except OSError:
                        pass
                    return
                self._send_frame(sock, step)
        except (OSError, self._protocol_error):
            return
        finally:
            sock.close()

    def close(self):
        self._stop = True
        try:
            self._listener.close()
        except OSError:
            pass
        self._accept.join(2)
