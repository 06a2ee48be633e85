"""A fast daemon smoke check (the ``make server-smoke`` gate).

Starts a real ``vaultc serve`` subprocess, fires **three concurrent**
check requests at it from separate client threads, and asserts:

* every reply is byte-identical to the in-process check of the same
  source (the daemon's central promise), and every request is checked
  (``server.checks``; a duplicate is a unit replay);
* a SIGTERM then shuts the daemon down cleanly — exit code 0, socket
  file unlinked, no stray worker processes;
* with the daemon *gone*, ``vaultc check --daemon`` on the same file
  still produces the exact same stdout (transparent fallback).

Where AF_UNIX sockets are unavailable the gate reports itself skipped
rather than passing vacuously.

Usable both as a script (``python benchmarks/server_smoke.py``) and as
a pytest module.
"""

import os
import signal
import socket as socket_mod
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro import check_source                           # noqa: E402
from repro.analysis import synthesize_program            # noqa: E402
from repro.server import DaemonClient, DaemonUnavailable  # noqa: E402

N_FUNCTIONS = 60
N_CLIENTS = 3
_REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO, "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    return env


def _spawn_daemon(sock: str) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--socket", sock],
        cwd=_REPO, env=_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            with DaemonClient(sock) as client:
                client.ping()
            return proc
        except DaemonUnavailable:
            if proc.poll() is not None:
                raise AssertionError(
                    f"daemon exited early (rc={proc.returncode})")
            time.sleep(0.05)
    proc.kill()
    raise AssertionError("daemon never became ready")


def test_server_smoke():
    if not hasattr(socket_mod, "AF_UNIX"):
        print("server smoke SKIPPED: no AF_UNIX sockets on this platform")
        return

    source = synthesize_program(N_FUNCTIONS, seed=9)
    expected = check_source(source, "smoke.vlt")
    assert expected.ok
    rendered = expected.render()

    with tempfile.TemporaryDirectory(prefix="vaultc-smoke-") as tmp:
        sock = os.path.join(tmp, "daemon.sock")
        proc = _spawn_daemon(sock)
        replies = []
        errors = []

        def _client(i: int):
            try:
                with DaemonClient(sock) as client:
                    replies.append((i, client.check(source, "smoke.vlt")))
            except Exception as exc:             # noqa: BLE001
                errors.append((i, exc))

        threads = [threading.Thread(target=_client, args=(i,))
                   for i in range(N_CLIENTS)]
        started = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        elapsed = time.perf_counter() - started

        assert not errors, f"client failures: {errors}"
        assert len(replies) == N_CLIENTS
        for _i, reply in replies:
            assert reply["ok"] is True and reply["check_ok"] is True
            assert reply["render"] == rendered, \
                "daemon reply diverged from the in-process check"

        with DaemonClient(sock) as client:
            stats = client.stats()["stats"]
        checks = stats["metrics"]["server.checks"]["value"]
        assert checks == N_CLIENTS, \
            f"{checks} checks for {N_CLIENTS} requests: each is checked"

        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=30)
        assert rc == 0, f"daemon exited {rc} on SIGTERM"
        assert not os.path.exists(sock), "daemon left its socket behind"

        # Daemon gone: the CLI must fall back with identical stdout.
        path = os.path.join(tmp, "smoke.vlt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source)
        plain = subprocess.run(
            [sys.executable, "-m", "repro.cli", "check", path],
            cwd=_REPO, env=_env(), capture_output=True, text=True)
        fallback = subprocess.run(
            [sys.executable, "-m", "repro.cli", "check", path,
             "--daemon", sock],
            cwd=_REPO, env=_env(), capture_output=True, text=True)
        assert plain.returncode == fallback.returncode == 0
        assert fallback.stdout == plain.stdout, \
            "--daemon fallback stdout diverged from plain check"

    print("=" * 64)
    print("| server smoke: daemon under concurrent clients")
    print("=" * 64)
    print(f"  {N_CLIENTS} concurrent clients answered in "
          f"{elapsed * 1000:.0f} ms ({checks} checks)")
    print("  all replies byte-identical to in-process check   VERIFIED")
    print("  SIGTERM -> exit 0, socket unlinked               VERIFIED")
    print("  --daemon fallback stdout identical               VERIFIED")
    print("=" * 64)


if __name__ == "__main__":
    test_server_smoke()
    print("server smoke: OK")
