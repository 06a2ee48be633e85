"""Wire-level chaos smoke for the check daemon (``make daemon-chaos-smoke``).

The acceptance gate for the daemon's production-hardening story.  A
real ``vaultc serve`` subprocess sits behind a :class:`ChaosProxy`
acting out every wire fault a :class:`FaultPlan` can describe, and the
gate asserts the *user-visible* contract each time:

* **byte-identity under faults** — whatever goes wrong on the wire
  (torn reply, garbage frame, oversize header, disconnect, stall,
  daemon killed mid-check), the daemon-first/in-process-fallback path
  produces exactly the diagnostics of a plain in-process check, within
  a bounded wall-clock budget;
* **load shedding** — a burst past ``--max-queue`` gets ``busy``
  replies with retry hints; every request in the burst is answered
  (shed, never dropped);
* **supervision** — a ``--supervise`` daemon survives three SIGKILLs
  of its child, keeps answering checks, and exits 0 on SIGTERM;
* **storage faults** — an injected ENOSPC in the shared CAS degrades
  to a cache miss (never a wrong replay) and the tier keeps working
  once space returns;
* **control** — with no faults planned, the proxy relays transparently
  and acts out nothing.

Results land under the ``"daemon_resilience"`` key of
``BENCH_checker.json`` (read-modify-write; other gates own the other
keys).  Usable both as a script and as a pytest module; where AF_UNIX
sockets are unavailable the gate reports itself skipped rather than
passing vacuously.
"""

import json
import os
import signal
import socket as socket_mod
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro import check_source                            # noqa: E402
from repro.cache import CASTier, SharedStore, encode_blob  # noqa: E402
from repro.pipeline.faults import FaultPlan               # noqa: E402
from repro.server import (ChaosProxy, DaemonClient,       # noqa: E402
                          DaemonUnavailable, check_via_daemon,
                          encode_frame, recv_frame)

_REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
_BENCH_JSON = os.path.join(_REPO, "BENCH_checker.json")

#: wall-clock ceiling for one faulted check (fault + retry/fallback).
MAX_FAULTED_SECONDS = 15.0

#: wire faults exercised against a live daemon (``kill`` runs last —
#: it leaves the daemon dead and proves the fallback instead).
LIVE_FAULTS = ("torn", "garbage-frame", "oversize", "disconnect", "stall")

BURST_QUEUE = 2
BURST_SIZE = 5
SIGKILLS = 3

SOURCE_PATH = os.path.join(_REPO, "examples", "region_demo.vlt")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO, "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    env["VAULTC_SERVER_TEST_OPS"] = "1"
    return env


def _spawn(sock: str, *extra: str) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--socket", sock,
         *extra],
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


def _checked_outcome(source: str, socket_path: str, expected: str,
                     read_timeout: float = 5.0) -> dict:
    """One daemon-first check with in-process fallback; asserts
    byte-identity and the latency ceiling, returns what happened."""
    started = time.perf_counter()
    outcome = check_via_daemon(source, "chaos.vlt",
                               socket_path=socket_path,
                               read_timeout=read_timeout)
    via_daemon = outcome is not None
    render = outcome.render if outcome is not None \
        else check_source(source, "chaos.vlt").render()
    elapsed = time.perf_counter() - started
    assert render == expected, \
        "diagnostics diverged from the in-process check"
    assert elapsed < MAX_FAULTED_SECONDS, \
        f"faulted check took {elapsed:.1f}s (> {MAX_FAULTED_SECONDS}s)"
    return {"via_daemon": via_daemon,
            "seconds": round(elapsed, 4)}


def _scenario_wire_faults(tmp: str, source: str, expected: str) -> dict:
    """Every live wire fault, a no-fault control, then ``kill``."""
    sock = os.path.join(tmp, "chaos-daemon.sock")
    listen = os.path.join(tmp, "chaos-proxy.sock")
    proc = _spawn(sock)
    results = {}
    try:
        with ChaosProxy(listen, sock) as proxy:
            # Control: nothing planned, nothing acted out.
            control = _checked_outcome(source, listen, expected)
            assert control["via_daemon"], "control run missed the daemon"
            assert not proxy.faults_acted, \
                f"control run acted out faults: {dict(proxy.faults_acted)}"
            results["control"] = control

            for kind in LIVE_FAULTS:
                proxy.plan = FaultPlan.parse(f"{kind}@0")
                proxy.reset()
                stall = kind == "stall"
                row = _checked_outcome(
                    source, listen, expected,
                    read_timeout=1.0 if stall else 5.0)
                assert proxy.faults_acted.get(kind) == 1, \
                    f"{kind}: the planned fault was never acted out"
                assert row["via_daemon"], \
                    f"{kind}: the retry should have reached the daemon"
                results[kind] = row

            # kill: the daemon dies mid-check; the client must fall
            # back in-process with identical bytes, never hang.
            proxy.plan = FaultPlan.parse("kill@0")
            proxy.reset()
            row = _checked_outcome(source, listen, expected)
            assert proxy.faults_acted.get("kill") == 1
            assert not row["via_daemon"], \
                "kill: expected the in-process fallback"
            results["kill"] = row
        assert proc.wait(timeout=20) == 86, \
            "test_die child should have exited 86"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=20)
    return results


def _scenario_burst(tmp: str, source: str) -> dict:
    """A burst past ``--max-queue``: shed with busy, nothing dropped."""
    sock = os.path.join(tmp, "burst-daemon.sock")
    proc = _spawn(sock, "--max-queue", str(BURST_QUEUE))
    try:
        raw = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
        raw.connect(sock)
        raw.settimeout(30)
        # Hold the loop busy so the burst is ingested all at once.
        raw.sendall(encode_frame({"op": "check", "source": source,
                                  "filename": "sleeper.vlt",
                                  "test_sleep": 0.4}))
        time.sleep(0.15)
        raw.sendall(b"".join(
            encode_frame({"op": "check", "source": source,
                          "filename": f"burst{i}.vlt", "id": i})
            for i in range(BURST_SIZE)))
        replies = [recv_frame(raw) for _ in range(BURST_SIZE + 1)]
        raw.close()
        assert all(r is not None for r in replies), \
            "a burst request went unanswered"
        busy = [r for r in replies if r.get("kind") == "busy"]
        ok = [r for r in replies if r.get("ok") is True]
        assert len(busy) == BURST_SIZE - BURST_QUEUE, \
            f"expected {BURST_SIZE - BURST_QUEUE} busy replies, " \
            f"got {len(busy)}"
        assert len(ok) == BURST_QUEUE + 1
        for r in busy:
            assert 50 <= r["retry_after_ms"] <= 5000
            assert r["queue_depth"] == BURST_QUEUE
        proc.send_signal(signal.SIGTERM)
        # First SIGTERM drains; the idle daemon exits promptly.
        assert proc.wait(timeout=20) == 0
        assert not os.path.exists(sock)
        return {"burst": BURST_SIZE, "queue_limit": BURST_QUEUE,
                "shed": len(busy),
                "retry_after_ms": [r["retry_after_ms"] for r in busy]}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=20)


def _scenario_supervised(tmp: str, source: str, expected: str) -> dict:
    """``--supervise`` outlives SIGKILL x3 and still answers checks."""
    sock = os.path.join(tmp, "sup-daemon.sock")
    proc = _spawn(sock, "--supervise")
    pids = []
    try:
        with DaemonClient(sock) as client:
            pids.append(client.ping()["pid"])
        assert pids[0] != proc.pid, "--supervise must run a child"
        for _round in range(SIGKILLS):
            os.kill(pids[-1], signal.SIGKILL)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                try:
                    with DaemonClient(sock) as client:
                        pid = client.ping()["pid"]
                    if pid != pids[-1]:
                        pids.append(pid)
                        break
                except DaemonUnavailable:
                    pass
                time.sleep(0.1)
            else:
                raise AssertionError(
                    f"daemon not respawned after SIGKILL #{_round + 1}")
        outcome = check_via_daemon(source, "sup.vlt", socket_path=sock)
        assert outcome is not None and outcome.via_daemon
        assert outcome.render == expected
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0, \
            "supervisor must exit 0 on SIGTERM"
        return {"sigkills": SIGKILLS, "respawns": len(pids) - 1,
                "pids": pids}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=20)


def _scenario_enospc(tmp: str) -> dict:
    """Injected ENOSPC in the CAS: degrade to a miss, then recover."""
    store = SharedStore([CASTier(os.path.join(tmp, "cas"), fsync=False,
                                 fault_plan=FaultPlan.parse("enospc@1"))])
    key = "c" * 64 + "-s"
    blob = encode_blob({"smoke": True})
    store.put_blobs({key: blob})
    assert store.get_blobs([key]) == {}, \
        "an ENOSPC'd write must degrade to a miss, not a wrong replay"
    io_errors_after_fault = store.tiers[0].io_errors
    assert io_errors_after_fault == 1
    store.put_blobs({key: blob})              # the disk came back
    assert store.get_blobs([key]) == {key: blob}
    return {"io_errors": io_errors_after_fault, "recovered": True}


def test_daemon_chaos_smoke():
    if not hasattr(socket_mod, "AF_UNIX"):
        print("daemon chaos smoke SKIPPED: no AF_UNIX sockets")
        return

    with open(SOURCE_PATH, "r", encoding="utf-8") as handle:
        source = handle.read()
    expected = check_source(source, "chaos.vlt").render()

    with tempfile.TemporaryDirectory(prefix="vaultc-dchaos-") as tmp:
        wire = _scenario_wire_faults(tmp, source, expected)
        burst = _scenario_burst(tmp, source)
        supervised = _scenario_supervised(tmp, source, expected)
        enospc = _scenario_enospc(tmp)

    result = {"wire_faults": wire, "burst": burst,
              "supervised": supervised, "enospc": enospc,
              "byte_identical": True}

    # Read-modify-write: other gates own the other keys of the file;
    # this gate owns only "daemon_resilience".
    try:
        with open(_BENCH_JSON, "r", encoding="utf-8") as handle:
            merged = json.load(handle)
    except (OSError, ValueError):
        merged = {}
    merged["daemon_resilience"] = result
    with open(_BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2)
        handle.write("\n")

    print("=" * 64)
    print("| daemon chaos smoke: wire faults, shed, supervise, ENOSPC")
    print("=" * 64)
    for kind in ("control",) + LIVE_FAULTS + ("kill",):
        row = wire[kind]
        how = "via daemon " if row["via_daemon"] else "fallback   "
        print(f"  {kind:<14} {how} {row['seconds'] * 1000:8.1f} ms  "
              f"byte-identical")
    print(f"  burst {burst['burst']} vs queue {burst['queue_limit']}: "
          f"{burst['shed']} shed with busy, all answered")
    print(f"  supervise: survived {supervised['sigkills']} SIGKILLs "
          f"({supervised['respawns']} respawns), SIGTERM -> rc 0")
    print(f"  ENOSPC in CAS: degraded to miss, recovered "
          f"(io_errors={enospc['io_errors']})")
    print("=" * 64)


if __name__ == "__main__":
    test_daemon_chaos_smoke()
    print("daemon chaos smoke: OK")
