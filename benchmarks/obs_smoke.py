"""Observability smoke check (the ``make obs-smoke`` gate).

Boots a real ``vaultc serve`` subprocess with the whole telemetry
surface turned on — time-series sampling, a Prometheus textfile,
slow-request capture, a JSONL event log — drives a burst of checks
through it, and asserts the service-grade promises of the obs layer:

* the ``telemetry`` wire op round-trips live counters, monotone
  latency quantiles (p50 <= p95 <= p99 for ``server.check_seconds``,
  both after the ordinary checks and after the forced-slow one), at
  least one time-series sample, and the session registry;
* the Prometheus textfile parses line-by-line
  (:func:`validate_exposition` returns zero problems);
* one forced-slow request (the ``test_sleep`` chaos hook) lands
  **exactly one** trace file in the ring, and that file passes
  :func:`validate_chrome_trace`;
* the JSONL audit log carries ``server_start`` (and, after SIGTERM,
  ``server_stop``) as parseable JSON lines;
* ``vaultc top --once --json`` exits 0 with the same telemetry body.

Where AF_UNIX sockets are unavailable the gate reports itself skipped
rather than passing vacuously.  Merges an ``observability`` block into
``BENCH_checker.json``.  Its check latency is the p50 of the ordinary
checks alone, with their sample count: a snapshot taken before the
forced-slow request, whose injected sleep would otherwise be the
p95 and p99.

Usable both as a script (``python benchmarks/obs_smoke.py``) and as a
pytest module.
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

from repro.analysis import synthesize_program            # noqa: E402
from repro.obs import (validate_chrome_trace,            # noqa: E402
                       validate_exposition)
from repro.server import DaemonClient, DaemonUnavailable  # noqa: E402

N_FUNCTIONS = 40
N_CHECKS = 5
SLOW_MS = 1500.0
SLEEP_SECONDS = 2.0
_REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
_BENCH_JSON = os.path.join(_REPO, "BENCH_checker.json")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO, "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    env["VAULTC_SERVER_TEST_OPS"] = "1"    # enables the test_sleep hook
    return env


def _spawn_daemon(sock: str, *extra: str) -> subprocess.Popen:
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


def _measure() -> dict:
    source = synthesize_program(N_FUNCTIONS, seed=11)
    with tempfile.TemporaryDirectory(prefix="vaultc-obs-") as tmp:
        sock = os.path.join(tmp, "daemon.sock")
        prom = os.path.join(tmp, "metrics.prom")
        traces = os.path.join(tmp, "traces")
        event_log = os.path.join(tmp, "events.jsonl")
        proc = _spawn_daemon(
            sock, "--sample-interval", "0.2",
            "--prom-file", prom,
            "--slow-ms", str(SLOW_MS), "--trace-dir", traces,
            "--event-log", event_log)
        try:
            with DaemonClient(sock) as client:
                started = time.perf_counter()
                for _ in range(N_CHECKS):
                    reply = client.check(source, "obs.vlt")
                    assert reply["ok"] and reply["check_ok"], reply
                check_seconds = time.perf_counter() - started
                ordinary = client.telemetry()
                # One forced-slow request, well past the threshold.
                reply = client.request(
                    {"op": "check", "source": source,
                     "filename": "obs-slow.vlt",
                     "test_sleep": SLEEP_SECONDS})
                assert reply["ok"], reply
                # Let at least one sample tick land post-traffic.
                deadline = time.monotonic() + 10
                tel = client.telemetry()
                while time.monotonic() < deadline:
                    tel = client.telemetry()
                    if tel.get("timeseries", {}).get("samples") \
                            and os.path.exists(prom):
                        break
                    time.sleep(0.1)

            # -- telemetry op round-trip --------------------------------
            assert tel["ok"] is True, tel
            counters = tel["counters"]
            assert counters["server.checks"] == N_CHECKS + 1, counters
            base = ordinary["quantiles"]["server.check_seconds"]
            assert base["count"] == N_CHECKS, base
            q = tel["quantiles"]["server.check_seconds"]
            for quantiles in (base, q):
                assert 0 <= quantiles["p50"] <= quantiles["p95"] \
                    <= quantiles["p99"], quantiles
            samples = tel["timeseries"]["samples"]
            assert samples, "no time-series samples after traffic"
            assert len(tel["sessions"]) == 1

            # -- Prometheus textfile ------------------------------------
            with open(prom, "r", encoding="utf-8") as handle:
                expo = handle.read()
            problems = validate_exposition(expo)
            assert problems == [], problems
            assert "vaultc_server_checks_total" in expo

            # -- slow-request capture -----------------------------------
            trace_files = sorted(
                name for name in os.listdir(traces)
                if name.startswith("slow-") and name.endswith(".json"))
            assert len(trace_files) == 1, \
                f"expected exactly one slow trace, got {trace_files}"
            with open(os.path.join(traces, trace_files[0]),
                      encoding="utf-8") as handle:
                payload = json.load(handle)
            assert validate_chrome_trace(payload) == []
            names = [e.get("name") for e in payload["traceEvents"]]
            assert "server.request" in names, names
            assert counters["server.slow_requests"] == 1, counters

            # -- vaultc top ---------------------------------------------
            top = subprocess.run(
                [sys.executable, "-m", "repro.cli", "top", sock,
                 "--once", "--json"],
                cwd=_REPO, env=_env(), capture_output=True, text=True)
            assert top.returncode == 0, top.stderr
            top_reply = json.loads(top.stdout)
            assert top_reply["counters"]["server.checks"] == N_CHECKS + 1
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=30)
        assert rc == 0, f"daemon exited {rc} on SIGTERM"

        # -- JSONL audit log (after shutdown, so server_stop landed) ----
        with open(event_log, "r", encoding="utf-8") as handle:
            events = [json.loads(line) for line in handle]
        kinds = [event["kind"] for event in events]
        assert "server_start" in kinds, kinds
        assert "server_stop" in kinds, kinds
        assert "slow_request" in kinds, kinds

    return {
        "functions": N_FUNCTIONS,
        "checks": N_CHECKS,
        "seconds": {"drive_checks": check_seconds},
        # The ordinary checks only; the forced-slow request's sleep is
        # not a latency.
        "check_latency": {"p50_ms": base["p50"] * 1000.0,
                          "samples": base["count"]},
        "timeseries_samples": len(samples),
        "slow_traces": len(trace_files),
        "exposition_problems": len(problems),
        "event_kinds": sorted(set(kinds)),
    }


def test_obs_smoke(benchmark=None):
    if not hasattr(socket_mod, "AF_UNIX"):
        print("obs smoke SKIPPED: no AF_UNIX sockets on this platform")
        return

    if benchmark is not None:
        result = benchmark.pedantic(_measure, rounds=1, iterations=1)
    else:
        result = _measure()

    # Read-modify-write: bench_incremental.py owns the rest of the
    # file; this gate owns only the "observability" key.
    try:
        with open(_BENCH_JSON, "r", encoding="utf-8") as handle:
            merged = json.load(handle)
    except (OSError, ValueError):
        merged = {}
    merged["observability"] = result
    with open(_BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2)
        handle.write("\n")

    latency = result["check_latency"]
    print("=" * 64)
    print("| obs smoke: live telemetry surface of the daemon")
    print("=" * 64)
    print(f"  {result['checks']} checks of {result['functions']} functions "
          f"in {result['seconds']['drive_checks'] * 1000:.0f} ms")
    print(f"  check latency  p50 {latency['p50_ms']:.1f} ms over "
          f"{latency['samples']} checks (quantiles monotone)  VERIFIED")
    print(f"  telemetry op round-trip, "
          f"{result['timeseries_samples']} sample(s)        VERIFIED")
    print("  Prometheus exposition parses (0 problems)        VERIFIED")
    print(f"  forced slow request -> exactly "
          f"{result['slow_traces']} valid trace         VERIFIED")
    print("  JSONL audit log: start/slow_request/stop         VERIFIED")
    print("  vaultc top --once --json exits 0                 VERIFIED")
    print("=" * 64)


if __name__ == "__main__":
    test_obs_smoke()
    print("obs smoke: OK")
