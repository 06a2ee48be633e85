"""Tests for the check daemon: protocol, lifecycle, resilience.

Covers the acceptance promises of the serving layer:

* the wire protocol (framing, limits, malformed input);
* warm-session reuse and the session registry (LRU, per-option keys);
* concurrent clients receiving byte-identical answers, each request
  checked on its own (a duplicate is a unit replay);
* client disconnect mid-request leaving the daemon healthy and
  leak-free (FD accounting via the helpers in test_resilience);
* SIGTERM / ``shutdown`` op / idle timeout all reaching the same
  idempotent cleanup (socket unlinked, pools closed);
* a daemon killed mid-request: the client transparently falls back
  in-process with byte-identical diagnostics, and a fresh daemon can
  re-bind over the stale socket;
* ``vaultc watch`` change detection (driven via ``Watcher.poll``,
  deterministically, without sleeps).
"""

from __future__ import annotations

import os
import signal
import socket as socket_mod
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import check_source
from repro.diagnostics import VaultError
from repro.obs import Telemetry
from repro.server import (CheckServer, DaemonClient, DaemonUnavailable,
                          ProtocolError, check_detailed, check_via_daemon,
                          encode_frame, normalize_options, recv_frame,
                          render_outcome, send_frame, session_key,
                          split_frames)
from repro.server.watch import Watcher

from conftest import (REPO, ScriptedDaemon as _ScriptedDaemon,
                      ServerHandle as _ServerHandle, needs_unix,
                      spawn_daemon as _spawn_daemon,
                      start_server as _start_server, vaultc as _vaultc)
from conftest import open_fds as _open_fds

pytestmark = pytest.mark.daemon

OK_SOURCE = (REPO / "examples" / "region_demo.vlt").read_text()
BAD_SOURCE = "void f() { Region.delete(r); }\n"
SYNTAX_CRASH = "int f( {"


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_frame_round_trip_over_socketpair(self):
        a, b = socket_mod.socketpair()
        try:
            send_frame(a, {"op": "ping", "n": 1})
            assert recv_frame(b) == {"op": "ping", "n": 1}
        finally:
            a.close()
            b.close()

    def test_recv_frame_none_on_clean_eof(self):
        a, b = socket_mod.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_eof_mid_frame_is_protocol_error(self):
        a, b = socket_mod.socketpair()
        try:
            a.sendall(encode_frame({"op": "ping"})[:3])
            a.close()
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            b.close()

    def test_split_frames_handles_partial_and_multiple(self):
        blob = encode_frame({"a": 1}) + encode_frame({"b": 2})
        frames, rest = split_frames(blob + b"\x00\x00")
        assert frames == [{"a": 1}, {"b": 2}]
        assert rest == b"\x00\x00"
        frames, rest = split_frames(blob[:5])
        assert frames == [] and rest == blob[:5]

    def test_oversized_header_rejected(self):
        import struct
        with pytest.raises(ProtocolError):
            split_frames(struct.pack("!I", 1 << 31) + b"x")

    def test_non_object_payload_rejected(self):
        import struct
        payload = b"[1,2]"
        with pytest.raises(ProtocolError):
            split_frames(struct.pack("!I", len(payload)) + payload)

    def test_session_key_ignores_non_session_options(self):
        assert session_key(normalize_options({})) == \
            session_key(normalize_options({"frobnicate": True}))
        assert session_key(normalize_options({"jobs": 2})) == \
            session_key(normalize_options({}))
        assert session_key(normalize_options({"cache_dir": "c"})) != \
            session_key(normalize_options({}))


# ---------------------------------------------------------------------------
# In-thread daemon (helpers shared via conftest)
# ---------------------------------------------------------------------------

@needs_unix
class TestDaemon:
    def test_ping_and_version(self, tmp_path):
        handle = _start_server(tmp_path)
        try:
            with DaemonClient(handle.socket_path) as client:
                reply = client.ping()
                assert reply["pid"] == os.getpid()
        finally:
            handle.stop()

    def test_check_matches_in_process(self, tmp_path):
        handle = _start_server(tmp_path)
        try:
            with DaemonClient(handle.socket_path) as client:
                for source in (OK_SOURCE, BAD_SOURCE):
                    reply = client.check(source, "unit.vlt")
                    report = check_source(source, "unit.vlt")
                    assert reply["ok"] is True
                    assert reply["check_ok"] == report.ok
                    assert reply["render"] == report.render()
                    assert reply["errors"] == len(report.errors)
        finally:
            handle.stop()

    def test_warm_session_replays_second_check(self, tmp_path):
        handle = _start_server(tmp_path)
        try:
            with DaemonClient(handle.socket_path) as client:
                client.check(OK_SOURCE, "a.vlt")
                client.check(OK_SOURCE, "a.vlt")
                sessions = client.stats()["stats"]["sessions"]
            assert len(sessions) == 1
            assert sessions[0]["checks"] == 2
            assert sessions[0]["functions_replayed"] > 0
        finally:
            handle.stop()

    def test_distinct_options_get_distinct_sessions(self, tmp_path):
        handle = _start_server(tmp_path)
        try:
            with DaemonClient(handle.socket_path) as client:
                client.check(OK_SOURCE, "a.vlt", {"jobs": 1})
                client.check(OK_SOURCE, "a.vlt", {"units": ["region"]})
                assert len(client.stats()["stats"]["sessions"]) == 2
        finally:
            handle.stop()

    def test_session_registry_is_lru_bounded(self, tmp_path):
        handle = _start_server(tmp_path, session_limit=1)
        try:
            with DaemonClient(handle.socket_path) as client:
                client.check(OK_SOURCE, "a.vlt", {"jobs": 1})
                client.check(OK_SOURCE, "a.vlt", {"units": ["region"]})
                assert len(client.stats()["stats"]["sessions"]) == 1
        finally:
            handle.stop()

    def test_vault_error_surfaces_and_client_reraises(self, tmp_path):
        handle = _start_server(tmp_path)
        try:
            with DaemonClient(handle.socket_path) as client:
                reply = client.check(SYNTAX_CRASH, "broken.vlt")
            assert reply["ok"] is False
            assert reply["kind"] == "vault_error"
            with pytest.raises(VaultError):
                check_via_daemon(SYNTAX_CRASH, "broken.vlt",
                                 socket_path=handle.socket_path)
        finally:
            handle.stop()

    def test_unknown_op_is_bad_request(self, tmp_path):
        handle = _start_server(tmp_path)
        try:
            with DaemonClient(handle.socket_path) as client:
                reply = client.request({"op": "frobnicate"})
            assert reply == {"ok": False, "kind": "bad_request",
                             "error": "unknown op 'frobnicate'"}
        finally:
            handle.stop()

    def test_malformed_frame_drops_client_daemon_survives(self, tmp_path):
        handle = _start_server(tmp_path)
        try:
            raw = socket_mod.socket(socket_mod.AF_UNIX,
                                    socket_mod.SOCK_STREAM)
            raw.connect(handle.socket_path)
            import struct
            raw.sendall(struct.pack("!I", 1 << 30) + b"boom")
            reply = recv_frame(raw)
            # A structured protocol_error reply, then a clean close —
            # never a silent teardown.
            assert reply is not None and reply["kind"] == "protocol_error"
            assert "announces" in reply["error"]
            assert recv_frame(raw) is None      # we were dropped
            raw.close()
            with DaemonClient(handle.socket_path) as client:
                assert client.ping()["ok"] is True
            snapshot = handle.server.telemetry.metrics.snapshot()
            assert snapshot["server.protocol_errors"]["value"] == 1
        finally:
            handle.stop()

    def test_concurrent_clients_identical_answers(self, tmp_path):
        handle = _start_server(tmp_path)
        expected = check_source(OK_SOURCE, "conc.vlt").render()
        replies = []
        errors = []

        def _one():
            try:
                with DaemonClient(handle.socket_path) as client:
                    replies.append(client.check(OK_SOURCE, "conc.vlt"))
            except Exception as exc:             # noqa: BLE001
                errors.append(exc)

        try:
            threads = [threading.Thread(target=_one) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            assert not errors
            assert len(replies) == 3
            for reply in replies:
                assert reply["ok"] is True and reply["render"] == expected
            snapshot = handle.server.telemetry.metrics.snapshot()
            assert snapshot["server.requests"]["value"] >= 3
        finally:
            handle.stop()

    def test_identical_concurrent_requests_each_checked(self, tmp_path):
        # A sleeper holds the loop while three clients send the same
        # request, so all three wait in the queue together.  Each one
        # is checked (the duplicates by unit replay) and gets the same
        # answer.
        handle = _start_server(tmp_path, enable_test_ops=True)
        expected = check_source(OK_SOURCE, "dup.vlt").render()
        socks = []
        try:
            hold = socket_mod.socket(socket_mod.AF_UNIX,
                                     socket_mod.SOCK_STREAM)
            socks.append(hold)
            hold.connect(handle.socket_path)
            hold.settimeout(30)
            send_frame(hold, {"op": "check", "source": OK_SOURCE,
                              "filename": "hold.vlt", "test_sleep": 0.4})
            time.sleep(0.15)
            clients = []
            for _ in range(3):
                sock = socket_mod.socket(socket_mod.AF_UNIX,
                                         socket_mod.SOCK_STREAM)
                socks.append(sock)
                clients.append(sock)
                sock.connect(handle.socket_path)
                sock.settimeout(30)
                send_frame(sock, {"op": "check", "source": OK_SOURCE,
                                  "filename": "dup.vlt"})
            assert recv_frame(hold)["ok"] is True
            replies = [recv_frame(sock) for sock in clients]
            for reply in replies:
                assert reply["ok"] is True and reply["render"] == expected
            # Byte-identical apart from each check's own timing.
            bodies = {encode_frame(dict(reply, seconds=0))
                      for reply in replies}
            assert len(bodies) == 1
            snapshot = handle.server.telemetry.metrics.snapshot()
            assert snapshot["server.checks"]["value"] == 4
        finally:
            for sock in socks:
                sock.close()
            handle.stop()

    def test_client_disconnect_mid_request_leaves_daemon_healthy(
            self, tmp_path):
        if _open_fds() is None:
            pytest.skip("needs /proc/self/fd")
        handle = _start_server(tmp_path)
        expected_errors = len(check_source(BAD_SOURCE, "next.vlt").errors)
        try:
            baseline = None
            for round_no in range(3):
                rude = socket_mod.socket(socket_mod.AF_UNIX,
                                         socket_mod.SOCK_STREAM)
                rude.connect(handle.socket_path)
                send_frame(rude, {"op": "check", "source": OK_SOURCE,
                                  "filename": "gone.vlt"})
                rude.close()                     # hang up before the reply
                with DaemonClient(handle.socket_path) as client:
                    reply = client.check(BAD_SOURCE, "next.vlt")
                    assert reply["ok"] is True
                    assert reply["errors"] == expected_errors
                if round_no == 0:
                    baseline = _open_fds()
            # Steady state: rude disconnect cycles must not grow fds.
            time.sleep(0.1)
            assert len(_open_fds()) <= len(baseline)
        finally:
            handle.stop()

    def test_shutdown_op_stops_and_unlinks(self, tmp_path):
        handle = _start_server(tmp_path)
        with DaemonClient(handle.socket_path) as client:
            assert client.shutdown()["stopping"] is True
        handle.thread.join(10)
        assert not handle.thread.is_alive()
        assert not os.path.exists(handle.socket_path)
        handle.server.close()                    # idempotent

    def test_idle_timeout_exits_on_its_own(self, tmp_path):
        handle = _start_server(tmp_path, idle_timeout=0.3)
        handle.thread.join(15)
        assert not handle.thread.is_alive()
        assert not os.path.exists(handle.socket_path)
        kinds = [e.kind for e in handle.server.telemetry.events.records]
        assert "server_idle_exit" in kinds and "server_stop" in kinds

    def test_server_start_stop_events_and_counters(self, tmp_path):
        handle = _start_server(tmp_path)
        try:
            with DaemonClient(handle.socket_path) as client:
                client.ping()
        finally:
            handle.stop()
        events = handle.server.telemetry.events
        assert len(events.by_kind("server_start")) == 1
        assert len(events.by_kind("server_stop")) == 1
        snapshot = handle.server.telemetry.metrics.snapshot()
        # Pre-registered: explicit zeros even for untouched counters.
        assert snapshot["server.deadline_exceeded"]["value"] == 0
        assert snapshot["server.connections"]["value"] >= 1

    def test_stale_socket_is_replaced_live_socket_refused(self, tmp_path):
        sock = str(tmp_path / "stale.sock")
        dead = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
        dead.bind(sock)
        dead.close()                             # file left behind, no listener
        assert os.path.exists(sock)
        server = CheckServer(socket_path=sock)
        server.bind()                            # stale file silently replaced
        try:
            with pytest.raises(VaultError, match="already listening"):
                CheckServer(socket_path=sock).bind()
        finally:
            server.close()
        assert not os.path.exists(sock)

    def test_no_fd_leak_across_daemon_lifecycle(self, tmp_path):
        if _open_fds() is None:
            pytest.skip("needs /proc/self/fd")
        before = _open_fds()
        handle = _start_server(tmp_path / "fd")
        with DaemonClient(handle.socket_path) as client:
            client.check(OK_SOURCE, "fd.vlt")
        handle.stop()
        assert _open_fds() == before


# ---------------------------------------------------------------------------
# Subprocess daemon: signals, death mid-request, CLI byte identity
# ---------------------------------------------------------------------------

@needs_unix
@pytest.mark.slow
class TestDaemonProcess:
    def test_sigterm_exits_cleanly_and_unlinks(self, tmp_path):
        sock = str(tmp_path / "term.sock")
        proc = _spawn_daemon(sock)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=20) == 0
        assert not os.path.exists(sock)

    def test_killed_daemon_mid_request_falls_back_byte_identical(
            self, tmp_path):
        sock = str(tmp_path / "die.sock")
        proc = _spawn_daemon(sock, test_ops=True)
        fds_before = _open_fds()
        # The daemon dies while our request is in flight...
        with pytest.raises(DaemonUnavailable):
            with DaemonClient(sock) as client:
                client.request({"op": "check", "source": OK_SOURCE,
                                "filename": "die.vlt", "test_die": True})
        assert proc.wait(timeout=20) == 86
        # ...and the high-level path silently falls back in-process,
        # with the exact same bytes the daemon would have produced.
        outcome = check_detailed(OK_SOURCE, "die.vlt", socket_path=sock)
        assert outcome.via_daemon is False
        assert outcome.render == check_source(OK_SOURCE, "die.vlt").render()
        if fds_before is not None:
            assert _open_fds() == fds_before, "client leaked fds"
        # The SIGKILL-style death left a stale socket file; a fresh
        # daemon must be able to claim it.
        assert os.path.exists(sock)
        server = CheckServer(socket_path=sock)
        server.bind()
        server.close()
        assert not os.path.exists(sock)

    def test_cli_daemon_output_byte_identical(self, tmp_path):
        sock = str(tmp_path / "cli.sock")
        proc = _spawn_daemon(sock)
        try:
            for rel in ("examples/region_demo.vlt",
                        "src/repro/stdlib/vault/region.vlt"):
                plain = _vaultc(["check", rel])
                daemon = _vaultc(["check", rel, "--daemon", sock])
                assert daemon.returncode == plain.returncode
                assert daemon.stdout == plain.stdout
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=20)

    def test_cli_daemon_relative_cache_dir_is_the_clients(self, tmp_path):
        # The daemon runs in a/, the client in b/: a relative --cache
        # names b/.vcache, as it does without a daemon.
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        unit = tmp_path / "b" / "unit.vlt"
        unit.write_text(BAD_SOURCE)
        sock = str(tmp_path / "rel.sock")
        proc = _spawn_daemon(sock, cwd=tmp_path / "a")
        try:
            result = _vaultc(["check", "--daemon", sock, "--cache",
                              ".vcache", "unit.vlt"], cwd=tmp_path / "b")
            with DaemonClient(sock) as client:
                checks = client.stats()["stats"]["metrics"][
                    "server.checks"]["value"]
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=20)
        assert result.returncode == 1, result.stderr
        assert checks == 1, "the check must go through the daemon"
        assert (tmp_path / "b" / ".vcache").is_dir()
        assert not (tmp_path / "a" / ".vcache").exists()

    def test_cli_daemon_flag_falls_back_without_daemon(self, tmp_path):
        sock = str(tmp_path / "absent.sock")
        plain = _vaultc(["check", "examples/region_demo.vlt"])
        fallback = _vaultc(["check", "examples/region_demo.vlt",
                            "--daemon", sock])
        assert fallback.returncode == plain.returncode == 0
        assert fallback.stdout == plain.stdout

    def test_cli_syntax_error_identical_via_daemon(self, tmp_path):
        bad = tmp_path / "broken.vlt"
        bad.write_text(SYNTAX_CRASH)
        sock = str(tmp_path / "syn.sock")
        proc = _spawn_daemon(sock)
        try:
            plain = _vaultc(["check", str(bad)])
            daemon = _vaultc(["check", str(bad), "--daemon", sock])
            assert plain.returncode == daemon.returncode == 1
            assert daemon.stdout == plain.stdout
            assert daemon.stderr == plain.stderr
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=20)

    def test_idle_timeout_subprocess(self, tmp_path):
        sock = str(tmp_path / "idle.sock")
        proc = _spawn_daemon(sock, "--idle-timeout", "0.5")
        assert proc.wait(timeout=30) == 0
        assert not os.path.exists(sock)


# ---------------------------------------------------------------------------
# vaultc watch
# ---------------------------------------------------------------------------

class TestWatcher:
    def test_first_poll_checks_everything_sorted(self, tmp_path):
        (tmp_path / "a.vlt").write_text(OK_SOURCE)
        (tmp_path / "b.vlt").write_text(BAD_SOURCE)
        watcher = Watcher(str(tmp_path), socket_path=None)
        outcomes = watcher.poll()
        assert [name for name, _ in outcomes] == ["a.vlt", "b.vlt"]
        assert outcomes[0][1].ok and not outcomes[1][1].ok

    def test_unchanged_tree_polls_empty(self, tmp_path):
        (tmp_path / "a.vlt").write_text(OK_SOURCE)
        watcher = Watcher(str(tmp_path), socket_path=None)
        watcher.poll()
        assert watcher.poll() == []

    def test_modified_file_rechecked(self, tmp_path):
        path = tmp_path / "a.vlt"
        path.write_text(OK_SOURCE)
        watcher = Watcher(str(tmp_path), socket_path=None)
        watcher.poll()
        path.write_text(BAD_SOURCE)
        os.utime(path, (time.time() + 2, time.time() + 2))
        outcomes = watcher.poll()
        assert [name for name, _ in outcomes] == ["a.vlt"]
        assert not outcomes[0][1].ok

    def test_deleted_file_forgotten_then_rechecked_on_return(self, tmp_path):
        path = tmp_path / "a.vlt"
        path.write_text(OK_SOURCE)
        watcher = Watcher(str(tmp_path), socket_path=None)
        watcher.poll()
        path.unlink()
        assert watcher.poll() == []
        path.write_text(OK_SOURCE)
        assert [name for name, _ in watcher.poll()] == ["a.vlt"]

    def test_render_outcome_matches_cli_format(self):
        from repro.server import CheckOutcome
        report = check_source(BAD_SOURCE, "b.vlt")
        outcome = CheckOutcome(ok=False, render=report.render(),
                               errors=len(report.errors), via_daemon=False)
        assert render_outcome("b.vlt", outcome) == \
            f"{report.render()}\nb.vlt: {len(report.errors)} error(s)"
        ok_outcome = CheckOutcome(ok=True, render="", errors=0,
                                  via_daemon=True)
        assert render_outcome("a.vlt", ok_outcome) == \
            "a.vlt: OK (protocols verified)"

    @needs_unix
    def test_watch_routes_through_daemon(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "a.vlt").write_text(OK_SOURCE)
        handle = _start_server(tmp_path)
        try:
            watcher = Watcher(str(tmp_path / "src"),
                              socket_path=handle.socket_path)
            outcomes = watcher.poll()
            assert outcomes[0][1].via_daemon is True
            assert outcomes[0][1].ok
        finally:
            handle.stop()


# ---------------------------------------------------------------------------
# Telemetry op, slow traces, Prometheus file, vaultc top
# ---------------------------------------------------------------------------

@needs_unix
class TestTelemetryOp:
    def test_ping_carries_uptime_and_socket(self, tmp_path):
        handle = _start_server(tmp_path)
        try:
            with DaemonClient(handle.socket_path) as client:
                reply = client.ping()
            assert reply["socket"] == handle.socket_path
            assert reply["uptime_seconds"] >= 0
        finally:
            handle.stop()

    def test_telemetry_round_trip(self, tmp_path):
        handle = _start_server(tmp_path)
        try:
            with DaemonClient(handle.socket_path) as client:
                client.ping()
                client.check(OK_SOURCE, "a.vlt")
                client.check(OK_SOURCE, "a.vlt")
                tel = client.telemetry()
            assert tel["ok"] is True
            assert tel["pid"] == os.getpid()
            assert tel["socket"] == handle.socket_path
            assert tel["uptime_seconds"] >= 0
            assert tel["queue_depth"] == 0
            counters = tel["counters"]
            assert counters["server.checks"] == 2
            assert counters["server.pings"] == 1
            assert counters["server.telemetry_requests"] == 1
            # Pre-registered counters report explicit zeros.
            assert counters["server.slow_requests"] == 0
            q = tel["quantiles"]["server.check_seconds"]
            assert q["count"] == 2
            assert 0 <= q["p50"] <= q["p95"] <= q["p99"]
            assert len(tel["sessions"]) == 1
            assert tel["sessions"][0]["checks"] == 2
            assert tel["timeseries"]["capacity"] > 0
            assert tel["event_counts"]["server_start"] == 1
        finally:
            handle.stop()

    def test_telemetry_carries_the_session_gauges(self, tmp_path):
        # Two files in the daemon's one session: each keeps its latest
        # revision's chunks.
        from repro.pipeline import split_chunks
        other = OK_SOURCE + "\nint g(int x) {\n    return x;\n}\n"
        handle = _start_server(tmp_path)
        try:
            with DaemonClient(handle.socket_path) as client:
                client.check(OK_SOURCE, "a.vlt")
                client.check(other, "b.vlt")
                tel = client.telemetry()
            assert tel["gauges"]["session.files"] == 2
            assert tel["gauges"]["session.chunks_held"] == \
                len(split_chunks(OK_SOURCE)) + len(split_chunks(other))
        finally:
            handle.stop()

    def test_server_start_event_payload(self, tmp_path):
        from repro.server.protocol import PROTOCOL_VERSION
        handle = _start_server(tmp_path)
        try:
            (event,) = handle.server.telemetry.events.by_kind("server_start")
            assert event.fields["pid"] == os.getpid()
            assert event.fields["socket"] == handle.socket_path
            assert event.fields["version"] == PROTOCOL_VERSION
        finally:
            handle.stop()

    def test_slow_request_lands_one_valid_trace(self, tmp_path):
        from repro.obs import validate_chrome_trace
        traces = tmp_path / "traces"
        handle = _start_server(tmp_path, enable_test_ops=True,
                               slow_ms=1000.0, trace_dir=str(traces),
                               trace_keep=2)
        try:
            with DaemonClient(handle.socket_path) as client:
                # Fast requests drain the tracer but write nothing...
                client.check(OK_SOURCE, "fast.vlt")
                # ...the forced-slow one lands exactly one trace file.
                reply = client.request(
                    {"op": "check", "source": OK_SOURCE,
                     "filename": "slow.vlt", "test_sleep": 1.2})
                assert reply["ok"] is True
                tel = client.telemetry()
            files = sorted(traces.glob("slow-*.json"))
            assert len(files) == 1
            import json
            payload = json.loads(files[0].read_text())
            assert validate_chrome_trace(payload) == []
            names = [e.get("name") for e in payload["traceEvents"]]
            assert "server.request" in names
            assert tel["counters"]["server.slow_requests"] == 1
            assert tel["slow_traces"]["files"] == 1
            events = handle.server.telemetry.events.by_kind("slow_request")
            assert len(events) == 1
            assert events[0].fields["filename"] == "slow.vlt"
        finally:
            handle.stop()

    def test_trace_ring_keeps_newest_n(self, tmp_path):
        traces = tmp_path / "traces"
        handle = _start_server(tmp_path, enable_test_ops=True,
                               slow_ms=0.0, trace_dir=str(traces),
                               trace_keep=2)
        try:
            with DaemonClient(handle.socket_path) as client:
                for i in range(5):
                    client.check(OK_SOURCE, f"f{i}.vlt")
            assert len(list(traces.glob("slow-*.json"))) == 2
        finally:
            handle.stop()

    def test_prom_file_rewritten_and_valid(self, tmp_path):
        from repro.obs import validate_exposition
        prom = tmp_path / "metrics.prom"
        handle = _start_server(tmp_path, sample_interval=0.05,
                               prom_file=str(prom))
        try:
            with DaemonClient(handle.socket_path) as client:
                client.check(OK_SOURCE, "a.vlt")
            deadline = time.monotonic() + 10
            while not prom.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert prom.exists(), "prom file never written"
            text = prom.read_text()
            assert validate_exposition(text) == []
            assert "vaultc_server_checks_total" in text
            assert "vaultc_uptime_seconds" in text
        finally:
            handle.stop()

    def test_timeseries_samples_accumulate(self, tmp_path):
        handle = _start_server(tmp_path, sample_interval=0.05)
        try:
            with DaemonClient(handle.socket_path) as client:
                client.check(OK_SOURCE, "a.vlt")
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    tel = client.telemetry()
                    if len(tel["timeseries"]["samples"]) >= 2:
                        break
                    time.sleep(0.05)
            assert len(tel["timeseries"]["samples"]) >= 2
        finally:
            handle.stop()


class TestTopRenderer:
    def _reply(self):
        return {
            "ok": True, "pid": 1234, "version": 1, "socket": "/tmp/d.sock",
            "uptime_seconds": 3723.0, "queue_depth": 1, "connections": 2,
            "session_limit": 8,
            "counters": {"server.checks": 10, "server.requests": 12,
                         "cache.shared.cas.hits": 3,
                         "cache.shared.cas.misses": 1,
                         "server.slow_requests": 1},
            "quantiles": {"server.check_seconds":
                          {"count": 10, "sum": 1.0, "p50": 0.01,
                           "p95": 0.05, "p99": 0.09}},
            "sessions": [{"key": "abc123", "checks": 10,
                          "functions_replayed": 40,
                          "idle_seconds": 5.0}],
            "event_counts": {"server_start": 1},
            "timeseries": {"interval": 5.0, "capacity": 120,
                           "samples": [{"time": 0.0, "dt": 5.0,
                                        "rates": {"server.requests": 2.4,
                                                  "server.checks": 2.0},
                                        "gauges": {}, "quantiles": {}}]},
            "slow_traces": {"slow_ms": 500.0, "directory": "/tmp/traces",
                            "keep": 32, "files": 1},
        }

    def test_render_top_mentions_everything(self):
        from repro.server import render_top
        screen = render_top(self._reply())
        assert "pid 1234" in screen
        assert "up 1h02m03s" in screen
        assert "requests/s     2.40" in screen
        assert "p50     10.0ms" in screen
        assert "server.checks" in screen
        assert "cas      hit rate   75.0%" in screen
        assert "abc123" in screen
        assert "slow traces  threshold 500ms" in screen

    def test_render_top_survives_minimal_reply(self):
        from repro.server import render_top
        screen = render_top({"ok": True})
        assert "vaultc daemon" in screen

    @needs_unix
    def test_cli_top_once_json(self, tmp_path):
        sock = str(tmp_path / "top.sock")
        proc = _spawn_daemon(sock)
        try:
            with DaemonClient(sock) as client:
                client.check(OK_SOURCE, "a.vlt")
            result = _vaultc(["top", sock, "--once", "--json"])
            assert result.returncode == 0, result.stderr
            import json
            reply = json.loads(result.stdout)
            assert reply["counters"]["server.checks"] == 1
            assert "server.check_seconds" in reply["quantiles"]
            plain = _vaultc(["top", sock, "--once"])
            assert plain.returncode == 0, plain.stderr
            assert "vaultc daemon" in plain.stdout
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=20)

    def test_cli_top_unreachable_daemon_fails_cleanly(self, tmp_path):
        if not hasattr(socket_mod, "AF_UNIX"):
            pytest.skip("needs AF_UNIX sockets")
        result = _vaultc(["top", str(tmp_path / "absent.sock"), "--once"])
        assert result.returncode == 1
        assert "vaultc top:" in result.stderr

    def test_render_top_shows_queue_bound_and_drain(self):
        from repro.server import render_top
        reply = self._reply()
        reply["queue_limit"] = 64
        reply["draining"] = True
        screen = render_top(reply)
        assert "queue 1/64" in screen
        assert "DRAINING" in screen


# ---------------------------------------------------------------------------
# Admission control, deadlines, slow-loris reaping, drain
# ---------------------------------------------------------------------------

@needs_unix
class TestAdmissionControl:
    def test_burst_past_queue_bound_sheds_with_busy(self, tmp_path):
        handle = _start_server(tmp_path, max_queue=2,
                               enable_test_ops=True)
        try:
            raw = socket_mod.socket(socket_mod.AF_UNIX,
                                    socket_mod.SOCK_STREAM)
            raw.connect(handle.socket_path)
            raw.settimeout(30)
            # Occupy the loop first so the burst below is ingested in
            # one readable event once the sleeper finishes...
            raw.sendall(encode_frame({"op": "check", "source": OK_SOURCE,
                                      "filename": "sleeper.vlt",
                                      "test_sleep": 0.4, "id": 99}))
            time.sleep(0.15)
            # ... then 5 distinct checks, ids 0..4, in a single write:
            # 2 queue, 3 must shed.
            blob = b"".join(
                encode_frame({"op": "check", "source": OK_SOURCE,
                              "filename": f"burst{i}.vlt", "id": i})
                for i in range(5))
            raw.sendall(blob)
            sleeper = recv_frame(raw)
            assert sleeper["ok"] is True and sleeper["id"] == 99
            replies = [recv_frame(raw) for _ in range(5)]
            raw.close()
            busy = [r for r in replies if r.get("kind") == "busy"]
            ok = [r for r in replies if r.get("ok") is True]
            assert len(busy) == 3 and len(ok) == 2
            assert sorted(r["id"] for r in busy) == [2, 3, 4]
            assert sorted(r["id"] for r in ok) == [0, 1]
            for r in busy:
                assert r["queue_depth"] == 2
                assert 50 <= r["retry_after_ms"] <= 5000
            snapshot = handle.server.telemetry.metrics.snapshot()
            assert snapshot["server.shed"]["value"] == 3
            events = handle.server.telemetry.events.by_kind("request_shed")
            assert len(events) == 1          # edge-triggered, not per shed
        finally:
            handle.stop()

    def test_expired_deadline_answered_not_checked(self, tmp_path):
        handle = _start_server(tmp_path)
        try:
            raw = socket_mod.socket(socket_mod.AF_UNIX,
                                    socket_mod.SOCK_STREAM)
            raw.connect(handle.socket_path)
            raw.settimeout(30)
            send_frame(raw, {"op": "check", "source": OK_SOURCE,
                             "filename": "late.vlt", "deadline_ms": 0,
                             "id": "req-1"})
            reply = recv_frame(raw)
            raw.close()
            assert reply["ok"] is False
            assert reply["kind"] == "deadline_exceeded"
            assert reply["id"] == "req-1"
            assert reply["waited_ms"] >= 0
            snapshot = handle.server.telemetry.metrics.snapshot()
            assert snapshot["server.deadline_exceeded"]["value"] == 1
            assert snapshot["server.checks"]["value"] == 0
        finally:
            handle.stop()

    @pytest.mark.parametrize("options", [
        {"cache_dir": 5}, {"cache_dir": ["d"]}, {"units": 5},
        {"units": "region"}, {"units": [1]}, {"stdlib": "yes"},
        {"stdlib": None},
    ])
    def test_bad_option_type_is_bad_request(self, tmp_path, options):
        # Such options once raised outside the check's error handling
        # and ended the daemon's serving loop.
        handle = _start_server(tmp_path)
        try:
            with DaemonClient(handle.socket_path) as client:
                reply = client.request(
                    {"op": "check", "source": OK_SOURCE,
                     "filename": "a.vlt", "options": options, "id": 7})
                assert reply == {"ok": False, "kind": "bad_request",
                                 "error": reply["error"], "id": 7}
                assert "'options." in reply["error"]
                assert client.ping()["ok"] is True
                assert client.check(OK_SOURCE, "a.vlt")["check_ok"]
            assert handle.thread.is_alive()
        finally:
            handle.stop()

    def test_bad_deadline_type_is_bad_request(self, tmp_path):
        handle = _start_server(tmp_path)
        try:
            with DaemonClient(handle.socket_path) as client:
                reply = client.request(
                    {"op": "check", "source": OK_SOURCE,
                     "filename": "a.vlt", "deadline_ms": "soon"})
            assert reply["kind"] == "bad_request"
        finally:
            handle.stop()

    def test_generous_deadline_checks_normally(self, tmp_path):
        handle = _start_server(tmp_path)
        try:
            with DaemonClient(handle.socket_path) as client:
                reply = client.check(OK_SOURCE, "ok.vlt",
                                     deadline_ms=60_000, req_id=7)
            assert reply["ok"] is True and reply["id"] == 7
        finally:
            handle.stop()

    def test_slow_loris_is_reaped_healthy_client_unaffected(
            self, tmp_path):
        handle = _start_server(tmp_path, io_timeout=0.2)
        try:
            loris = socket_mod.socket(socket_mod.AF_UNIX,
                                      socket_mod.SOCK_STREAM)
            loris.connect(handle.socket_path)
            loris.sendall(b"\x00\x00")       # half a header, then nothing
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                snapshot = handle.server.telemetry.metrics.snapshot()
                if snapshot["server.conns_reaped"]["value"] >= 1:
                    break
                time.sleep(0.05)
            assert snapshot["server.conns_reaped"]["value"] == 1
            loris.settimeout(5)
            assert loris.recv(1) == b""      # we were dropped
            loris.close()
            with DaemonClient(handle.socket_path) as client:
                assert client.check(OK_SOURCE, "fine.vlt")["ok"] is True
            events = handle.server.telemetry.events.by_kind("conn_reaped")
            assert len(events) == 1
            assert events[0].fields["pending_in"] == 2
        finally:
            handle.stop()

    def test_health_op_reports_load_and_drain_state(self, tmp_path):
        handle = _start_server(tmp_path, max_queue=7)
        try:
            with DaemonClient(handle.socket_path) as client:
                reply = client.health()
            assert reply["ok"] is True
            assert reply["pid"] == os.getpid()
            assert reply["queue_depth"] == 0
            assert reply["queue_limit"] == 7
            assert reply["draining"] is False
            assert reply["uptime_seconds"] >= 0
            snapshot = handle.server.telemetry.metrics.snapshot()
            assert snapshot["server.health_requests"]["value"] == 1
        finally:
            handle.stop()

    def test_drain_finishes_inflight_sheds_queued_then_exits(
            self, tmp_path):
        handle = _start_server(tmp_path, enable_test_ops=True)
        try:
            raw = socket_mod.socket(socket_mod.AF_UNIX,
                                    socket_mod.SOCK_STREAM)
            raw.connect(handle.socket_path)
            raw.settimeout(30)
            # Two distinct checks in one write: the first holds the
            # loop for ~0.6s, the second waits in the queue.
            raw.sendall(
                encode_frame({"op": "check", "source": OK_SOURCE,
                              "filename": "inflight.vlt",
                              "test_sleep": 0.6, "id": 1})
                + encode_frame({"op": "check", "source": OK_SOURCE,
                                "filename": "queued.vlt", "id": 2}))
            time.sleep(0.2)                  # first check is executing
            handle.server.request_drain()
            first = recv_frame(raw)
            second = recv_frame(raw)
            assert first["ok"] is True and first["id"] == 1
            assert second["kind"] == "draining" and second["id"] == 2
            raw.close()
            handle.thread.join(15)
            assert not handle.thread.is_alive()
            assert not os.path.exists(handle.socket_path)
            snapshot = handle.server.telemetry.metrics.snapshot()
            assert snapshot["server.drained"]["value"] == 1
            assert len(handle.server.telemetry.events.by_kind(
                "server_drain")) == 1
        finally:
            handle.stop()

    def test_shutdown_op_with_drain_flag(self, tmp_path):
        handle = _start_server(tmp_path)
        with DaemonClient(handle.socket_path) as client:
            reply = client.shutdown(drain=True)
            assert reply["stopping"] is True and reply["draining"] is True
        handle.thread.join(15)
        assert not handle.thread.is_alive()
        assert not os.path.exists(handle.socket_path)
        handle.server.close()

    def test_check_during_drain_gets_draining_reply(self, tmp_path):
        # Exercise the _on_frame drain branch directly: flag set, then
        # a check arrives before the loop's drain pass completes.
        handle = _start_server(tmp_path, enable_test_ops=True)
        try:
            raw = socket_mod.socket(socket_mod.AF_UNIX,
                                    socket_mod.SOCK_STREAM)
            raw.connect(handle.socket_path)
            raw.settimeout(30)
            raw.sendall(
                encode_frame({"op": "check", "source": OK_SOURCE,
                              "filename": "hold.vlt",
                              "test_sleep": 0.5, "id": 1}))
            time.sleep(0.15)
            handle.server.request_drain()
            # Lands while the sleeper executes; the drain endgame's
            # final ingest pass must answer it with ``draining``.
            raw.sendall(
                encode_frame({"op": "check", "source": OK_SOURCE,
                              "filename": "straggler.vlt", "id": 2}))
            replies = [recv_frame(raw), recv_frame(raw)]
            raw.close()
            by_id = {r["id"]: r for r in replies}
            assert by_id[1]["ok"] is True
            assert by_id[2]["kind"] == "draining"
        finally:
            handle.stop()


# ---------------------------------------------------------------------------
# Client resilience: timeouts, retry, backoff
# ---------------------------------------------------------------------------

@needs_unix
@pytest.mark.slow
class TestClientResilience:
    def test_backoff_delay_grows_exponentially(self):
        from repro.server.client import BACKOFF_BASE_SECONDS, backoff_delay
        delays = [backoff_delay(a, lambda: 1.0) for a in range(4)]
        assert delays == [BACKOFF_BASE_SECONDS * 2 ** a for a in range(4)]
        assert backoff_delay(3, lambda: 0.0) == 0.0   # full jitter floor

    def test_busy_reply_retried_with_hint_then_succeeds(self, tmp_path):
        report = check_source(OK_SOURCE, "b.vlt")
        daemon = _ScriptedDaemon(str(tmp_path / "s.sock"), [
            {"ok": False, "kind": "busy", "retry_after_ms": 100},
            {"ok": True, "check_ok": report.ok, "render": report.render(),
             "errors": len(report.errors)},
        ])
        sleeps = []
        try:
            outcome = check_via_daemon(
                OK_SOURCE, "b.vlt", socket_path=daemon.path,
                _sleep=sleeps.append, _rng=lambda: 1.0)
        finally:
            daemon.close()
        assert outcome is not None and outcome.via_daemon is True
        assert outcome.render == report.render()
        assert sleeps == [0.1]               # honoured the hint, jittered
        assert len(daemon.requests) == 2

    def test_transport_failure_retried_then_succeeds(self, tmp_path):
        report = check_source(OK_SOURCE, "t.vlt")
        daemon = _ScriptedDaemon(str(tmp_path / "s.sock"), [
            "close",                         # EOF without a reply
            {"ok": True, "check_ok": report.ok, "render": report.render(),
             "errors": len(report.errors)},
        ])
        sleeps = []
        try:
            outcome = check_via_daemon(
                OK_SOURCE, "t.vlt", socket_path=daemon.path,
                _sleep=sleeps.append, _rng=lambda: 1.0)
        finally:
            daemon.close()
        assert outcome is not None and outcome.render == report.render()
        assert len(sleeps) == 1 and sleeps[0] > 0

    def test_hung_daemon_times_out_and_falls_back_bounded(self, tmp_path):
        daemon = _ScriptedDaemon(str(tmp_path / "s.sock"),
                                 ["hang", "hang", "hang"])
        started = time.monotonic()
        try:
            outcome = check_via_daemon(
                OK_SOURCE, "h.vlt", socket_path=daemon.path,
                read_timeout=0.2, _sleep=lambda s: None)
        finally:
            daemon.close()
        elapsed = time.monotonic() - started
        assert outcome is None               # caller falls back in-process
        assert elapsed < 5, "a hung daemon must not wedge the client"

    def test_draining_reply_falls_back_without_retry(self, tmp_path):
        daemon = _ScriptedDaemon(str(tmp_path / "s.sock"), [
            {"ok": False, "kind": "draining", "error": "going away"},
        ])
        sleeps = []
        try:
            outcome = check_via_daemon(
                OK_SOURCE, "d.vlt", socket_path=daemon.path,
                _sleep=sleeps.append)
        finally:
            daemon.close()
        assert outcome is None and sleeps == []
        assert len(daemon.requests) == 1

    def test_busy_budget_exhausted_falls_back(self, tmp_path):
        busy = {"ok": False, "kind": "busy", "retry_after_ms": 1}
        daemon = _ScriptedDaemon(str(tmp_path / "s.sock"),
                                 [busy, busy, busy, busy])
        try:
            outcome = check_via_daemon(
                OK_SOURCE, "x.vlt", socket_path=daemon.path,
                retries=2, _sleep=lambda s: None)
        finally:
            daemon.close()
        assert outcome is None
        assert len(daemon.requests) == 3     # 1 try + 2 retries, bounded

    def test_check_detailed_identical_after_fallback(self, tmp_path):
        daemon = _ScriptedDaemon(str(tmp_path / "s.sock"),
                                 ["close", "close", "close"])
        try:
            outcome = check_detailed(OK_SOURCE, "f.vlt",
                                     socket_path=daemon.path)
        finally:
            daemon.close()
        assert outcome.via_daemon is False
        assert outcome.render == check_source(OK_SOURCE, "f.vlt").render()


    def test_check_detailed_in_process_with_shared_cache(self, tmp_path):
        # An older client's shared_cache option is ignored: --cache
        # DIR is the one on-disk cache.
        options = {"shared_cache": str(tmp_path / "cas")}
        for _ in range(2):
            outcome = check_detailed(OK_SOURCE, "f.vlt", options,
                                     socket_path=None)
            assert outcome.via_daemon is False
            assert outcome.render == \
                check_source(OK_SOURCE, "f.vlt").render()
        assert os.listdir(str(tmp_path)) == []

    def test_check_detailed_in_process_with_cache_dir(self, tmp_path):
        options = {"cache_dir": str(tmp_path / "cas")}
        for _ in range(2):                        # cold, then replayed
            outcome = check_detailed(OK_SOURCE, "f.vlt", options,
                                     socket_path=None)
            assert outcome.via_daemon is False
            assert outcome.render == \
                check_source(OK_SOURCE, "f.vlt").render()
        assert os.listdir(str(tmp_path / "cas"))

    @pytest.mark.parametrize("spec", ["daemon", "daemon:/tmp/d.sock"])
    def test_daemon_spec_selects_no_shared_store(self, spec, tmp_path,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert normalize_options({"shared_cache": spec}) == \
            normalize_options({})
        outcome = check_detailed(OK_SOURCE, "f.vlt", {"shared_cache": spec},
                                 socket_path=None)
        assert outcome.render == check_source(OK_SOURCE, "f.vlt").render()
        assert os.listdir(str(tmp_path)) == []


# ---------------------------------------------------------------------------
# Supervision
# ---------------------------------------------------------------------------

class _FakeClock:
    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class _FakeChild:
    def __init__(self, rc, lived, clock):
        self.rc = rc
        self.lived = lived
        self._clock = clock
        self.signals = []

    def wait(self):
        self._clock.now += self.lived
        return self.rc

    def poll(self):
        return self.rc

    def send_signal(self, signum):
        self.signals.append(signum)


class TestSupervisorPolicy:
    @staticmethod
    def _supervisor(children, clock, **kwargs):
        from repro.server import Supervisor
        import io
        queue = list(children)

        def spawn(_args):
            return queue.pop(0)

        return Supervisor(["daemon"], spawn=spawn, sleep=clock.sleep,
                          monotonic=clock.monotonic,
                          stderr=io.StringIO(), **kwargs)

    def test_backoff_doubles_per_quick_crash(self):
        clock = _FakeClock()
        children = [_FakeChild(1, 0.0, clock) for _ in range(3)] \
            + [_FakeChild(0, 0.0, clock)]
        sup = self._supervisor(children, clock)
        assert sup._run_loop() == 0
        assert clock.sleeps == [0.5, 1.0, 2.0]
        assert sup.respawns == 3

    def test_healthy_child_resets_backoff_streak(self):
        clock = _FakeClock()
        children = [_FakeChild(1, 0.0, clock),
                    _FakeChild(1, 0.0, clock),
                    _FakeChild(1, 60.0, clock),   # healthy, then crashes
                    _FakeChild(0, 0.0, clock)]
        sup = self._supervisor(children, clock)
        assert sup._run_loop() == 0
        # Third respawn delay is back at the base after the healthy run.
        assert clock.sleeps == [0.5, 1.0, 0.5]

    def test_rate_limit_gives_up(self):
        clock = _FakeClock()
        children = [_FakeChild(1, 0.0, clock) for _ in range(10)]
        sup = self._supervisor(children, clock, max_respawns=3,
                               respawn_window=1e9, backoff_base=0.0)
        assert sup._run_loop() == 1
        assert sup.respawns == 3             # then the window said no
        events = sup.telemetry.events.by_kind("daemon_giveup")
        assert len(events) == 1

    def test_clean_exit_ends_supervision(self):
        clock = _FakeClock()
        sup = self._supervisor([_FakeChild(0, 1.0, clock)], clock)
        assert sup._run_loop() == 0
        assert clock.sleeps == [] and sup.respawns == 0

    def test_respawn_event_payload(self):
        clock = _FakeClock()
        sup = self._supervisor([_FakeChild(9, 0.0, clock),
                                _FakeChild(0, 0.0, clock)], clock)
        sup._run_loop()
        (event,) = sup.telemetry.events.by_kind("daemon_respawn")
        assert event.fields["rc"] == 9
        assert event.fields["respawn"] == 1
        assert event.fields["delay_seconds"] == 0.5


@needs_unix
@pytest.mark.slow
class TestSupervisedDaemon:
    def test_supervised_daemon_survives_sigkill(self, tmp_path):
        sock = str(tmp_path / "sup.sock")
        proc = _spawn_daemon(sock, "--supervise")
        try:
            with DaemonClient(sock) as client:
                first_pid = client.ping()["pid"]
            assert first_pid != proc.pid     # the daemon is a child
            os.kill(first_pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            second_pid = None
            while time.monotonic() < deadline:
                try:
                    with DaemonClient(sock) as client:
                        second_pid = client.ping()["pid"]
                    if second_pid != first_pid:
                        break
                except DaemonUnavailable:
                    pass
                time.sleep(0.1)
            assert second_pid is not None and second_pid != first_pid, \
                "daemon was not respawned after SIGKILL"
            outcome = check_via_daemon(OK_SOURCE, "sup.vlt",
                                       socket_path=sock)
            assert outcome is not None and outcome.via_daemon is True
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0


# ---------------------------------------------------------------------------
# Wire-level chaos: the proxy, and retries never duplicating output
# ---------------------------------------------------------------------------

@needs_unix
@pytest.mark.slow
class TestChaosProxy:
    @pytest.fixture()
    def stack(self, tmp_path):
        from repro.server import ChaosProxy
        from repro.pipeline.faults import FaultPlan
        handle = _start_server(tmp_path)
        proxy = ChaosProxy(str(tmp_path / "chaos.sock"),
                           handle.socket_path, FaultPlan()).start()
        yield handle, proxy
        proxy.close()
        handle.stop()

    def test_no_faults_relays_transparently(self, stack):
        handle, proxy = stack
        expected = check_source(OK_SOURCE, "c.vlt").render()
        outcome = check_via_daemon(OK_SOURCE, "c.vlt",
                                   socket_path=proxy.listen_path)
        assert outcome is not None and outcome.via_daemon is True
        assert outcome.render == expected
        assert proxy.faults_acted == {}

    @pytest.mark.parametrize("kind", ["torn", "garbage-frame",
                                      "oversize", "disconnect"])
    def test_faulted_first_attempt_retries_byte_identical(
            self, stack, kind):
        from repro.pipeline.faults import FaultPlan
        handle, proxy = stack
        proxy.plan = FaultPlan.parse(f"{kind}@0")
        proxy.reset()
        expected = check_source(OK_SOURCE, "c.vlt").render()
        outcome = check_via_daemon(OK_SOURCE, "c.vlt",
                                   socket_path=proxy.listen_path,
                                   _sleep=lambda s: None)
        assert outcome is not None, f"{kind}: retry should have succeeded"
        assert outcome.via_daemon is True
        assert outcome.render == expected
        assert proxy.faults_acted[kind] == 1
        assert proxy.requests_seen == 2      # the fault, then the retry

    def test_stall_times_out_then_retry_succeeds(self, stack):
        from repro.pipeline.faults import FaultPlan
        handle, proxy = stack
        proxy.plan = FaultPlan.parse("stall@0")
        proxy.reset()
        expected = check_source(OK_SOURCE, "c.vlt").render()
        outcome = check_via_daemon(OK_SOURCE, "c.vlt",
                                   socket_path=proxy.listen_path,
                                   read_timeout=0.3,
                                   _sleep=lambda s: None)
        assert outcome is not None and outcome.render == expected
        assert proxy.faults_acted["stall"] == 1


@needs_unix
@pytest.mark.slow
class TestRetryNeverDuplicates:
    """Property: whatever single wire fault hits the first attempt,
    the client's bounded retry yields exactly the in-process
    diagnostics — byte-identical, never duplicated or interleaved."""

    SOURCES = [OK_SOURCE, BAD_SOURCE]

    @pytest.fixture(scope="class")
    def stack(self, tmp_path_factory):
        from repro.server import ChaosProxy
        from repro.pipeline.faults import FaultPlan
        tmp_path = tmp_path_factory.mktemp("chaosprop")
        handle = _start_server(tmp_path)
        proxy = ChaosProxy(str(tmp_path / "chaos.sock"),
                           handle.socket_path, FaultPlan()).start()
        expected = {i: check_source(src, f"prop{i}.vlt").render()
                    for i, src in enumerate(self.SOURCES)}
        yield proxy, expected
        proxy.close()
        handle.stop()

    def test_retries_never_duplicate_diagnostics(self, stack):
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st
        from repro.pipeline.faults import FaultPlan
        proxy, expected = stack

        @settings(max_examples=12, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])
        @given(source_idx=st.integers(0, len(self.SOURCES) - 1),
               kind=st.sampled_from(["torn", "garbage-frame", "oversize",
                                     "disconnect", None]))
        def prop(source_idx, kind):
            proxy.plan = FaultPlan.parse(f"{kind}@0") if kind \
                else FaultPlan()
            proxy.reset()
            outcome = check_via_daemon(
                self.SOURCES[source_idx], f"prop{source_idx}.vlt",
                socket_path=proxy.listen_path, _sleep=lambda s: None)
            assert outcome is not None
            assert outcome.render == expected[source_idx]

        prop()


# ---------------------------------------------------------------------------
# The daemon's file records: each session's cache_dir, none without one
# ---------------------------------------------------------------------------

@needs_unix
class TestDaemonSharedStore:
    def test_no_shared_cache_means_no_store(self, tmp_path, capsys):
        from repro.cli import main
        handle = _start_server(tmp_path)
        try:
            with DaemonClient(handle.socket_path) as client:
                for _ in range(2):
                    client.check(OK_SOURCE, "n.vlt")
                client.check(OK_SOURCE, "n.vlt",
                             {"shared_cache": str(tmp_path / "old")})
                stats = client.stats()["stats"]
                telemetry = client.telemetry()
            assert stats["shared_cache"] == {}
            assert telemetry["shared_cache"] == {}
            assert not [name for name in stats["metrics"]
                        if name.startswith("cache.shared.")]
            assert not (tmp_path / "old").exists()
            assert main(["cache", "stats", "--daemon",
                         handle.socket_path]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert "no daemon session has a cache directory" in err
            assert "--cache DIR" in err
        finally:
            handle.stop()

    def test_one_store_per_directory(self, tmp_path, capsys):
        import json
        from repro.cache import STORE_SCHEMA
        from repro.cli import main
        from repro.pipeline import CheckSession
        default = str(tmp_path / "cas")
        other = str(tmp_path / "other")
        with CheckSession(cache_dir=default) as earlier:  # another process
            earlier.check(OK_SOURCE, "s.vlt")
        handle = _start_server(tmp_path)
        try:
            with DaemonClient(handle.socket_path) as client:
                client.check(OK_SOURCE, "s.vlt")
                client.check(OK_SOURCE, "s.vlt", {"cache_dir": default})
                client.check(OK_SOURCE, "o.vlt", {"cache_dir": other})
                assert len(client.stats()["stats"]["sessions"]) == 3
                counters = client.telemetry()["counters"]
            assert main(["cache", "stats", "--daemon",
                         handle.socket_path]) == 0
            block = json.loads(capsys.readouterr().out)
        finally:
            handle.stop()
        assert sorted(block) == [default, other]
        row = block[default]
        assert row["root"] == default and row["schema"] == STORE_SCHEMA
        # The session on the default directory replayed the record the
        # earlier process wrote, and wrote nothing.
        assert row["hits"] == 1 and row["puts"] == 0
        assert block[other]["puts"] == 1
        # The sessions' store traffic is the daemon's cas counters.
        assert counters["cache.shared.cas.hits"] == 1
        assert counters["cache.shared.cas.puts"] == 1

    def test_client_sends_absolute_directories(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        sock = str(tmp_path / "scripted.sock")
        reply = {"ok": True, "check_ok": True, "render": "", "errors": 0}
        daemon = _ScriptedDaemon(sock, [reply])
        try:
            outcome = check_via_daemon(
                OK_SOURCE, "f.vlt",
                {"cache_dir": ".vcache", "shared_cache": "shared"},
                socket_path=sock)
        finally:
            daemon.close()
        assert outcome is not None and outcome.via_daemon
        options = daemon.requests[0]["options"]
        assert options["cache_dir"] == str(tmp_path / ".vcache")
        assert "shared_cache" not in options


# ---------------------------------------------------------------------------
# Injected ENOSPC in the shared CAS
# ---------------------------------------------------------------------------

class TestEnospcInjection:
    def test_cas_degrades_to_miss_under_enospc(self, tmp_path):
        from repro.cache import RecordStore
        from repro.pipeline.faults import FaultPlan
        plan = FaultPlan.parse("enospc@1")
        store = RecordStore(str(tmp_path / "cas"), fault_plan=plan)
        key1 = "1" * 64 + "-f"
        key2 = "2" * 64 + "-f"
        assert store.save(key1, "one") is False
        assert store.load(key1) is None     # the write failed as ENOSPC
        assert not os.path.exists(store.path(key1))
        assert store.errors == 1
        assert store.save(key2, "two")      # budget consumed
        assert store.load(key2) == "two"
        assert store.errors == 1

    def test_store_counts_enospc_as_tier_error_not_corruption(
            self, tmp_path):
        from repro.cache import RecordStore
        from repro.pipeline.faults import FaultPlan
        plan = FaultPlan.parse("enospc@1")
        store = RecordStore(str(tmp_path / "cas"), fault_plan=plan)
        key = "a" * 64 + "-f"
        store.save(key, {"v": 1})
        assert store.load(key) is None      # degraded to a miss
        store.save(key, {"v": 1})
        assert store.load(key) == {"v": 1}
        snap = store.stats_snapshot()
        assert (snap["errors"], snap["corrupt"], snap["puts"]) == (1, 0, 1)
        (event,) = store.telemetry.events.by_kind("shared_cache_error")
        assert event.fields["op"] == "put"
