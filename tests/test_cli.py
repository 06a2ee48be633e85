"""CLI tests for ``vaultc``."""

import gc
import json
import os
import subprocess
import sys

import pytest

from repro import cli
from repro.cli import main

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")

GOOD = """
struct point { int x; int y; }
int main() {
    tracked(R) region rgn = Region.create();
    R:point pt = new(rgn) point {x=1; y=2;};
    int v = pt.x + pt.y;
    Region.delete(rgn);
    return v;
}
"""

LEAKY = """
void main() {
    tracked(R) region rgn = Region.create();
}
"""


@pytest.fixture
def good_file(tmp_path):
    path = tmp_path / "good.vlt"
    path.write_text(GOOD)
    return str(path)


@pytest.fixture
def leaky_file(tmp_path):
    path = tmp_path / "leaky.vlt"
    path.write_text(LEAKY)
    return str(path)


class TestCheck:
    def test_check_good(self, good_file, capsys):
        assert main(["check", good_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_check_leaky(self, leaky_file, capsys):
        assert main(["check", leaky_file]) == 1
        assert "V0302" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.vlt"]) == 1


class TestRun:
    def test_run_good(self, good_file, capsys):
        assert main(["run", good_file]) == 0
        assert "-> 3" in capsys.readouterr().out

    def test_run_rejects_leaky(self, leaky_file):
        assert main(["run", leaky_file]) == 1

    def test_run_unchecked_reports_leak(self, leaky_file, capsys):
        rc = main(["run", leaky_file, "--unchecked"])
        assert rc == 3
        assert "leak" in capsys.readouterr().out.lower()


class TestCompileEraseStats:
    def test_compile_to_stdout(self, good_file, capsys):
        assert main(["compile", good_file]) == 0
        out = capsys.readouterr().out
        assert "def main(" in out

    def test_compile_to_file(self, good_file, tmp_path):
        out_path = str(tmp_path / "out.py")
        assert main(["compile", good_file, "-o", out_path]) == 0
        assert os.path.exists(out_path)

    def test_erase(self, good_file, capsys):
        assert main(["erase", good_file]) == 0
        out = capsys.readouterr().out
        assert "tracked" not in out
        assert "R:" not in out

    def test_stats(self, good_file, capsys):
        assert main(["stats", good_file]) == 0
        out = capsys.readouterr().out
        assert "tokens" in out

    def test_mutate(self, good_file, capsys):
        assert main(["mutate", good_file, "--limit", "4"]) == 0
        out = capsys.readouterr().out
        assert "Vault checker" in out

    def test_fmt_prints_normalised_source(self, good_file, capsys):
        assert main(["fmt", good_file]) == 0
        out = capsys.readouterr().out
        from repro.syntax import parse_program, pretty
        assert pretty(parse_program(out)) == out

    def test_fmt_in_place(self, good_file, capsys):
        assert main(["fmt", good_file, "-i"]) == 0
        assert main(["check", good_file]) == 0

    def test_cfg_all(self, good_file, capsys):
        assert main(["cfg", good_file]) == 0
        out = capsys.readouterr().out
        assert "cfg main:" in out
        assert "(entry)" in out

    def test_cfg_single_function(self, good_file, capsys):
        assert main(["cfg", good_file, "-f", "main"]) == 0
        assert "cfg main:" in capsys.readouterr().out

    def test_cfg_unknown_function(self, good_file, capsys):
        assert main(["cfg", good_file, "-f", "nope"]) == 1

    def test_run_monitor_clean(self, good_file, capsys):
        assert main(["run", good_file, "--monitor"]) == 0

    def test_run_monitor_detects_leak(self, leaky_file, capsys):
        rc = main(["run", leaky_file, "--unchecked", "--monitor"])
        assert rc == 3

    def test_stats_includes_checker_metrics(self, good_file, capsys):
        assert main(["stats", good_file]) == 0
        out = capsys.readouterr().out
        assert "checker metrics (one cold check):" in out
        assert "cache.context.misses" in out


class TestCacheDir:
    """``--cache DIR`` keeps one record per file in a CAS directory,
    which ``vaultc cache`` inspects and collects."""

    @pytest.fixture
    def unit(self, tmp_path):
        from repro.analysis import synthesize_program
        path = tmp_path / "unit.vlt"
        path.write_text(synthesize_program(12, seed=5, error_rate=0.3))
        return str(path)

    def _check(self, capsys, *argv):
        code = main(["check", *argv])
        return code, capsys.readouterr().out

    def _profiled(self, capsys, *argv):
        code = main(["check", *argv, "--profile"])
        out, err = capsys.readouterr()
        return (code, out), err

    def test_two_files_share_one_cache_dir(self, unit, tmp_path, capsys):
        from repro.analysis import synthesize_program
        other = tmp_path / "other.vlt"
        other.write_text(synthesize_program(9, seed=6, error_rate=0.3))
        store = str(tmp_path / "store")
        expected = {path: self._check(capsys, path)
                    for path in (unit, str(other))}
        for path in expected:
            assert self._check(capsys, path, "--cache", store) == \
                expected[path]
        for path in expected:
            result, err = self._profiled(capsys, path, "--cache", store)
            assert result == expected[path]
            assert "  functions checked             0\n" in err
            assert "replayed whole unit (file record)" in err

    def test_a_second_cold_check_parses_nothing(self, unit, tmp_path,
                                                 capsys):
        store = str(tmp_path / "store")
        first, err = self._profiled(capsys, unit, "--cache", store)
        assert "  chunks " in err
        second, err = self._profiled(capsys, unit, "--cache", store)
        assert second == first
        assert "  functions checked             0\n" in err
        assert "  file record replays           1\n" in err
        assert "  chunks " not in err and "  bodies " not in err

    def test_cache_stats_counts_the_pack(self, unit, tmp_path, capsys):
        from repro.pipeline import CheckSession
        store = str(tmp_path / "store")
        self._check(capsys, unit, "--cache", store)
        record = CheckSession(cache_dir=store).record_path(unit)
        assert main(["cache", "stats", "--dir", store]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["bytes"] == os.path.getsize(record) > 0

    def test_cache_gc_only_makes_the_next_check_cold(self, unit, tmp_path,
                                                     capsys):
        store = str(tmp_path / "store")
        expected = self._check(capsys, unit)
        assert self._check(capsys, unit, "--cache", store) == expected
        assert main(["cache", "gc", store, "--max-bytes", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["deleted"] == 1
        code = main(["check", unit, "--cache", store, "--profile"])
        out, err = capsys.readouterr()
        assert (code, out) == expected
        assert "  functions replayed            0\n" in err

    def test_cache_gc_collects_older_store_objects(self, tmp_path, capsys):
        # An older vaultc wrote -s, -u and -p objects.  They are never
        # read again, but stats count them and gc can empty the store.
        from repro.cache import RETIRED_KINDS, encode_blob
        store = tmp_path / "store"
        size = 0
        for n in range(30):
            kind = RETIRED_KINDS[n % len(RETIRED_KINDS)]
            key = f"{n * 7919:064x}-{kind}"
            (store / key[:2]).mkdir(exist_ok=True, parents=True)
            blob = encode_blob(("old", n))
            (store / key[:2] / key).write_bytes(blob)
            size += len(blob)
        assert main(["cache", "stats", "--dir", str(store)]) == 0
        assert json.loads(capsys.readouterr().out)["bytes"] == size
        assert main(["cache", "gc", str(store), "--max-bytes", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["deleted"] == 30 and report["bytes_remaining"] == 0
        assert not [name for _root, _dirs, names in os.walk(str(store))
                    for name in names]

    def test_cache_stats_refuses_a_missing_directory(self, tmp_path,
                                                    capsys):
        typo = str(tmp_path / "typo")
        assert main(["cache", "stats", "--dir", typo]) == 1
        out, err = capsys.readouterr()
        assert out == "" and f"error: {typo} is not a directory" in err
        assert not os.path.exists(typo)
        # An existing empty directory is an empty store.
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["bytes"] == 0 and snap["root"] == str(tmp_path)

    def test_cache_gc_refuses_a_missing_directory(self, tmp_path, capsys):
        typo = str(tmp_path / "typo")
        assert main(["cache", "gc", typo]) == 1
        out, err = capsys.readouterr()
        assert out == "" and f"error: {typo} is not a directory" in err
        assert not os.path.exists(typo)
        assert main(["cache", "gc", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["scanned"] == 0

    @pytest.mark.parametrize("spec", ["daemon", "daemon:/tmp/d.sock"])
    def test_shared_cache_daemon_spec_is_refused(self, spec, unit,
                                                 tmp_path, capsys,
                                                 monkeypatch):
        # --shared-cache is gone: --cache DIR is the one on-disk cache.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["check", unit, "--shared-cache", spec])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --shared-cache" in err
        assert not (tmp_path / "daemon").exists()

    @pytest.mark.parametrize("spec", ["daemon", "daemon:/tmp/d.sock"])
    def test_serve_shared_cache_daemon_spec_is_refused(self, spec, tmp_path,
                                                       capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--socket", str(tmp_path / "s.sock"),
                  "--idle-timeout", "0.1", "--shared-cache", spec])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --shared-cache" in err
        assert not (tmp_path / "daemon").exists()


class TestObservability:
    def test_profile_output_shape(self, good_file, capsys):
        assert main(["check", good_file, "--profile"]) == 0
        err = capsys.readouterr().err
        assert "profile:" in err
        assert "context" in err and "ms" in err
        assert "check" in err
        assert "functions checked" in err
        assert "functions replayed" in err
        # GOOD is two chunks (the struct and main), both parsed fresh.
        assert "  chunks                 parsed 2 / reused 0\n" in err
        assert "  bodies                 parsed 1 of 1 functions\n" in err

    def test_profile_bodies_row_after_one_edit(self, tmp_path, capsys):
        # A fresh `--cache DIR` process after a one-constant edit parses
        # the edited function's body and no other.
        from repro.analysis import synthesize_program
        source = synthesize_program(12, seed=3)
        at = source.index("c.value += ", len(source) // 2)
        edited = source[:at] + "c.value += 4242" + \
            source[source.index(";", at):]
        path = tmp_path / "unit.vlt"
        cache = str(tmp_path / "cache")
        path.write_text(source)
        assert main(["check", str(path), "--cache", cache]) == 0
        path.write_text(edited)
        capsys.readouterr()
        assert main(["check", str(path), "--cache", cache,
                     "--profile"]) == 0
        err = capsys.readouterr().err
        assert "  bodies                 parsed 1 of 12 functions\n" in err

    def test_profile_chunks_row_after_one_chunk_edit(self):
        import io
        from repro.analysis import synthesize_program
        from repro.pipeline import CheckSession
        source = synthesize_program(12, seed=3)   # 13 chunks
        at = source.index("c.value += ", len(source) // 2)
        edited = source[:at] + "c.value += 4242" + \
            source[source.index(";", at):]
        session = CheckSession(units=["region"])
        session.check(source)
        session.check(edited)
        out = io.StringIO()
        assert cli._print_profile(session, out) == 0
        rows = [row for row in out.getvalue().splitlines()
                if row.strip().startswith("chunks")]
        # The last check parsed one chunk; the registry's hits are the
        # session's (none on the cold check, then 12).
        assert rows == ["  chunks                 parsed 1 / reused 12"]

    def test_profile_rows_of_cold_replayed_and_quarantined_checks(
            self, tmp_path, capsys):
        # Every row but the timings, as labels and values: a cold
        # check, a replay of its file record, and a cold check after
        # the record was corrupted and quarantined.
        from repro.analysis import synthesize_program
        unit = tmp_path / "unit.vlt"
        unit.write_text(synthesize_program(12, seed=5, error_rate=0.3))

        def rows(*flags):
            assert main(["check", str(unit), *flags]) == 1
            err = capsys.readouterr().err
            listed = err[err.index("profile:\n"):].splitlines()[1:]
            return [(row[2:24].rstrip(), row[25:]) for row in listed
                    if not row.endswith(" ms")]

        cold = [
            ("plan", "checked 12 of 12 function(s); context elaborated"),
            ("functions checked", "      12"),
            ("functions replayed", "       0"),
            ("chunks", "parsed 13 / reused 0"),
            ("bodies", "parsed 12 of 12 functions")]
        store = str(tmp_path / "store")
        assert rows("--cache", store, "--profile") == cold
        assert rows("--cache", store, "--profile") == [
            ("plan", "replayed whole unit (file record)"),
            ("functions checked", "       0"),
            ("functions replayed", "      12"),
            ("file record replays", "       1")]
        flipped = str(tmp_path / "flipped")
        assert main(["check", str(unit), "--cache", flipped,
                     "--inject-faults", "flip-cache"]) == 1
        capsys.readouterr()
        assert rows("--cache", flipped, "--profile") == \
            cold + [("cache quarantines", "       1")]

    def test_profile_plan_row_names_the_context_step(self, good_file,
                                                     capsys):
        # A cold check elaborates; in one session, a body edit reuses
        # the held context and a re-save holds it.
        import io
        from repro.analysis import synthesize_program
        from repro.pipeline import CheckSession
        assert main(["check", good_file, "--profile"]) == 0
        assert "; context elaborated\n" in capsys.readouterr().err
        source = synthesize_program(12, seed=3)
        at = source.index("c.value += ", len(source) // 2)
        edited = source[:at] + "c.value += 4242" + \
            source[source.index(";", at):]
        session = CheckSession(units=["region"])
        rows = []
        for text in (source, edited, edited):
            session.check(text)
            out = io.StringIO()
            cli._print_profile(session, out)
            rows += [row for row in out.getvalue().splitlines()
                     if row.strip().startswith("plan")]
        assert rows == [
            "  plan                   checked 12 of 12 function(s); "
            "context elaborated",
            "  plan                   checked 1 of 12 function(s); "
            "context reused",
            "  plan                   replayed whole unit; context held"]

    def test_trace_emits_valid_chrome_json(self, good_file, tmp_path,
                                           capsys):
        from repro.obs import validate_chrome_trace
        trace_path = str(tmp_path / "trace.json")
        assert main(["check", good_file, "--trace", trace_path]) == 0
        with open(trace_path) as handle:
            payload = json.load(handle)
        assert validate_chrome_trace(payload) == []
        events = payload["traceEvents"]
        for event in events:
            for key in ("name", "ph", "ts", "pid"):
                assert key in event
        names = {e["name"] for e in events}
        assert {"check_unit", "lex", "parse", "elaborate"} <= names

    def test_trace_written_even_for_rejected_program(self, leaky_file,
                                                     tmp_path, capsys):
        from repro.obs import validate_chrome_trace
        trace_path = str(tmp_path / "trace.json")
        assert main(["check", leaky_file, "--trace", trace_path]) == 1
        with open(trace_path) as handle:
            assert validate_chrome_trace(json.load(handle)) == []

    def test_metrics_table_on_stderr(self, good_file, capsys):
        assert main(["check", good_file, "--metrics", "-"]) == 0
        err = capsys.readouterr().err
        assert "metrics:" in err
        assert "cache.context.misses" in err
        assert "diagnostics" not in err  # clean program: no codes counted

    def test_metrics_json_file(self, leaky_file, tmp_path, capsys):
        metrics_path = str(tmp_path / "metrics.json")
        assert main(["check", leaky_file, "--metrics", metrics_path]) == 1
        with open(metrics_path) as handle:
            snap = json.load(handle)
        assert snap["cache.context.misses"]["value"] == 1
        assert snap["diagnostics.V0302"]["value"] >= 1
        assert snap["check.function_seconds"]["type"] == "histogram"

    def test_metrics_carry_the_session_gauges(self, good_file, tmp_path,
                                              capsys):
        from repro.pipeline import split_chunks
        metrics_path = str(tmp_path / "metrics.json")
        assert main(["check", good_file, "--metrics", metrics_path]) == 0
        with open(metrics_path) as handle:
            snap = json.load(handle)
        with open(good_file) as handle:
            chunks = len(split_chunks(handle.read()))
        assert snap["session.files"] == {"type": "gauge", "value": 1}
        assert snap["session.chunks_held"] == {"type": "gauge",
                                               "value": chunks}

    def test_tracing_is_off_by_default(self, good_file):
        # Metrics are always on (tests/test_pipeline.py checks them
        # against the session's totals); spans cost memory per
        # function, so a session records them only when asked.
        from repro.obs import NULL_TRACER
        from repro.pipeline import CheckSession
        session = CheckSession()
        with open(good_file) as handle:
            report = session.check(handle.read())
        assert report.ok
        assert session.telemetry.tracer is NULL_TRACER
        assert list(session.telemetry.tracer.events) == []


# ---------------------------------------------------------------------------
# The ``vaultc`` process: cli.run() (GC off and fast exit for ``check``)
# ---------------------------------------------------------------------------

#: modules of subcommands other than ``check``; ``import repro.cli``
#: must load none of them.
NOT_FOR_CHECK = ("repro.analysis", "repro.lower", "repro.runtime",
                 "repro.regions", "repro.stdlib.hostimpl", "repro.kernel",
                 "repro.sockets", "repro.drivers", "repro.server",
                 "repro.cache", "repro.pipeline", "repro.testing")

#: standard-library modules the check path must not load either:
#: building dataclasses at import cost a fresh check more than its
#: whole lex, parse and check of a small file.
STDLIB_NOT_FOR_CHECK = ("dataclasses",)

#: a ``sitecustomize`` that registers an exit handler, as the end-to-end
#: benchmark's peak-memory report and coverage.py do.
MARKER_SITE = """\
import atexit, os
_path = os.environ.get("VAULTC_TEST_MARKER")
def _mark():
    with open(_path, "w") as handle:
        handle.write("ran")
if _path:
    atexit.register(_mark)
"""


def vaultc_process(args, env=None, **kwargs):
    """``vaultc ARGS`` in a fresh process, with block-buffered stdout
    unless ``env`` says otherwise."""
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env={**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": "",
             **(env or {})},
        capture_output=True, timeout=120, **kwargs)


@pytest.fixture
def marker_env(tmp_path):
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(MARKER_SITE)
    marker = tmp_path / "marker"
    return marker, {"PYTHONPATH": os.pathsep.join([SRC, str(site)]),
                    "VAULTC_TEST_MARKER": str(marker)}


class TestProcess:
    def test_import_loads_only_what_check_needs(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; print(' '.join(sorted(sys.modules)))"],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
            text=True, timeout=60, check=True)
        loaded = [name for name in proc.stdout.split()
                  if any(name == banned or name.startswith(banned + ".")
                         for banned in NOT_FOR_CHECK)]
        loaded += [name for name in proc.stdout.split()
                   if name in STDLIB_NOT_FOR_CHECK]
        assert loaded == []

    @pytest.mark.parametrize("which", ["good", "leaky", "missing"])
    def test_fresh_check_matches_in_process_main(self, which, good_file,
                                                  leaky_file, tmp_path,
                                                  capsys):
        path = {"good": good_file, "leaky": leaky_file,
                "missing": str(tmp_path / "missing.vlt")}[which]
        code = main(["check", path])
        expected = capsys.readouterr().out
        proc = vaultc_process(["check", path], text=True)
        assert (proc.returncode, proc.stdout) == (code, expected)

    def test_exit_handlers_still_run(self, leaky_file, marker_env):
        marker, env = marker_env
        proc = vaultc_process(["check", leaky_file], env=env)
        assert proc.returncode == 1
        assert marker.read_text() == "ran"

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("which", ["good", "leaky"])
    def test_closed_reader_exits_1_without_traceback(
            self, which, unbuffered, good_file, leaky_file, marker_env):
        # The read end is closed before the child prints anything, as
        # a reader that exits at once would.
        marker, env = marker_env
        env["PYTHONUNBUFFERED"] = unbuffered
        read_end, write_end = os.pipe()
        try:
            child = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "check",
                 good_file if which == "good" else leaky_file],
                env={**os.environ, **env}, stdout=write_end,
                stderr=subprocess.PIPE)
        finally:
            os.close(read_end)
            os.close(write_end)
        _, stderr = child.communicate(timeout=120)
        assert child.returncode == 1
        assert b"BrokenPipeError" not in stderr
        assert b"Traceback" not in stderr
        assert marker.read_text() == "ran"

    def test_in_process_main_keeps_gc_and_returns(self, good_file, capsys):
        assert gc.isenabled()
        assert main(["check", good_file]) == 0
        assert gc.isenabled()

    def test_other_subcommands_keep_gc_and_exit_normally(
            self, good_file, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["vaultc", "fmt", good_file])
        with pytest.raises(SystemExit) as exit_info:
            cli.run()
        assert exit_info.value.code == 0
        assert gc.isenabled()
        assert "struct point" in capsys.readouterr().out
