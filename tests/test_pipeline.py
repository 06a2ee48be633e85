"""Tests for the incremental checking pipeline.

Covers the three layers of :mod:`repro.pipeline`:

* the chunk splitter (textual declaration boundaries + fallback);
* the summary cache (precise invalidation: body edits, callee effect
  edits and stateset edits each invalidate exactly the dependents);
* the session itself (equivalence with ``check_source``, the accepted
  and ignored ``jobs`` option, on-disk persistence across processes).
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import pytest

from repro import check_source
from repro.analysis import synthesize_program
from repro.core import program_cfgs
from repro.pipeline import CheckSession, ChunkError, split_chunks
from repro.stdlib import stdlib_context
from repro.syntax import parse_program
from repro.testing import canonical_stdout

UNITS = ["region"]

#: A unit exercising every dependency edge the fingerprint must track:
#: ``caller`` depends on ``advance``'s effect clause, which depends on
#: the global key ``GK``, which depends on the stateset ``L``;
#: ``bystander`` depends on none of them.
PROTO = """\
stateset L = [ lo < hi ];
key GK @ L;

void advance() [GK @ lo -> hi];

void caller() [GK @ lo -> hi] {
    advance();
}

int bystander(int x) {
    int y = x + 1;
    return y;
}
"""


def fresh_session(**kwargs):
    kwargs.setdefault("units", UNITS)
    return CheckSession(**kwargs)


# ---------------------------------------------------------------------------
# Chunk splitting
# ---------------------------------------------------------------------------

class TestSplitChunks:
    def test_concatenation_reproduces_source(self):
        source = synthesize_program(20, seed=7)
        chunks = split_chunks(source)
        assert "".join(c.text for c in chunks) == source
        assert len(chunks) == 21  # struct cell + 20 functions

    def test_positions_match_parse(self):
        source = PROTO
        chunks = split_chunks(source)
        # Re-parsing each chunk at its recorded position must give the
        # same declarations (with the same spans) as a whole parse.
        whole = parse_program(source, "u.vlt")
        partial = []
        for chunk in chunks:
            prog = parse_program(chunk.text, "u.vlt",
                                 first_line=chunk.start_line,
                                 first_col=chunk.start_col)
            partial.extend(prog.decls)
        assert len(partial) == len(whole.decls)
        for a, b in zip(partial, whole.decls):
            assert a.span.start.line == b.span.start.line
            assert a.span.start.col == b.span.start.col

    def test_braces_in_strings_and_chars_ignored(self):
        source = 'void f() { string s = "}{"; char c = \'{\'; }\nvoid g() { }\n'
        chunks = split_chunks(source)
        assert len(chunks) == 2
        assert chunks[1].text.lstrip().startswith("void g")

    def test_ctor_tick_is_not_a_char_literal(self):
        source = "void f() { state = 'Open; }\nvoid g() { }\n"
        assert len(split_chunks(source)) == 2

    def test_unterminated_comment_raises(self):
        with pytest.raises(ChunkError):
            split_chunks("void f() { } /* never closed")

    def test_unbalanced_braces_raise(self):
        with pytest.raises(ChunkError):
            split_chunks("void f() { { }")

    def test_fallback_matches_plain_check(self):
        # A splitter-hostile unit must behave identically (the session
        # falls back to whole-unit parsing, which raises the same
        # error as the non-incremental path).
        source = "void f() { }\n/* open"
        session = fresh_session()
        with pytest.raises(Exception) as session_err:
            session.check(source)
        with pytest.raises(Exception) as plain_err:
            check_source(source, units=UNITS)
        assert str(session_err.value) == str(plain_err.value)


# ---------------------------------------------------------------------------
# Summary invalidation
# ---------------------------------------------------------------------------

class TestInvalidation:
    def test_body_edit_invalidates_only_that_function(self):
        session = fresh_session()
        session.check(PROTO)
        edited = PROTO.replace("int y = x + 1;", "int y = x + 2;")
        session.check(edited)
        assert session.stats.last_checked == ["bystander"]
        assert "caller" in session.stats.last_replayed

    def test_callee_effect_edit_invalidates_caller(self):
        session = fresh_session()
        session.check(PROTO)
        edited = PROTO.replace("void advance() [GK @ lo -> hi];",
                               "void advance() [GK @ lo];")
        session.check(edited)
        assert "caller" in session.stats.last_checked
        assert "bystander" not in session.stats.last_checked
        assert "bystander" in session.stats.last_replayed

    def test_stateset_edit_invalidates_dependents(self):
        session = fresh_session()
        session.check(PROTO)
        edited = PROTO.replace("stateset L = [ lo < hi ];",
                               "stateset L = [ lo < mid < hi ];")
        session.check(edited)
        assert "caller" in session.stats.last_checked
        assert "bystander" not in session.stats.last_checked

    def test_unrelated_edit_replays_everything(self):
        session = fresh_session()
        session.check(PROTO)
        # Pure trivia above the unit shifts every span but changes no
        # fingerprint: every summary must replay.
        session.check("// a comment\n" + PROTO)
        assert session.stats.last_checked == []

    def test_diagnostics_replay_with_spans(self):
        leaky = """\
void leak() {
    tracked(R) region rgn = Region.create();
}
"""
        session = fresh_session()
        first = session.check(leaky).render()
        assert session.stats.last_checked == ["leak"]
        second = session.check(leaky).render()
        assert session.stats.last_checked == []
        assert first == second
        assert first == check_source(leaky, units=UNITS).render()


# ---------------------------------------------------------------------------
# Session equivalence
# ---------------------------------------------------------------------------

class TestSessionEquivalence:
    @pytest.mark.parametrize("seed,error_rate", [(1, 0.0), (2, 0.25),
                                                 (3, 0.5)])
    def test_serial_matches_check_source(self, seed, error_rate):
        source = synthesize_program(30, seed=seed, error_rate=error_rate)
        expected = check_source(source, units=UNITS).render()
        session = fresh_session()
        assert session.check(source).render() == expected
        # ... and again, fully from cache.
        assert session.check(source).render() == expected

    @pytest.mark.parametrize("seed,error_rate", [(4, 0.0), (5, 0.3)])
    def test_parallel_output_byte_identical(self, seed, error_rate):
        # Asking for workers must not change a byte of the output: the
        # check is serial whatever ``jobs`` says, and a repeat of the
        # same source replays every function from the summary cache.
        source = synthesize_program(30, seed=seed, error_rate=error_rate)
        expected = check_source(source, units=UNITS).render()
        with fresh_session(jobs=2) as session:
            assert session.check(source).render() == expected
            checked = session.stats.functions_checked
            assert checked > 0
            assert session.check(source).render() == expected
            assert session.stats.functions_checked == checked
            assert session.stats.functions_replayed >= checked

    def test_jobs_is_accepted_and_ignored_without_forking(
            self, tmp_path, monkeypatch, capsys):
        # ``vaultc check --jobs auto --cache DIR``, ``CheckSession(jobs=)``
        # and ``check_source(jobs=)`` stay accepted for old callers; each
        # must print exactly what a plain check prints and never fork.
        from repro.cli import main
        source = synthesize_program(160, seed=21, error_rate=0.2)
        target = tmp_path / "unit.vlt"
        target.write_text(source)
        assert main(["check", str(target)]) == 1
        plain = capsys.readouterr().out

        def no_fork():
            raise AssertionError("the checker must not fork")

        monkeypatch.setattr(os, "fork", no_fork)
        assert main(["check", str(target), "--jobs", "auto",
                     "--cache", str(tmp_path / "cache")]) == 1
        assert capsys.readouterr().out == plain
        with CheckSession(jobs=2) as session:
            report = session.check(source, str(target))
        assert canonical_stdout(report.ok, report.render(),
                                len(report.errors), str(target)) == plain
        assert check_source(source, str(target), jobs="auto").render() \
            == report.render()
        with pytest.raises(SystemExit):
            main(["check", str(target), "--jobs", "garbage"])
        assert "invalid --jobs value 'garbage'" in capsys.readouterr().err

    def test_syntax_error_behaves_like_check_source(self):
        source = "void f() { int x = ; }"
        session = fresh_session()
        with pytest.raises(Exception) as session_err:
            session.check(source)
        with pytest.raises(Exception) as plain_err:
            check_source(source, units=UNITS)
        assert str(session_err.value) == str(plain_err.value)

    def test_jobs_argument_overrides_default(self):
        source = synthesize_program(8, seed=6)
        expected = check_source(source, units=UNITS).render()
        session = fresh_session(jobs=4)
        assert session.check(source, jobs=1).render() == expected


# ---------------------------------------------------------------------------
# On-disk persistence
# ---------------------------------------------------------------------------

class TestPersistence:
    def test_round_trip(self, tmp_path):
        source = synthesize_program(12, seed=9, error_rate=0.3)
        cache = str(tmp_path / "cache")
        first = fresh_session(cache_dir=cache)
        expected = first.check(source).render()
        assert first.stats.functions_checked > 0

        second = fresh_session(cache_dir=cache)
        assert second.check(source).render() == expected
        assert second.stats.last_checked == []
        assert second.stats.functions_replayed > 0

    def test_corrupt_cache_is_ignored(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "summaries.pkl").write_bytes(b"not a pickle")
        source = synthesize_program(4, seed=10)
        session = fresh_session(cache_dir=str(cache))
        assert session.check(source).render() == \
            check_source(source, units=UNITS).render()


# ---------------------------------------------------------------------------
# Shared infrastructure the pipeline leans on
# ---------------------------------------------------------------------------

class TestSharedState:
    def test_stdlib_context_is_cached_and_unharmed(self):
        base1, diags1 = stdlib_context(tuple(UNITS))
        source = synthesize_program(6, seed=11)
        check_source(source, units=UNITS)
        base2, diags2 = stdlib_context(tuple(UNITS))
        assert base1 is base2
        assert diags1 == diags2
        # Layering user programs on the cached base must not leak user
        # declarations back into it.
        assert "bystander" not in base1.functions
        assert all(not name.startswith("worker_")
                   for name in base1.functions)

    def test_repeated_checks_are_equivalent(self):
        source = PROTO
        renders = {check_source(source, units=UNITS).render()
                   for _ in range(3)}
        assert len(renders) == 1

    def test_reverse_postorder_well_formed(self):
        source = """\
int f(int n) {
    int acc = 0;
    while (n > 0) {
        if (n % 2 == 0) {
            acc += n;
        } else {
            acc -= n;
        }
        n = n - 1;
    }
    return acc;
}
"""
        cfg = program_cfgs(parse_program(source))["f"]
        rpo = cfg.reverse_postorder()
        ids = [b.id for b in rpo]
        assert ids[0] == cfg.entry.id
        assert len(ids) == len(set(ids))
        index = {bid: i for i, bid in enumerate(ids)}
        # Every edge that is not a back edge goes forward in RPO.
        forward = sum(1 for b in rpo for t, _ in b.succs
                      if index[b.id] < index.get(t.id, -1))
        assert forward > 0


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------

class TestTelemetry:
    def test_last_profile_is_a_view_of_telemetry(self):
        session = fresh_session()
        session.check(PROTO)
        assert session.last_profile is session.telemetry.profile
        assert session.telemetry.stats is session.stats
        assert "total_seconds" in session.last_profile
        assert "aborted" not in session.last_profile

    def test_aborted_check_marks_profile(self, monkeypatch):
        session = fresh_session()

        def boom(*args, **kwargs):
            raise RuntimeError("injected abort")

        monkeypatch.setattr(session, "_context_for", boom)
        with pytest.raises(RuntimeError, match="injected abort"):
            session.check(PROTO)
        profile = session.last_profile
        assert profile["aborted"] is True
        assert profile["error"] == "RuntimeError: injected abort"
        assert profile["total_seconds"] >= 0.0
        aborts = session.telemetry.events.by_kind("check_aborted")
        assert len(aborts) == 1
        assert "injected abort" in aborts[0].fields["error"]
        # The session recovers: the next check starts a fresh profile.
        monkeypatch.undo()
        report = session.check(PROTO)
        assert report.ok
        assert "aborted" not in session.last_profile


# ---------------------------------------------------------------------------
# Session reuse: a CheckSession is a long-lived object (the daemon
# keeps them warm for hours), so nothing from one check() may bleed
# into the next.
# ---------------------------------------------------------------------------

class TestSessionReuse:
    def test_same_text_under_two_file_names_reports_each_name(self):
        # Parsed chunks carry their file name in every span, so the
        # chunk caches must key on it: a hit across files would name
        # a.vlt in b.vlt's diagnostics.
        source = synthesize_program(3, seed=3, error_rate=1.0)
        with CheckSession() as session:
            first = session.check(source, "a.vlt").render()
            second = session.check(source, "b.vlt").render()
        assert first == check_source(source, "a.vlt").render()
        assert second == check_source(source, "b.vlt").render()
        assert "a.vlt" not in second

    def test_back_to_back_checks_do_not_accumulate_diagnostics(self):
        clean = synthesize_program(3, seed=1)
        buggy = synthesize_program(3, seed=2, error_rate=1.0)
        with fresh_session() as session:
            first = session.check(buggy, "buggy.vlt")
            second = session.check(clean, "clean.vlt")
            third = session.check(buggy, "buggy.vlt")
        assert not first.ok and second.ok
        # A fresh check of the same sources must agree exactly: no
        # carried-over diagnostics, in either direction.
        assert second.render() == \
            check_source(clean, "clean.vlt", units=UNITS).render()
        assert third.render() == first.render()
        assert len(third.diagnostics) == len(first.diagnostics)

    def test_replay_profile_has_no_stale_check_seconds(self):
        with fresh_session() as session:
            session.check(PROTO, "p.vlt")
            assert "check_seconds" in session.last_profile
            session.check(PROTO, "p.vlt")         # whole-unit replay
            profile = session.last_profile
        assert profile["plan"] == "replayed whole unit"
        assert "check_seconds" not in profile, \
            "replay left the previous run's timing in the profile"

    def test_interleaved_sources_replay_from_their_own_caches(self):
        a = synthesize_program(4, seed=3)
        b = synthesize_program(4, seed=4)
        with fresh_session() as session:
            session.check(a, "a.vlt")
            session.check(b, "b.vlt")
            session.check(a, "a.vlt")
            session.check(b, "b.vlt")
            assert session.stats.checks == 4
            # Rounds three and four re-check nothing.
            assert session.stats.functions_checked == 8  # 2 * 4 workers
            assert session.stats.last_checked == []

    def test_summary_cache_is_bounded(self, monkeypatch):
        import repro.pipeline.session as session_mod
        monkeypatch.setattr(session_mod, "_MAX_SUMMARIES", 6)
        with fresh_session() as session:
            for seed in range(4):
                session.check(synthesize_program(4, seed=seed),
                              f"s{seed}.vlt")
            assert len(session._summaries) <= 6
            # Eviction must not corrupt checking: a fresh source still
            # produces the independent result.
            probe = synthesize_program(2, seed=99, error_rate=1.0)
            assert session.check(probe, "probe.vlt").render() == \
                check_source(probe, "probe.vlt", units=UNITS).render()

    def test_replay_does_not_rewrite_the_disk_cache(self, tmp_path):
        import os
        source = synthesize_program(5, seed=8)
        cache_dir = tmp_path / "cache"
        with fresh_session(cache_dir=str(cache_dir)) as session:
            session.check(source, "unit.vlt")
        cache_file = cache_dir / "summaries.pkl"
        assert cache_file.exists()
        stamp = os.stat(cache_file)
        blob = cache_file.read_bytes()
        with fresh_session(cache_dir=str(cache_dir)) as session:
            session.check(source, "unit.vlt")     # pure replay
            assert session.stats.functions_checked == 0
        after = os.stat(cache_file)
        assert cache_file.read_bytes() == blob
        assert (after.st_mtime_ns, after.st_ino) == \
            (stamp.st_mtime_ns, stamp.st_ino), \
            "a replay-only session rewrote an unchanged cache file"


# ---------------------------------------------------------------------------
# Front-end caches: token streams, relex splicing, eviction tracing
# ---------------------------------------------------------------------------


class TestFrontEndCaches:
    def _edit(self, source):
        at = source.index("c.value += ", len(source) // 2)
        end = source.index(";", at)
        return source[:at] + "c.value += 4242" + source[end:]

    def test_token_cache_serves_unchanged_chunks_on_edit(self):
        from repro.obs import Telemetry
        source = synthesize_program(12, seed=3)
        session = fresh_session(telemetry=Telemetry(metrics=True))
        session.check(source, "unit.vlt")
        assert session.stats.token_hits == 0
        hits0 = session.stats.token_hits
        session.check(self._edit(source), "unit.vlt")
        assert session.stats.token_hits > hits0, \
            "unchanged chunks must be served from the token cache"
        snapshot = session.telemetry.metrics.snapshot()
        assert snapshot["cache.tokens.hits"]["value"] == \
            session.stats.token_hits

    def test_edit_takes_relex_splice_path(self):
        source = synthesize_program(12, seed=3)
        session = fresh_session()
        session.check(source, "unit.vlt")
        edited = self._edit(source)
        report = session.check(edited, "unit.vlt")
        assert session.stats.relex_splices >= 1
        assert session.stats.relex_fallbacks == 0
        assert report.render() == \
            check_source(edited, "unit.vlt", units=UNITS).render(), \
            "spliced-token output must match a from-scratch check"

    def test_token_cache_eviction_is_traced(self, monkeypatch):
        from repro.obs import Telemetry
        from repro.pipeline import session as session_mod
        monkeypatch.setattr(session_mod, "_MAX_TOKEN_STREAMS", 4)
        session = fresh_session(telemetry=Telemetry(metrics=True))
        session.check(synthesize_program(12, seed=3), "unit.vlt")
        snapshot = session.telemetry.metrics.snapshot()
        assert snapshot["cache.tokens.evictions"]["value"] > 0
        events = session.telemetry.events.by_kind("cache_evict")
        assert any(e.fields["layer"] == "tokens" for e in events)
        evicted = sum(e.fields["evicted"] for e in events
                      if e.fields["layer"] == "tokens")
        assert evicted == snapshot["cache.tokens.evictions"]["value"]


# ---------------------------------------------------------------------------
# Cross-process summary persistence
# ---------------------------------------------------------------------------

_WRITER = """\
import sys
from repro.pipeline import CheckSession
from repro.analysis import synthesize_program

source = synthesize_program(20, seed=9, error_rate=0.2)
session = CheckSession(units=["region"], cache_dir=sys.argv[1])
session.check(source)
assert session.stats.functions_checked > 0
print(session.stats.functions_checked)
"""


class TestCrossProcessPersistence:
    def test_cache_written_by_subprocess_replays_in_parent(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        env = dict(os.environ)
        src_root = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src_root) \
            + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _WRITER, cache_dir],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        checked_in_child = int(proc.stdout.strip())

        source = synthesize_program(20, seed=9, error_rate=0.2)
        session = CheckSession(units=UNITS, cache_dir=cache_dir)
        report = session.check(source)
        # Zero functions re-checked: every summary replayed from the
        # cache the other interpreter wrote.
        assert session.stats.functions_checked == 0
        assert session.stats.last_checked == []
        assert session.stats.functions_replayed == checked_in_child
        assert report.render() == check_source(source, units=UNITS).render()

    def test_version1_cache_payload_still_loads(self, tmp_path):
        source = synthesize_program(5, seed=2)
        writer = CheckSession(units=UNITS, cache_dir=str(tmp_path))
        writer.check(source)
        path = os.path.join(str(tmp_path), "summaries.pkl")
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        inner = pickle.loads(payload["data"])
        assert set(inner) == {"summaries"}        # no scheduler costs
        with open(path, "wb") as handle:
            pickle.dump({"version": 1, "summaries": inner["summaries"]},
                        handle)
        reader = CheckSession(units=UNITS, cache_dir=str(tmp_path))
        reader.check(source)
        assert reader.stats.functions_checked == 0
