"""Tests for the incremental checking pipeline.

Covers the three layers of :mod:`repro.pipeline`:

* the chunk splitter (textual declaration boundaries + fallback);
* the summary cache (precise invalidation: body edits, callee effect
  edits and stateset edits each invalidate exactly the dependents);
* the session itself (equivalence with ``check_source``, the accepted
  and ignored ``jobs`` option, on-disk persistence across processes).
"""

from __future__ import annotations

import collections
import hashlib
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import check_source, load_context
from repro.analysis import synthesize_program
from repro.core import check_function_diagnostics, program_cfgs
from repro.diagnostics import Note, VaultError
from repro.pipeline import CheckSession, ChunkError, split_chunks
from repro.stdlib import STDLIB_UNITS, stdlib_context, stdlib_source
from repro.syntax import ast, parse_program, tokenize
from repro.syntax.tokens import T
from repro.testing import canonical_stdout, generate_program
from repro.testing.edits import edit_sequence

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

    def test_brace_and_end_mark_the_body(self):
        chunks = split_chunks(PROTO + "// trailing\n")
        bodies = [c.text[c.brace:c.end] for c in chunks if c.brace >= 0]
        assert bodies == ["{\n    advance();\n}",
                          "{\n    int y = x + 1;\n    return y;\n}"]
        assert all(c.end == len(c.text) for c in chunks[:-1])
        last = chunks[-1]
        assert last.text[last.end:] == "\n// trailing\n"

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

    def test_key_lists_in_variant_brackets_do_not_split(self):
        variant = ("variant tape0_ev<key K> [ 'Tape0Go {K@q2} | "
                   "'Tape0Halt(int) {K@q1} ];")
        chunks = split_chunks(variant + "\nvoid f() { }\n")
        assert [c.text for c in chunks] == [variant, "\nvoid f() { }\n"]
        assert chunks[0].brace == -1, "a key list is not a body"
        assert chunks[1].brace == chunks[1].text.index("{")

    @pytest.mark.parametrize("source", ["variant v<key K> [ 'A {K@q} ;",
                                        "variant v<key K> 'A {K@q} ];"])
    def test_unbalanced_brackets_raise(self, source):
        with pytest.raises(ChunkError):
            split_chunks(source)

    def test_generated_programs_never_take_the_whole_unit_parse(self):
        # Every generate_program seed splits into chunks, keyed
        # variants included, on the first check and the warm re-check.
        from repro.testing import generate_program
        session = CheckSession()
        sources = [generate_program(seed).source for seed in range(100)]
        for _ in range(2):
            for seed, source in enumerate(sources):
                session.check(source, f"gen-{seed}.vlt")
        assert session.stats.whole_parses == 0

    # The other ChunkError cases have their own tests above.
    @pytest.mark.parametrize("source, message", [
        ("void f() { } }", "unbalanced braces"),
        ('void f() { string s = "a\nb"; }', "newline in string literal"),
        ('void f() { string s = "open', "unterminated string literal"),
        ("void f() { int x = ' ; }", "stray tick"),
    ])
    def test_literal_and_closing_brace_errors_raise(self, source, message):
        with pytest.raises(ChunkError, match=message):
            split_chunks(source)

    def test_split_matches_the_lexer_on_the_corpus(self):
        # Concatenated, the chunks are the source; each starts at the
        # line and column of its offset (only ``\n`` ends a line); and
        # each chunk's terminator and first body brace are the tokens
        # the lexer finds at depth zero.
        corpus = _split_corpus()
        for name, source in corpus:
            chunks = split_chunks(source)
            assert "".join(c.text for c in chunks) == source, name
            _assert_chunks_match(source, chunks, name)
        assert len(corpus) > 200

    @pytest.mark.parametrize("source, texts", [
        # char literals holding braces, inside a body
        ("void f() {\n  char a = '{';\n  char b = '}';\n}\nvoid g() { }\n",
         ["void f() {\n  char a = '{';\n  char b = '}';\n}",
          "\nvoid g() { }\n"]),
        # a brace in a line comment and a multi-line block comment,
        # inside a body and between chunks
        ("void f() {\n  // }\n  /* }\n } */\n}\n// }\n/* {\n*/void g() { }",
         ["void f() {\n  // }\n  /* }\n } */\n}",
          "\n// }\n/* {\n*/void g() { }"]),
        # brackets and semicolons inside a body
        ("void f() { int[2] a; a[0] = 1; }\nint x;\n",
         ["void f() { int[2] a; a[0] = 1; }", "\nint x;\n"]),
        # a keyed variant's key lists at depth zero
        ("variant v<key K> [\n  'A {K@q0} |\n  'B {K@q1} ];\nvoid f() { }",
         ["variant v<key K> [\n  'A {K@q0} |\n  'B {K@q1} ];",
          "\nvoid f() { }"]),
        # CRLF and form-feed lines: only \n ends a line
        ("int x;\r\n// \f page\nvoid f() {\r\n}\r\n/*\f*/int y;",
         ["int x;", "\r\n// \f page\nvoid f() {\r\n}",
          "\r\n/*\f*/int y;"]),
    ])
    def test_hand_written_boundaries(self, source, texts):
        chunks = split_chunks(source)
        assert [c.text for c in chunks] == texts
        _assert_chunks_match(source, chunks, source)

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


def _split_view(source, held=()):
    """What a split of ``source`` gives: each chunk's text, position,
    body brace and end, or ``"ChunkError"``."""
    try:
        chunks = split_chunks(source, held)
    except ChunkError:
        return "ChunkError"
    return [(c.text, c.start_line, c.start_col, c.brace, c.end)
            for c in chunks]


def _assert_splice_is_cold(old, new):
    """Splicing ``old``'s split into ``new`` equals ``new``'s cold
    split; returns the spliced chunks (``None`` on a ChunkError)."""
    held = split_chunks(old)
    for chunk in held:
        chunk.digest()
    assert _split_view(new, held) == _split_view(new), (old, new)
    try:
        return split_chunks(new, held)
    except ChunkError:
        return None


#: what the random edits insert: every token that changes the scanner's
#: state, plus newlines.
_SPLICE_TOKENS = ("/*", "*/", "//", '"', "'a'", "'{'", "'Ab", "{", "}",
                  "[", "]", ";", "\n")


class TestSpliceChunks:
    """A split spliced from the held revision's split equals a cold
    split of the new source, chunk for chunk, ChunkError included."""

    def test_every_edit_sequence_pair(self):
        pairs = 0
        for seed in range(40):
            revisions = edit_sequence(seed, 12)
            for old, new in zip(revisions, revisions[1:]):
                if _split_view(old.source) == "ChunkError":
                    continue
                _assert_splice_is_cold(old.source, new.source)
                pairs += 1
        assert pairs > 300

    def test_random_small_edits(self):
        rng = random.Random(2026)
        for seed in range(60):
            source = generate_program(seed).source
            held = split_chunks(source)
            for _ in range(12):
                at = rng.randrange(len(source) + 1)
                if rng.random() < 0.6:
                    new = source[:at] + rng.choice(_SPLICE_TOKENS) \
                        + source[at:]
                else:
                    new = source[:at] + source[at + rng.randint(1, 3):]
                assert _split_view(new, held) == _split_view(new), new
                if _split_view(new) != "ChunkError":
                    # splice the next edit from this one's splice
                    source, held = new, split_chunks(new, held)

    def test_a_block_comment_swallows_later_chunks(self):
        at = PROTO.index("void caller")
        opened = PROTO[:at] + "/*" + PROTO[at:]
        assert _split_view(opened) == "ChunkError"
        _assert_splice_is_cold(PROTO, opened)
        end = PROTO.index("int bystander")
        closed = opened[:end + 2] + "*/" + opened[end + 2:]
        chunks = _assert_splice_is_cold(PROTO, closed)
        assert len(chunks) == len(split_chunks(PROTO)) - 1
        # and the comment closed again
        _assert_splice_is_cold(closed, PROTO)

    def test_an_edit_in_the_trailing_trivia(self):
        old = PROTO + "// trailing\n\n"
        for new in (PROTO + "// trailing, edited\n\n", PROTO,
                    PROTO + "// trailing\nint late;\n"):
            _assert_splice_is_cold(old, new)
            _assert_splice_is_cold(new, old)

    def test_a_resync_on_the_same_line_shifts_columns(self):
        old = "int a; int b; int c;\nvoid f() {\n}\nint d;\n"
        new = "int aaa; int b; int c;\nvoid f() {\n}\nint d;\n"
        chunks = _assert_splice_is_cold(old, new)
        # the chunks on the edited line move right; ``int d;`` does not
        assert [(c.start_line, c.start_col) for c in chunks] == \
            [(1, 1), (1, 9), (1, 16), (1, 23), (3, 2)]
        assert [c.sha is None for c in chunks] == \
            [True, False, False, False, False], \
            "only the edited chunk is scanned"

    def test_an_empty_edit_scans_nothing(self):
        source = synthesize_program(20, seed=7)
        chunks = _assert_splice_is_cold(source, source)
        assert all(c.sha is not None for c in chunks)

    def test_a_body_edit_scans_one_chunk(self):
        source = synthesize_program(40, seed=7)
        chunks = _assert_splice_is_cold(source, _body_edit(source))
        assert sum(c.sha is None for c in chunks) == 1


def _split_corpus():
    """(name, source) pairs the splitter must agree with the lexer on:
    the examples, every stdlib unit, 200 generated programs and
    synthesized units."""
    examples = Path(__file__).resolve().parent.parent / "examples"
    corpus = [(path.name, path.read_text())
              for path in sorted(examples.glob("*.vlt"))]
    corpus += [(f"<stdlib:{unit}>", stdlib_source(unit))
               for unit in STDLIB_UNITS]
    corpus += [(f"gen{seed}", generate_program(seed).source)
               for seed in range(200)]
    corpus += [(f"syn{n}", synthesize_program(n, seed=n, error_rate=0.3))
               for n in (1, 20, 160)]
    return corpus


def _assert_chunks_match(source, chunks, name):
    """Each chunk's position is its offset's line and column, and its
    ``brace`` and ``end`` are the offsets of the first depth-zero
    ``{`` outside brackets and just past the terminating ``;``/``}``,
    as read off the lexer's tokens of the whole unit."""
    expected = []
    start, brace, depth, brackets = 0, -1, 0, 0
    for tok in tokenize(source):
        if tok.kind is T.LBRACE:
            if depth == brackets == 0 and brace < 0:
                brace = tok.offset - start
            depth += 1
        elif tok.kind is T.RBRACE:
            depth -= 1
        elif tok.kind is T.LBRACKET and depth == 0:
            brackets += 1
        elif tok.kind is T.RBRACKET and depth == 0:
            brackets -= 1
        if depth == brackets == 0 and tok.kind in (T.SEMI, T.RBRACE):
            expected.append((start, brace, tok.end_offset - start))
            start, brace = tok.end_offset, -1
    offset = 0
    got = []
    for chunk in chunks:
        line = source.count("\n", 0, offset) + 1
        col = offset - source.rfind("\n", 0, offset)
        assert (chunk.start_line, chunk.start_col) == (line, col), name
        got.append((offset, chunk.brace, chunk.end))
        offset += len(chunk.text)
    assert got == expected, name


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
        report = check_source(source, units=UNITS)
        expected = report.render()
        session = fresh_session()
        first = session.check(source)
        assert first.render() == expected
        # The same diagnostics by value, not only by rendering: a
        # chunked parse must give every position the unit's numbering.
        assert first.diagnostics == report.diagnostics
        # ... and again, fully from cache.
        again = session.check(source)
        assert again.render() == expected
        assert again.diagnostics == report.diagnostics

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

    def test_corrupt_cache_is_ignored(self, tmp_path, capfd):
        cache = str(tmp_path / "cache")
        record = fresh_session(cache_dir=cache).record_path()
        os.makedirs(os.path.dirname(record))
        with open(record, "wb") as handle:
            handle.write(b"not a record")
        source = synthesize_program(4, seed=10)
        session = fresh_session(cache_dir=cache)
        assert session.check(source).render() == \
            check_source(source, units=UNITS).render()
        assert _counters(session)["resilience.cache_quarantines"] == 1
        capfd.readouterr()


# ---------------------------------------------------------------------------
# Shared infrastructure the pipeline leans on
# ---------------------------------------------------------------------------

class TestSharedState:
    def test_the_stdlib_defines_no_function(self):
        # A session holds each function's result on its FunDef node;
        # that is private to the session only while every checked node
        # comes from the checked file, never from the shared base.
        assert not stdlib_context(tuple(STDLIB_UNITS))[0].fun_defs

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

    def test_metrics_agree_with_session_stats(self):
        # SessionStats keeps one twin of a registry counter, the chunks
        # parsed (the frozen end-to-end workload reads it): it must
        # equal ``cache.chunk_ast.misses`` after a cold check, a body
        # edit, a re-save of the edit and a blank line that moves the
        # trailing declaration.
        source = synthesize_program(12, seed=3, error_rate=0.3) \
            + "struct spare { int a; }\n"
        session = fresh_session()
        for text in (source, _body_edit(source), _body_edit(source),
                     _blank_in_body(_body_edit(source), "worker_9")):
            session.check(text, "unit.vlt")
        counters = _counters(session)
        assert counters["cache.chunk_ast.hits"]
        assert counters["cache.chunk_ast.misses"] == \
            session.stats.chunk_parses


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

    def test_replay_does_not_rewrite_the_disk_cache(self, tmp_path):
        import os
        source = synthesize_program(5, seed=8)
        cache_dir = tmp_path / "cache"
        with fresh_session(cache_dir=str(cache_dir)) as session:
            session.check(source, "unit.vlt")
        cache_file = Path(session.record_path("unit.vlt"))
        assert cache_file.exists()
        stamp = os.stat(cache_file)
        blob = cache_file.read_bytes()
        with fresh_session(cache_dir=str(cache_dir)) as session:
            session.check(source, "unit.vlt")     # pure replay
            assert session.stats.functions_checked == 0
        after = os.stat(cache_file)
        assert cache_file.read_bytes() == blob
        # A read freshens the record's mtime (the store's GC is LRU), so
        # the inode is the witness: every write lands by os.replace
        # from a fresh temp file.
        assert after.st_ino == stamp.st_ino, \
            "a replay-only session rewrote an unchanged cache file"


# ---------------------------------------------------------------------------
# Position-free summaries: a function's diagnostics are stored relative
# to the function and replay wherever it moves
# ---------------------------------------------------------------------------

_POSITION = re.compile(r":\d+:\d+")


def _invariant_corpus():
    """(name, source) pairs: the examples, 200 generated programs and
    synthesized units with errors."""
    examples = Path(__file__).resolve().parent.parent / "examples"
    for path in sorted(examples.glob("*.vlt")):
        yield path.name, path.read_text()
    for seed in range(200):
        yield f"gen{seed}.vlt", generate_program(seed).source
    for n, seed in ((40, 1), (160, 3)):
        yield f"syn{seed}.vlt", synthesize_program(n, seed=seed,
                                                   error_rate=0.3)


class TestPositionFreeSummaries:
    def test_function_diagnostics_stay_inside_their_function(self):
        # The invariant that lets a summary move with its function:
        # every span and note span a function's check reports lies in
        # that function's lines and file, and a note that names a
        # position keeps it as a Note, not as text.
        diagnostics = notes = 0
        for name, source in _invariant_corpus():
            ctx, reporter = load_context(source, name)
            if not reporter.ok:
                continue
            for qual, fundef in ctx.defined_functions():
                where = fundef.span
                for diag in check_function_diagnostics(ctx, qual, fundef):
                    diagnostics += 1
                    spans = [diag.span]
                    for note in diag.notes:
                        if isinstance(note, Note):
                            spans.append(note.span)
                            notes += 1
                        else:
                            assert not _POSITION.search(note), (name, note)
                    for span in spans:
                        assert span.filename == where.filename, (name, qual)
                        assert where.start.line <= span.start.line \
                            <= span.end.line <= where.end.line, (name, qual)
        assert diagnostics > 500 and notes > 100, (diagnostics, notes)

    def test_moved_units_check_no_function(self):
        # A blank line above everything moves every function; none is
        # re-checked, and the replayed diagnostics equal check_source's
        # by value.  A copy under a second file name starts from that
        # file's own (empty) summaries, so it checks every function.
        source = synthesize_program(160, seed=3, error_rate=0.3)
        session = CheckSession()
        session.check(source, "a.vlt")
        functions = session.stats.last_checked
        assert len(functions) == 160
        for text, filename, checked in ((source, "b.vlt", functions),
                                        ("\n" + source, "a.vlt", [])):
            report = session.check(text, filename)
            assert session.stats.last_checked == checked
            expected = check_source(text, filename)
            assert report.diagnostics == expected.diagnostics
            assert report.render() == expected.render()

    def test_a_moved_function_replays_its_leak_note(self):
        leaky = ("void leak() {\n"
                 "    tracked(R) region rgn = Region.create();\n"
                 "}\n")
        other = "int f(int x) {\n    return x;\n}\n"
        session = fresh_session()
        session.check(leaky + "\n" + other, "m.vlt")
        moved = other + "\n\n" + leaky
        report = session.check(moved, "m.vlt")
        assert session.stats.last_checked == []
        expected = check_source(moved, "m.vlt", units=UNITS)
        assert report.diagnostics == expected.diagnostics
        assert "created at m.vlt:7:29" in report.render()

    def test_a_span_outside_the_function_is_not_summarised(self, tmp_path):
        # A function-type alias is expanded only when a body uses it,
        # so its unknown type is reported at the alias's line, outside
        # the function.  Such a result cannot move with the function:
        # it is re-checked wherever the function goes, never replayed
        # shifted.
        alias = "type cb = void f(Bogus x);\n"
        body = "void g() {\n    cb h;\n}\n"
        session = fresh_session(cache_dir=str(tmp_path))
        for text in (alias + body, alias + "\n" + body,
                     alias + "\n\n" + body):
            report = session.check(text, "alias.vlt")
            expected = check_source(text, "alias.vlt", units=UNITS)
            assert report.diagnostics == expected.diagnostics
            assert [d.span.start.line for d in report.diagnostics] == [1]
            assert session.stats.last_checked == ["g"]
        assert session._files["alias.vlt"].summaries == {}

    def test_summaries_are_position_free(self, tmp_path):
        # In memory and in the file's record alike, a summary holds
        # only diagnostics without a file name.
        from repro.cache import decode_blob
        source = synthesize_program(12, seed=3, error_rate=0.3)
        session = fresh_session(cache_dir=str(tmp_path))
        session.check(source, "unit.vlt")
        record = decode_blob(
            Path(session.record_path("unit.vlt")).read_bytes())
        summaries = record["summaries"]
        assert summaries == session._files["unit.vlt"].summaries \
            and len(summaries) == 12
        for diags in summaries.values():
            assert isinstance(diags, tuple)
            for diag in diags:
                assert diag.span.filename == ""
        assert any(diags for diags in summaries.values())

    @pytest.mark.parametrize("cached", [False, True])
    def test_the_file_map_holds_only_the_last_revision(self, cached,
                                                       tmp_path):
        # Ten body edits each supersede one function's summary: the
        # file's map keeps the last revision's, and with cache_dir it
        # is what the file's record saves.
        from repro.cache import decode_blob
        source = synthesize_program(160, seed=3, error_rate=0.3)
        kwargs = {"cache_dir": str(tmp_path)} if cached else {}
        session = fresh_session(**kwargs)
        session.check(source, "unit.vlt")
        for i in range(10):
            source = _body_edit(source, i * len(source) // 10)
            session.check(source, "unit.vlt")
            assert len(session.stats.last_checked) == 1
        held = session._files["unit.vlt"].summaries
        fresh = fresh_session()
        fresh.check(source, "unit.vlt")
        assert held == fresh._files["unit.vlt"].summaries
        assert len(held) == 160
        if cached:
            record = decode_blob(
                Path(session.record_path("unit.vlt")).read_bytes())
            assert record["summaries"] == held


# ---------------------------------------------------------------------------
# Chunk-AST cache: one entry per declaration chunk, with its interface
# digest; an env token independent of cache history
# ---------------------------------------------------------------------------


def _body_edit(source, start=None):
    """Change one constant inside one function body (no line shift)."""
    at = source.index("c.value += ",
                      len(source) // 2 if start is None else start)
    end = source.index(";", at)
    return source[:at] + "c.value += 4242" + source[end:]


#: a unit with a module member (``Counter.bump``) and two functions
_MODULE_UNIT = """\
interface COUNTER {
    int bump(int x);
}
module Counter : COUNTER {
    int bump(int x) {
        return x + 1;
    }
}
int g() {
    return Counter.bump(3);
}
int h() {
    return 41;
}
"""


def _counters(session):
    """The session's registry counters by name."""
    return collections.defaultdict(int, {
        name: metric["value"]
        for name, metric in session.telemetry.metrics.snapshot().items()
        if "value" in metric})


def _chunk_keys(source):
    """The context-entry key of a revision that splits into chunks."""
    return tuple((hashlib.sha256(c.text.encode()).hexdigest(),
                  c.start_line, c.start_col) for c in split_chunks(source))


def _env_token(session, source):
    """The env token ``session`` computes for ``source`` (the file's
    held context entry is this revision's)."""
    session.check(source, "unit.vlt")
    entry = session._files["unit.vlt"].ctx
    assert entry.key == _chunk_keys(source)
    return entry.env_token


class TestChunkAstCache:
    def test_one_chunk_edit_parses_one_chunk(self):
        source = synthesize_program(12, seed=3)
        chunks = len(split_chunks(source))
        session = fresh_session()
        session.check(source, "unit.vlt")
        assert session.stats.chunk_parses == chunks
        hits0 = _counters(session)["cache.chunk_ast.hits"]
        session.check(_body_edit(source), "unit.vlt")
        assert session.stats.chunk_parses == chunks + 1
        assert _counters(session)["cache.chunk_ast.hits"] - hits0 \
            == chunks - 1

    def test_one_chunk_edit_fingerprints_one_function(self):
        # Every other function is served from its held result: its
        # fingerprint is neither computed nor looked up.
        source = synthesize_program(12, seed=3)
        session = fresh_session()
        session.check(source, "unit.vlt")
        functions = session.stats.functions_checked
        before = _counters(session)
        session.check(_body_edit(source), "unit.vlt")
        after = _counters(session)
        assert after["cache.fingerprint_memo.misses"] \
            - before["cache.fingerprint_memo.misses"] == 1
        assert after["cache.fingerprint_memo.hits"] == 0
        assert after["cache.held_result.hits"] \
            - before["cache.held_result.hits"] == functions - 1
        assert len(session.stats.last_checked) == 1

    def test_a_moved_declaration_memoises_unmoved_fingerprints(self):
        # A declaration that moves elaborates the context, so no held
        # result is served; the functions that did not move keep their
        # nodes and the env token, so their fingerprints are memoized.
        source = synthesize_program(12, seed=3) + "struct spare { int a; }\n"
        session = fresh_session()
        session.check(source, "unit.vlt")
        moved = _blank_in_body(source, "worker_9")
        before = _counters(session)
        assert _check_like_check_source(session, moved)
        after = _counters(session)
        assert after["cache.held_result.hits"] \
            == before["cache.held_result.hits"]
        # worker_9, worker_10 and worker_11 moved and are re-parsed;
        # the blank line is in worker_9's own text
        assert after["cache.fingerprint_memo.hits"] == 12 - 3
        assert session.stats.last_checked == ["worker_9"]

    def test_a_body_edit_serves_module_members_held_results(self):
        # A module member's node lives in its module chunk, which a
        # reused context has in place: its held result is served.
        session = fresh_session()
        session.check(_MODULE_UNIT, "unit.vlt")
        before = _counters(session)
        edited = _MODULE_UNIT.replace("return 41;", "return 42;")
        assert not _check_like_check_source(session, edited)
        after = _counters(session)
        assert after["cache.held_result.hits"] \
            - before["cache.held_result.hits"] == 2
        assert "Counter.bump" in session.stats.last_replayed
        assert session.stats.last_checked == ["h"]

    def test_a_resave_with_a_module_replays_the_whole_unit(self):
        session = fresh_session()
        session.check(_MODULE_UNIT, "unit.vlt")
        before = _counters(session)
        report = session.check(_MODULE_UNIT, "unit.vlt")
        after = _counters(session)
        assert report.diagnostics == check_source(
            _MODULE_UNIT, "unit.vlt", units=UNITS).diagnostics
        assert session.last_profile["context"] == "held"
        assert session.last_profile["plan"] == "replayed whole unit"
        assert after["cache.unit_replay.hits"] \
            - before["cache.unit_replay.hits"] == 3
        assert session.stats.last_checked == []

    def test_one_chunk_edit_renders_like_check_source(self):
        source = synthesize_program(12, seed=3)
        session = fresh_session()
        session.check(source, "unit.vlt")
        edited = _body_edit(source)
        assert session.check(edited, "unit.vlt").render() == \
            check_source(edited, "unit.vlt", units=UNITS).render(), \
            "a re-parsed chunk must render like a from-scratch check"

    def test_env_token_does_not_depend_on_evictions(self, monkeypatch):
        # A function chunk is digested from its header whether it was
        # held from the file's previous revision or parsed afresh after
        # the file was evicted.  Were it digested differently on one
        # path, the env token would flip and every fingerprint memo of
        # the unit would miss.
        from repro.pipeline import session as session_mod
        source = synthesize_program(40, seed=3)
        revisions = [source, _body_edit(source),
                     _body_edit(source, len(source) // 4)]
        fresh = [_env_token(fresh_session(), text) for text in revisions]
        # Body edits leave the interface, and so the token, unchanged.
        assert len(set(fresh)) == 1
        session = fresh_session()
        assert [_env_token(session, text) for text in revisions] == fresh
        monkeypatch.setattr(session_mod, "_MAX_FILES", 1)
        tokens = []
        for text in revisions:
            session.check(PROTO, "other.vlt")     # evicts unit.vlt
            tokens.append(_env_token(session, text))
        assert tokens == fresh
        snapshot = session.telemetry.metrics.snapshot()
        assert snapshot["cache.file.evictions"]["value"] == 6


# ---------------------------------------------------------------------------
# Per-file retention: a session keeps each file's latest revision only
# ---------------------------------------------------------------------------

def _insert_blank_lines(source, count):
    """``count`` revisions, each inserting one blank line into the
    previous one at a line that moves through the unit."""
    revisions = []
    for i in range(count):
        lines = source.split("\n")
        at = (i * 37) % len(lines)
        source = "\n".join(lines[:at] + [""] + lines[at:])
        revisions.append(source)
    return revisions


def _gauges(session):
    snapshot = session.telemetry.metrics.snapshot()
    return (snapshot["session.files"]["value"],
            snapshot["session.chunks_held"]["value"])


class TestFileRetention:
    def test_file_eviction_is_traced(self, monkeypatch):
        from repro.pipeline import session as session_mod
        monkeypatch.setattr(session_mod, "_MAX_FILES", 2)
        session = fresh_session()
        for seed in range(5):
            session.check(synthesize_program(3, seed=seed), f"f{seed}.vlt")
        assert list(session._files) == ["f3.vlt", "f4.vlt"]
        snapshot = session.telemetry.metrics.snapshot()
        assert snapshot["cache.file.evictions"]["value"] == 3
        events = session.telemetry.events.by_kind("cache_evict")
        evicted = sum(e.fields["evicted"] for e in events
                      if e.fields["layer"] == "file")
        assert evicted == snapshot["cache.file.evictions"]["value"]

    def test_a_check_refreshes_its_files_place(self, monkeypatch):
        from repro.pipeline import session as session_mod
        monkeypatch.setattr(session_mod, "_MAX_FILES", 2)
        a, b, c = (synthesize_program(2, seed=seed) for seed in range(3))
        session = fresh_session()
        for text, filename in ((a, "a.vlt"), (b, "b.vlt"), (a, "a.vlt"),
                               (c, "c.vlt")):
            session.check(text, filename)
        assert list(session._files) == ["a.vlt", "c.vlt"]

    def test_line_inserts_hold_only_the_last_revision(self):
        session = fresh_session()
        for text in _insert_blank_lines(synthesize_program(160, seed=3), 20):
            report = session.check(text, "unit.vlt")
        chunks = len(split_chunks(text))
        assert list(session._files) == ["unit.vlt"]
        assert len(session._files["unit.vlt"].chunks) == chunks
        assert _gauges(session) == (1, chunks)
        assert report.render() == \
            check_source(text, "unit.vlt", units=UNITS).render()

    @pytest.mark.parametrize("edit", [_body_edit, lambda text: "\n" + text])
    def test_a_revert_renders_like_check_source(self, edit):
        # Undo is no unit replay any more: the chunks the edit changed
        # are parsed again.  The file keeps the edited revision's
        # summaries only, so the function a body edit changed is
        # checked again; a blank line changes no function's text, and
        # every summary replays.
        source = synthesize_program(12, seed=3, error_rate=0.3)
        session = fresh_session()
        for text in (source, edit(source)):
            session.check(text, "unit.vlt")
        changed = session.stats.last_checked
        assert len(changed) == (1 if edit is _body_edit else 0)
        parses = session.stats.chunk_parses
        report = session.check(source, "unit.vlt")
        expected = check_source(source, "unit.vlt", units=UNITS)
        assert report.render() == expected.render()
        assert report.diagnostics == expected.diagnostics
        assert session.stats.chunk_parses > parses
        assert session.stats.last_checked == changed

    def test_two_files_each_hit_their_own_context(self):
        a = synthesize_program(4, seed=3)
        b = synthesize_program(5, seed=4)
        session = fresh_session()
        session.check(a, "a.vlt")
        session.check(b, "b.vlt")
        for text, filename in ((a, "a.vlt"), (b, "b.vlt")) * 2:
            hits = _counters(session)["cache.context.hits"]
            session.check(text, filename)
            assert _counters(session)["cache.context.hits"] == hits + 1
            assert session.stats.last_checked == []
        assert session._files["a.vlt"].ctx is not session._files["b.vlt"].ctx
        assert _gauges(session) == \
            (2, len(split_chunks(a)) + len(split_chunks(b)))


# ---------------------------------------------------------------------------
# Interface reuse: an edit that keeps every signature and declaration
# keeps the held context
# ---------------------------------------------------------------------------

#: a 12-function unit with a struct at its top and some errors.
_REUSE_UNIT = synthesize_program(12, seed=3, error_rate=0.3)


def _elaborations(session):
    snapshot = session.telemetry.metrics.snapshot()
    return snapshot.get("cache.context.misses", {"value": 0})["value"]


def _check_like_check_source(session, text, filename="unit.vlt"):
    """Check ``text``, assert its diagnostics equal ``check_source``'s
    by value, and return whether the check ran ``build_context``."""
    before = _elaborations(session)
    report = session.check(text, filename)
    expected = check_source(text, filename, units=UNITS)
    assert report.diagnostics == expected.diagnostics
    assert report.render() == expected.render()
    ran = _elaborations(session) - before
    assert session.last_profile["context"] == \
        ("elaborated" if ran else "reused")
    return bool(ran)


def _blank_in_body(source, function):
    """A blank line below ``function``'s header, inside its body."""
    at = source.index("\n", source.index(f"int {function}(")) + 1
    return source[:at] + "\n" + source[at:]


class TestInterfaceReuse:
    @pytest.mark.parametrize("edit", [
        _body_edit,
        # moves every later function down one line
        lambda text: _blank_in_body(text, "worker_1"),
        lambda text: text.replace("int worker_4(int input)",
                                  "int worker_4(\n    int input)"),
    ], ids=["body_edit", "blank_in_body", "header_line_break"])
    def test_an_unchanged_interface_reuses_the_context(self, edit):
        session = fresh_session()
        assert _check_like_check_source(session, _REUSE_UNIT)
        held = session._files["unit.vlt"].ctx.ctx
        edited = edit(_REUSE_UNIT)
        assert edited != _REUSE_UNIT
        assert not _check_like_check_source(session, edited)
        assert session._files["unit.vlt"].ctx.ctx is held
        # and back again
        assert not _check_like_check_source(session, _REUSE_UNIT)

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("{ int value; int extra; }",
                                  "{ int extra; int value; }", 1),
        lambda text: text.replace("int worker_4(int input)",
                                  "int worker_4(int input, int spare)"),
        lambda text: "\n" + text,
    ], ids=["struct_field", "signature", "blank_above_struct"])
    def test_a_changed_interface_elaborates(self, edit):
        session = fresh_session()
        _check_like_check_source(session, _REUSE_UNIT)
        edited = edit(_REUSE_UNIT)
        assert edited != _REUSE_UNIT
        assert _check_like_check_source(session, edited)
        assert _check_like_check_source(session, _REUSE_UNIT)

    def test_a_moved_declaration_elaborates(self):
        # A blank line in a body above a declaration moves it with its
        # text unchanged, so the env token stays; but the context holds
        # the declaration's spans, so it must be elaborated again.
        struct, rest = _REUSE_UNIT.split("\n", 1)
        end = rest.index("\n}\n") + 3
        unit = rest[:end] + "\n" + struct + "\n" + rest[end:]
        session = fresh_session()
        _check_like_check_source(session, unit)
        moved = _blank_in_body(unit, "worker_0")
        assert _check_like_check_source(session, moved)
        # below the declaration, a blank line moves functions only
        assert not _check_like_check_source(
            session, _blank_in_body(moved, "worker_1"))

    def test_a_whole_unit_context_is_not_reused(self, monkeypatch):
        # A unit the splitter refuses is parsed whole and its context
        # held under the source's hash; the next revision splits again,
        # and its body edit must elaborate, not reuse that context.
        from repro.pipeline import session as session_mod

        def refuse(source, held=()):
            raise ChunkError("refused")

        session = fresh_session()
        _check_like_check_source(session, _REUSE_UNIT)
        monkeypatch.setattr(session_mod, "split_chunks", refuse)
        assert _check_like_check_source(session, _REUSE_UNIT)
        assert isinstance(session._files["unit.vlt"].ctx.key, str)
        monkeypatch.undo()
        assert _check_like_check_source(session, _body_edit(_REUSE_UNIT))

    def test_a_syntax_error_then_its_fix(self):
        # The broken body raises before any whole-unit context is held;
        # the held one is the broken revision's, built from its chunks,
        # and the fix (a body edit of it) reuses that context.
        broken = _REUSE_UNIT.replace("c.value += 5;", "c.value += ;", 1)
        assert broken != _REUSE_UNIT
        session = fresh_session()
        _check_like_check_source(session, _REUSE_UNIT)
        with pytest.raises(VaultError) as raised:
            session.check(broken, "unit.vlt")
        with pytest.raises(VaultError) as expected:
            check_source(broken, "unit.vlt", units=UNITS)
        assert str(raised.value) == str(expected.value)
        assert isinstance(session._files["unit.vlt"].ctx.key, tuple)
        for text in (_REUSE_UNIT, _body_edit(_REUSE_UNIT)):
            assert not _check_like_check_source(session, text)

    def test_held_diagnostics_turn_reuse_off(self):
        # A duplicate function's diagnostic spans the second copy, body
        # included; a line inserted into the first copy's body moves it.
        copy = "int f(int x) {\n    return x;\n}\n"
        session = fresh_session()
        first = session.check(copy + "\n" + copy, "dup.vlt")
        grown = copy.replace("{\n", "{\n    int y = 1;\n", 1) + "\n" + copy
        assert _check_like_check_source(session, grown, "dup.vlt")
        moved = session.check(grown, "dup.vlt")
        assert [d.code.name for d in moved.diagnostics] == ["DUPLICATE_NAME"]
        assert moved.diagnostics[0].span.start.line == \
            first.diagnostics[0].span.start.line + 1

    def test_a_function_type_alias_under_a_body_edit(self):
        # The alias's unknown type is reported at the alias's line when
        # a body expands it; the body edit reuses the context, and the
        # diagnostic stays on line 1.
        alias = "type cb = void f(Bogus x);\n"
        body = "void g() {\n    cb h;\n}\n"
        session = fresh_session()
        _check_like_check_source(session, alias + body, "alias.vlt")
        for text in (alias + body.replace("cb h;", "cb k;"),
                     alias + body.replace("{\n", "{\n\n")):
            assert not _check_like_check_source(session, text, "alias.vlt")
            assert session.stats.last_checked == ["g"]
            report = check_source(text, "alias.vlt", units=UNITS)
            assert [d.span.start.line for d in report.diagnostics] == [1]
        # A blank line in a body above the alias moves the alias, and
        # with it the diagnostic: the context is elaborated again.
        above = "int h(int x) {\n    return x;\n}\n"
        _check_like_check_source(session, above + alias + body, "alias.vlt")
        moved = above.replace("{\n", "{\n\n") + alias + body
        assert _check_like_check_source(session, moved, "alias.vlt")
        report = check_source(moved, "alias.vlt", units=UNITS)
        assert [d.span.start.line for d in report.diagnostics] == [5]

    def test_no_function_node_outlives_its_chunk(self):
        # After body edits and line inserts, every function the held
        # context names is a node of the file's held chunks: nothing of
        # an older revision stays reachable, and no check reads a
        # stale definition.
        session = fresh_session()
        text = synthesize_program(40, seed=3, error_rate=0.3)
        revisions = []
        for i, shifted in enumerate(_insert_blank_lines(text, 8)):
            revisions += [shifted, _body_edit(shifted, len(shifted) * i // 9)]
        reused = 0
        for text in revisions:
            reused += not _check_like_check_source(session, text)
            state = session._files["unit.vlt"]
            nodes = {id(decl) for chunk in state.chunks.values()
                     for decl in chunk.program.decls}
            mine = [fundef for fundef in state.ctx.ctx.fun_defs.values()
                    if fundef.span.filename == "unit.vlt"]
            assert len(mine) == 40
            assert all(id(fundef) in nodes for fundef in mine)
        assert 0 < reused < len(revisions)


# ---------------------------------------------------------------------------
# Header-only function chunks: a body is parsed when its function is
# checked, and stays parsed
# ---------------------------------------------------------------------------

def _outcome(check, source, filename):
    """The rendered report, or the syntax error ``check`` raises."""
    try:
        return check(source, filename).render()
    except VaultError as exc:
        return f"error: {exc}"


def _plain(source, filename):
    return check_source(source, filename, units=UNITS)


#: two bodies with syntax errors; the later one sorts first by name.
_TWO_BROKEN = """\
int zeta(int x) {
    int y = x + ;
    return y;
}

int alpha(int x) {
    return x * ;
}
"""


class TestHeaderOnlyChunks:
    def test_cold_check_parses_every_body_once(self):
        source = synthesize_program(12, seed=3, error_rate=0.3)
        session = fresh_session()
        assert session.check(source, "unit.vlt").render() == \
            _plain(source, "unit.vlt").render()
        assert session.stats.body_parses == 12
        assert session.last_profile["bodies"] == (12, 12)

    def test_header_spans_match_a_full_parse(self):
        source = synthesize_program(6, seed=3, error_rate=0.5) + PROTO
        session = fresh_session()
        session.check(source, "unit.vlt")
        ctx = session._files["unit.vlt"].ctx.ctx
        whole = {d.decl.name: d for d in
                 parse_program(source, "unit.vlt").decls
                 if isinstance(d, ast.FunDef)}
        assert set(ctx.fun_defs) == set(whole)
        assert session.stats.body_parses == len(whole)
        for name, fundef in ctx.fun_defs.items():
            a, b = fundef.span, whole[name].span
            assert (a.start.line, a.start.col, a.end.line, a.end.col) == \
                (b.start.line, b.start.col, b.end.line, b.end.col), name

    def test_fresh_cached_session_parses_only_the_edited_body(self,
                                                             tmp_path):
        source = synthesize_program(12, seed=3, error_rate=0.3)
        cache_dir = str(tmp_path / "cache")
        fresh_session(cache_dir=cache_dir).check(source, "unit.vlt")
        edited = _body_edit(source)
        session = fresh_session(cache_dir=cache_dir)
        report = session.check(edited, "unit.vlt")
        assert session.stats.body_parses == 1
        assert session.stats.functions_checked == 1
        assert session.last_profile["bodies"] == (1, 12)
        assert report.render() == _plain(edited, "unit.vlt").render()

    def test_interface_edit_reparses_no_held_body(self):
        # A struct edit re-checks every function that uses the struct,
        # but the session already holds their bodies.  (The edit keeps
        # the line's length: the next chunk starts on that line, and
        # its cache key holds its column.)
        source = synthesize_program(8, seed=4)
        session = fresh_session()
        session.check(source, "unit.vlt")
        assert session.stats.body_parses == 8
        edited = source.replace("{ int value; int extra; }",
                                "{ int extra; int value; }", 1)
        assert edited != source
        report = session.check(edited, "unit.vlt")
        assert len(session.stats.last_checked) == 8
        assert session.stats.body_parses == 8
        assert report.render() == _plain(edited, "unit.vlt").render()

    def test_body_syntax_errors_report_the_first_in_source_order(
            self, tmp_path):
        clean = _TWO_BROKEN.replace(" + ;", ";").replace(" * ;", ";")
        expected = _outcome(_plain, _TWO_BROKEN, "two.vlt")
        assert expected.startswith("error: two.vlt:2:")
        warm = fresh_session()
        warm.check(clean, "two.vlt")
        cache_dir = str(tmp_path / "cache")
        fresh_session(cache_dir=cache_dir).check(clean, "two.vlt")
        cached = fresh_session(cache_dir=cache_dir)
        assert _outcome(warm.check, _TWO_BROKEN, "two.vlt") == expected
        assert _outcome(cached.check, _TWO_BROKEN, "two.vlt") == expected
        # The repaired text checks again, in both sessions.
        repaired = _TWO_BROKEN.replace(" + ;", " + 1;") \
            .replace(" * ;", " * 2;")
        for session in (warm, fresh_session(cache_dir=cache_dir)):
            assert session.check(repaired, "two.vlt").render() == \
                _plain(repaired, "two.vlt").render()

    def test_syntax_error_outranks_context_diagnostics(self):
        # A duplicate definition is an elaboration error, so no
        # function is checked; check_source still raises the syntax
        # error in the body the duplicate hides.
        source = ("int f(int x) { return x + ; }\n"
                  "int f(int x) { return x; }\n")
        expected = _outcome(_plain, source, "dup.vlt")
        assert expected.startswith("error: dup.vlt:1:")
        session = fresh_session()
        assert _outcome(session.check, source, "dup.vlt") == expected
        assert _outcome(session.check, source, "dup.vlt") == expected

    @pytest.mark.parametrize("tail", [" junk\n", "\n\f\n", "\n// end\n"])
    def test_text_after_the_last_body_takes_the_full_parse(self, tail):
        source = synthesize_program(3, seed=5) + tail
        expected = _outcome(_plain, source, "tail.vlt")
        session = fresh_session()
        for _ in range(2):
            assert _outcome(session.check, source, "tail.vlt") == expected

    def test_whole_unit_fallback_looks_the_unit_up_once(self, tmp_path):
        # A body that does not parse on its own sends the check back to
        # one whole-unit parse; the file-record lookup and the stdlib
        # base before it must not run a second time.
        source = ("int first(int x) {\n    return x;\n}\n\n"
                  "int second(int x) {\n    int y = ;\n    return x;\n}\n")
        session = fresh_session(cache_dir=str(tmp_path))
        with pytest.raises(VaultError):
            session.check(source, "broken.vlt")
        snapshot = session.telemetry.metrics.snapshot()

        def count(name):
            return snapshot.get(name, {"value": 0})["value"]

        assert count("cache.shared.unit.misses") == 1
        assert count("cache.stdlib_base.hits") \
            + count("cache.stdlib_base.misses") == 1


class TestLineNumbering:
    """Lines end at ``\\n`` only, as the lexer counts them."""

    LEAK = ("// \f\f\f\n"
            "int f(int input) {\n"
            "    tracked(R) region rgn = Region.create();\n"
            "    Region.delete(rgn);\n"
            "    return input;\n"
            "}\n")

    def test_form_feed_comment_does_not_replay_a_stale_summary(self):
        session = fresh_session()
        assert session.check(self.LEAK, "ff.vlt").ok
        edited = self.LEAK.replace("    return input;",
                                   "    Region.delete(rgn); return input;")
        expected = _plain(edited, "ff.vlt")
        assert not expected.ok
        assert session.check(edited, "ff.vlt").render() == expected.render()

    def test_excerpt_quotes_the_reported_line(self):
        edited = self.LEAK.replace("    return input;",
                                   "    Region.delete(rgn); return input;")
        rendered = _plain(edited, "ff.vlt").render()
        assert "V0303" in rendered
        assert "   5 |     Region.delete(rgn); return input;" in rendered

    def test_crlf_renders_like_lf(self):
        source = synthesize_program(4, seed=6, error_rate=1.0)
        crlf = source.replace("\n", "\r\n")
        assert not _plain(source, "u.vlt").ok
        assert _plain(crlf, "u.vlt").render() == \
            _plain(source, "u.vlt").render()
        assert fresh_session().check(crlf, "u.vlt").render() == \
            _plain(source, "u.vlt").render()


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
