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
from repro.diagnostics.reporter import source_lines
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
                assert not session.last.whole_parse, seed

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

    @pytest.mark.parametrize("source", [
        PROTO, "int x;\r\nvoid f() {\r\n}\r\nint y; int z;\r\n",
        "int a; int b;\n\n// trailing", "void f() {\n}\n\n\n", "// only"])
    def test_lines_match_source_lines(self, source):
        # A quoted line and a function's own lines, read from their
        # chunk, are the unit's lines as source_lines numbers them.
        split = split_chunks(source)
        lines = source_lines(source)
        for number in range(-1, len(lines) + 3):
            assert split.line(number) == (
                lines[number - 1] if 1 <= number <= len(lines) else None)
            for last in range(max(number, 1), len(lines) + 1):
                if number >= 1:
                    assert split.lines(number, last) == \
                        "\n".join(lines[number - 1:last])

    def test_lines_match_source_lines_on_the_corpus(self):
        for name, source in _split_corpus():
            split, lines = split_chunks(source), source_lines(source)
            assert [split.line(n) for n in range(1, len(lines) + 2)] == \
                lines + [None], name

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
    assert _split_view(new, held) == _split_view(new), (old, new)
    try:
        spliced = split_chunks(new, held)
    except ChunkError:
        return None
    # Chunks k:j of the held split are replaced by k:k+m of the new
    # one, which are new objects, and every other chunk is the held
    # object itself.
    k, j, m = spliced.spliced
    assert len(spliced) == len(held) - (j - k) + m
    assert not any(_carried(held, spliced)[k:k + m])
    assert all(a is b for a, b in zip(spliced.chunks[:k], held.chunks))
    assert all(a is b for a, b in zip(spliced.chunks[k + m:],
                                      held.chunks[j:]))
    return spliced


def _carried(held, split):
    """For each chunk of ``split``, whether it is one of ``held``'s
    chunk objects (carried over, with what is attached to it)."""
    ids = set(map(id, held.chunks))
    return [id(chunk) in ids for chunk in split.chunks]


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
        held = split_chunks(old)
        assert _carried(held, split_chunks(new, held)) == \
            [False, False, False, False, True], \
            "the edited chunk and the ones it moves are new"

    @pytest.mark.parametrize("old, new", [
        ("int a;", "// x"), ("int a; int b;", "int a; // b"),
        ("int a; int b;\n", "int a; int b"), ("int a;\n", ""),
        ("", "int a;"), ("// x", "int a; // x"),
    ])
    def test_an_edit_that_leaves_no_terminator(self, old, new):
        # Text past the last terminator joins the chunk before it, or
        # is the unit's one chunk.
        _assert_splice_is_cold(old, new)
        _assert_splice_is_cold(new, old)

    @pytest.mark.parametrize("inserted", ["\nint x;", " int x;"])
    def test_a_declaration_inserted_between_two(self, inserted):
        # The chunk after the new one starts where it ends, on another
        # line or column than before, so the range replaces it too: a
        # non-empty range never replaces no held chunk.
        at = PROTO.index("\n\nvoid caller")
        chunks = _assert_splice_is_cold(PROTO,
                                        PROTO[:at] + inserted + PROTO[at:])
        k, j, m = chunks.spliced
        assert j > k and m == j - k + 1

    def test_an_empty_edit_scans_nothing(self):
        source = synthesize_program(20, seed=7)
        assert _assert_splice_is_cold(source, source).spliced == (0, 0, 0)
        held = split_chunks(source)
        assert all(_carried(held, split_chunks(source, held)))

    def test_a_body_edit_scans_one_chunk(self):
        source = synthesize_program(40, seed=7)
        edited = _body_edit(source)
        assert _assert_splice_is_cold(source, edited).spliced[2] == 1
        held = split_chunks(source)
        assert _carried(held, split_chunks(edited, held)).count(False) == 1


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
        assert session.last.quals("checked") == ["bystander"]
        assert "caller" in session.last.quals("held", "summary")

    def test_callee_effect_edit_invalidates_caller(self):
        session = fresh_session()
        session.check(PROTO)
        edited = PROTO.replace("void advance() [GK @ lo -> hi];",
                               "void advance() [GK @ lo];")
        session.check(edited)
        assert "caller" in session.last.quals("checked")
        assert "bystander" not in session.last.quals("checked")
        assert "bystander" in session.last.quals("held", "summary")

    def test_stateset_edit_invalidates_dependents(self):
        session = fresh_session()
        session.check(PROTO)
        edited = PROTO.replace("stateset L = [ lo < hi ];",
                               "stateset L = [ lo < mid < hi ];")
        session.check(edited)
        assert "caller" in session.last.quals("checked")
        assert "bystander" not in session.last.quals("checked")

    def test_unrelated_edit_replays_everything(self):
        session = fresh_session()
        session.check(PROTO)
        # Pure trivia above the unit shifts every span but changes no
        # fingerprint: every summary must replay.
        session.check("// a comment\n" + PROTO)
        assert session.last.quals("checked") == []

    def test_diagnostics_replay_with_spans(self):
        leaky = """\
void leak() {
    tracked(R) region rgn = Region.create();
}
"""
        session = fresh_session()
        first = session.check(leaky).render()
        assert session.last.quals("checked") == ["leak"]
        second = session.check(leaky).render()
        assert session.last.quals("checked") == []
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
        # ``vaultc check --jobs auto --cache DIR`` and
        # ``CheckSession(jobs=)`` stay accepted for old callers (the
        # end-to-end benchmark passes both); each must print exactly
        # what a plain check prints and never fork.  ``check_source``
        # no longer takes ``jobs``.
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
        assert check_source(source, str(target)).render() \
            == report.render()
        with pytest.raises(TypeError):
            check_source(source, str(target), jobs="auto")
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
        # Only the constructor still takes ``jobs``; ``check`` does not.
        source = synthesize_program(8, seed=6)
        expected = check_source(source, units=UNITS).render()
        session = fresh_session(jobs=4)
        with pytest.raises(TypeError):
            session.check(source, jobs=1)
        assert session.check(source).render() == expected


# ---------------------------------------------------------------------------
# On-disk persistence
# ---------------------------------------------------------------------------

class TestPersistence:
    def test_round_trip(self, tmp_path):
        source = synthesize_program(12, seed=9, error_rate=0.3)
        cache = str(tmp_path / "cache")
        first = fresh_session(cache_dir=cache)
        expected = first.check(source).render()
        assert first.last.functions_checked > 0

        second = fresh_session(cache_dir=cache)
        assert second.check(source).render() == expected
        assert second.last.quals("checked") == []
        assert second.last.functions_replayed > 0

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
    def test_last_is_the_latest_checks_record(self):
        # One record per check, on the session only: the telemetry
        # bundle keeps no per-check state.
        session = fresh_session()
        session.check(PROTO)
        first = session.last
        assert not hasattr(session.telemetry, "profile")
        assert first.total_seconds > 0
        assert first.error is None
        session.check(PROTO)
        assert session.last is not first

    def test_aborted_check_marks_profile(self, monkeypatch):
        session = fresh_session()

        def boom(*args, **kwargs):
            raise RuntimeError("injected abort")

        monkeypatch.setattr(session, "_context_for", boom)
        with pytest.raises(RuntimeError, match="injected abort"):
            session.check(PROTO)
        record = session.last
        assert record.error is not None
        assert record.error == "RuntimeError: injected abort"
        assert record.total_seconds >= 0.0
        aborts = session.telemetry.events.by_kind("check_aborted")
        assert len(aborts) == 1
        assert "injected abort" in aborts[0].fields["error"]
        # The session recovers: the next check starts a fresh record.
        monkeypatch.undo()
        report = session.check(PROTO)
        assert report.ok
        assert session.last.error is None

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

    def test_a_check_that_raises_counts_nothing(self):
        # A body edit that breaks the syntax raises from the whole-unit
        # parse after a first pass that served the other 11 functions:
        # the session's totals (the daemon's session rows) must not
        # count them, and the record answers no function.
        source = synthesize_program(12, seed=3)
        at = source.index("c.value += ", len(source) // 2)
        broken = source[:at] + "c.value += ;" \
            + source[source.index(";", at) + 1:]
        session = fresh_session()
        session.check(source, "unit.vlt")
        totals = dict(vars(session.stats))
        with pytest.raises(VaultError):
            session.check(broken, "unit.vlt")
        assert vars(session.stats) == totals
        assert session.stats.functions_replayed == 0
        assert session.last.functions == {}
        assert session.last.error.startswith("ParseError: ")

    def test_a_whole_unit_retry_answers_each_function_once(
            self, monkeypatch):
        # A body that does not parse on its own sends the check back to
        # one whole-unit parse, which flow-checks every function; its
        # functions replace the first pass's, which had served 11 from
        # their held results.
        from repro.pipeline.session import _WholeUnit
        source = synthesize_program(12, seed=3, error_rate=0.3)
        session = fresh_session()
        session.check(source, "unit.vlt")
        parse_bodies = session._parse_bodies
        raised = []

        def once(fundefs, filename):
            if fundefs and not raised:
                raised.append(filename)
                raise _WholeUnit()
            return parse_bodies(fundefs, filename)

        monkeypatch.setattr(session, "_parse_bodies", once)
        edited = _body_edit(source)
        report = session.check(edited, "unit.vlt")
        assert raised
        assert report.diagnostics == \
            check_source(edited, "unit.vlt", units=UNITS).diagnostics
        assert session.stats.functions_replayed == 0
        assert session.stats.functions_checked == 12 + 12
        assert session.last.whole_parse
        assert len(session.last.functions) == 12
        assert session.last.quals("summary") \
            == session.last.quals("held", "summary")

    def test_one_body_edit_moves_the_e2e_session_counters_by_one(self):
        # benchmarks/e2e/workload.py ``session_counters`` reads
        # ``session.stats.chunk_parses`` and ``.functions_checked``
        # around each save, with a ``None`` default: a missing or
        # mis-counted field would silently empty the edit loop's
        # ``pipeline.reparse_precision``.
        source = synthesize_program(40, seed=3, error_rate=0.3)
        session = fresh_session()
        session.check(source, "unit.vlt")
        stats = session.stats
        before = (stats.chunk_parses, stats.functions_checked)
        session.check(_body_edit(source), "unit.vlt")
        assert (stats.chunk_parses, stats.functions_checked) == \
            (before[0] + 1, before[1] + 1)


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

    def test_key_numbers_do_not_depend_on_what_ran_before(self):
        # A key's number reaches messages (``tracked(R#1)``), so every
        # check of a function must number its keys alike: check_source
        # run twice, a warm session that checked another file first and
        # that session's summary replay of the function all render the
        # same text.
        unit = ("void f() { tracked(R) region z = Region.create(); "
                "tracked(R) region q = Region.ate(); }\n")
        first = check_source(unit, "k.vlt", units=UNITS).render()
        assert "tracked(R#" in first
        assert check_source(unit, "k.vlt", units=UNITS).render() == first
        session = fresh_session()
        session.check(synthesize_program(12, seed=3, error_rate=0.3),
                      "other.vlt")
        assert session.check(unit, "k.vlt").render() == first
        moved = "\n" + unit
        report = session.check(moved, "k.vlt")
        assert session.last.quals("summary") == ["f"]
        assert report.render() == \
            check_source(moved, "k.vlt", units=UNITS).render()

    def test_replay_profile_has_no_stale_check_seconds(self):
        with fresh_session() as session:
            session.check(PROTO, "p.vlt")
            assert session.last.check_seconds is not None
            session.check(PROTO, "p.vlt")         # whole-unit replay
            record = session.last
        assert record.plan == "replayed whole unit"
        assert record.check_seconds is None, \
            "replay left the previous run's timing in the record"

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
            assert session.last.quals("checked") == []

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
            assert session.last.functions_checked == 0
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
        functions = session.last.quals("checked")
        assert len(functions) == 160
        for text, filename, checked in ((source, "b.vlt", functions),
                                        ("\n" + source, "a.vlt", [])):
            report = session.check(text, filename)
            assert session.last.quals("checked") == checked
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
        assert session.last.quals("checked") == []
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
            assert session.last.quals("checked") == ["g"]
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
            assert len(session.last.quals("checked")) == 1
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
# Chunk-AST cache: each declaration chunk's parse, with its interface
# part, held on the chunk; parts independent of cache history
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


def _parts(session, source):
    """The interface parts of ``source``'s chunks as ``session`` holds
    them after checking it (the file's held split is this revision's),
    and the check's context step."""
    session.check(source, "unit.vlt")
    split = session._files["unit.vlt"].split
    assert split.source == source
    return [chunk.parsed.part for chunk in split.chunks], \
        session.last.context


class TestChunkAstCache:
    def test_one_chunk_edit_parses_one_chunk(self):
        source = synthesize_program(12, seed=3)
        chunks = len(split_chunks(source))
        session = fresh_session()
        session.check(source, "unit.vlt")
        assert session.last.chunks_parsed == chunks
        hits0 = _counters(session)["cache.chunk_ast.hits"]
        session.check(_body_edit(source), "unit.vlt")
        assert session.last.chunks_parsed == 1
        assert _counters(session)["cache.chunk_ast.hits"] - hits0 \
            == chunks - 1

    def test_one_chunk_edit_fingerprints_one_function(self):
        # Every other function is served from its held result: its
        # fingerprint is neither computed nor looked up.
        source = synthesize_program(12, seed=3)
        session = fresh_session()
        session.check(source, "unit.vlt")
        functions = session.last.functions_checked
        before = _counters(session)
        session.check(_body_edit(source), "unit.vlt")
        after = _counters(session)
        assert after["check.fingerprints"] \
            - before["check.fingerprints"] == 1
        assert after["cache.held_result.hits"] \
            - before["cache.held_result.hits"] == functions - 1
        assert len(session.last.quals("checked")) == 1

    def test_a_moved_declaration_fingerprints_every_function(self):
        # A declaration that moves elaborates the context, so no held
        # result is served: every function is fingerprinted again, and
        # the ones whose text did not change replay their summaries.
        source = synthesize_program(12, seed=3) + "struct spare { int a; }\n"
        session = fresh_session()
        session.check(source, "unit.vlt")
        moved = _blank_in_body(source, "worker_9")
        before = _counters(session)
        assert _check_like_check_source(session, moved)
        after = _counters(session)
        assert after["cache.held_result.hits"] \
            == before["cache.held_result.hits"]
        assert after["check.fingerprints"] \
            - before["check.fingerprints"] == 12
        # the blank line is in worker_9's own text
        assert session.last.quals("checked") == ["worker_9"]

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
        assert "Counter.bump" in session.last.quals("held", "summary")
        assert session.last.quals("checked") == ["h"]

    def test_a_resave_with_a_module_replays_the_whole_unit(self):
        session = fresh_session()
        session.check(_MODULE_UNIT, "unit.vlt")
        before = _counters(session)
        report = session.check(_MODULE_UNIT, "unit.vlt")
        after = _counters(session)
        assert report.diagnostics == check_source(
            _MODULE_UNIT, "unit.vlt", units=UNITS).diagnostics
        assert session.last.context == "held"
        assert session.last.plan == "replayed whole unit"
        assert after["cache.unit_replay.hits"] \
            - before["cache.unit_replay.hits"] == 3
        assert session.last.quals("checked") == []

    def test_one_chunk_edit_renders_like_check_source(self):
        source = synthesize_program(12, seed=3)
        session = fresh_session()
        session.check(source, "unit.vlt")
        edited = _body_edit(source)
        assert session.check(edited, "unit.vlt").render() == \
            check_source(edited, "unit.vlt", units=UNITS).render(), \
            "a re-parsed chunk must render like a from-scratch check"

    def test_header_parts_do_not_depend_on_evictions(self, monkeypatch):
        # A function chunk's part is its header whether the chunk was
        # held from the file's previous revision or parsed afresh after
        # the file was evicted.  Were it taken differently on one path,
        # a body edit would elaborate the context and every function of
        # the unit would be fingerprinted again.
        from repro.pipeline import session as session_mod
        source = synthesize_program(40, seed=3)
        revisions = [source, _body_edit(source),
                     _body_edit(source, len(source) // 4)]
        fresh = [_parts(fresh_session(), text) for text in revisions]
        assert [step for _, step in fresh] == ["elaborated"] * 3
        # Body edits leave the interface, and so every part, unchanged.
        assert all(parts == fresh[0][0] for parts, _ in fresh)
        session = fresh_session()
        assert [_parts(session, text) for text in revisions] == \
            [(fresh[0][0], "elaborated"), (fresh[0][0], "reused"),
             (fresh[0][0], "reused")]
        monkeypatch.setattr(session_mod, "_MAX_FILES", 1)
        evicted = []
        for text in revisions:
            session.check(PROTO, "other.vlt")     # evicts unit.vlt
            evicted.append(_parts(session, text))
        assert evicted == fresh
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
        split = session._files["unit.vlt"].split
        assert split.source == text and len(split) == chunks
        assert all(chunk.parsed is not None for chunk in split.chunks)
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
        changed = session.last.quals("checked")
        assert len(changed) == (1 if edit is _body_edit else 0)
        report = session.check(source, "unit.vlt")
        expected = check_source(source, "unit.vlt", units=UNITS)
        assert report.render() == expected.render()
        assert report.diagnostics == expected.diagnostics
        assert session.last.chunks_parsed > 0
        assert session.last.quals("checked") == changed

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
            assert session.last.quals("checked") == []
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
    assert session.last.context == \
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
        # text unchanged; but the context holds the declaration's
        # spans, so it must be elaborated again.
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

    def test_a_refused_split_keeps_the_held_context(self, monkeypatch):
        # A unit the splitter refuses is answered as check_source
        # answers it, and nothing of that answer is held: the file
        # keeps its chunked context, so the next revision's body edit
        # reuses it, parses one chunk and checks one function.
        from repro.pipeline import session as session_mod

        def refuse(source, held=()):
            raise ChunkError("refused")

        session = fresh_session()
        _check_like_check_source(session, _REUSE_UNIT)
        monkeypatch.setattr(session_mod, "split_chunks", refuse)
        assert _check_like_check_source(session, _REUSE_UNIT)
        assert session.last.whole_parse
        monkeypatch.undo()
        assert not _check_like_check_source(session, _body_edit(_REUSE_UNIT))
        assert session.last.context == "reused"
        assert session.last.chunks_parsed == 1
        assert session.last.functions_checked == 1

    def test_a_check_whose_elaboration_raises_leaves_the_file(
            self, monkeypatch):
        # A signature change whose elaboration raises keeps the file's
        # split and context as they were.  A body edit of that revision
        # is spliced from the last good one, so its range holds the
        # changed header and the context is elaborated: the caller's
        # diagnostic, which the new signature makes, is not served
        # from before it.
        from repro.pipeline import session as session_mod
        unit = ("int callee(int x) {\n    return x;\n}\n"
                "int caller() {\n    return callee(1);\n}\n")
        changed = unit.replace("int callee(int x)",
                               "int callee(int x, int z)")
        edited = changed.replace("return x;", "return x + z;")
        assert not _plain(unit, "unit.vlt").diagnostics
        assert _plain(edited, "unit.vlt").diagnostics
        session = fresh_session()
        _renders_like_check_source(session, unit)
        build_context = session_mod.build_context

        def once(*args, **kwargs):
            monkeypatch.setattr(session_mod, "build_context", build_context)
            raise RuntimeError("elaboration failed")

        monkeypatch.setattr(session_mod, "build_context", once)
        with pytest.raises(RuntimeError):
            session.check(changed, "unit.vlt")
        assert session._files["unit.vlt"].split.source == unit
        _renders_like_check_source(session, edited)
        assert session.last.context == "elaborated"

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
        held = session._files["unit.vlt"].split
        assert held.source == broken
        assert all(chunk.parsed is not None for chunk in held.chunks)
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
            assert session.last.quals("checked") == ["g"]
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
            nodes = {id(decl) for chunk in state.split.chunks
                     for decl in chunk.parsed.program.decls}
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
        assert session.last.bodies_parsed == 12
        assert (session.last.bodies_parsed,
                len(session.last.functions)) == (12, 12)

    def test_header_spans_match_a_full_parse(self):
        source = synthesize_program(6, seed=3, error_rate=0.5) + PROTO
        session = fresh_session()
        session.check(source, "unit.vlt")
        ctx = session._files["unit.vlt"].ctx.ctx
        whole = {d.decl.name: d for d in
                 parse_program(source, "unit.vlt").decls
                 if isinstance(d, ast.FunDef)}
        assert set(ctx.fun_defs) == set(whole)
        assert session.last.bodies_parsed == len(whole)
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
        assert session.last.bodies_parsed == 1
        assert session.last.functions_checked == 1
        assert (session.last.bodies_parsed,
                len(session.last.functions)) == (1, 12)
        assert report.render() == _plain(edited, "unit.vlt").render()

    def test_interface_edit_reparses_no_held_body(self):
        # A struct edit re-checks every function that uses the struct,
        # but the session already holds their bodies.  (The edit keeps
        # the line's length: the next chunk starts on that line, and
        # its cache key holds its column.)
        source = synthesize_program(8, seed=4)
        session = fresh_session()
        session.check(source, "unit.vlt")
        assert session.last.bodies_parsed == 8
        edited = source.replace("{ int value; int extra; }",
                                "{ int extra; int value; }", 1)
        assert edited != source
        report = session.check(edited, "unit.vlt")
        assert len(session.last.quals("checked")) == 8
        assert session.last.bodies_parsed == 0
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


    #: leaks reported on the last line of their chunk, with a second
    #: chunk starting on that line
    LAST_LINE = ("void a() {\n"
                 "    tracked(R) region rgn = Region.create();\n"
                 "} int b() { return 1; }\n"
                 "void c() { tracked(R) region r = Region.create(); }")

    @pytest.mark.parametrize("source", [
        LAST_LINE, LAST_LINE.replace("\n", "\r\n"),
        LEAK.replace("    Region.delete(rgn);\n", "").replace("\n", "\r\n"),
        synthesize_program(12, seed=6, error_rate=0.5).replace("\n",
                                                               "\r\n"),
    ])
    def test_session_quotes_lines_from_its_chunks(self, source):
        # A session quotes a reported line from the chunk it starts in;
        # the excerpt is check_source's, cold and after an edit.
        session = fresh_session()
        for text in (source, source.replace("region", "region ", 1),
                     "\n" + source):
            expected = _plain(text, "q.vlt")
            assert not expected.ok
            assert session.check(text, "q.vlt").render() == \
                expected.render()

    def test_fingerprints_read_the_functions_whole_lines(self):
        # A function's fingerprint is over its whole lines, first
        # through last, as the unit split into lines gives them: a file
        # record written before fingerprints were read from the
        # function's chunk still replays.
        from repro.pipeline import function_fingerprint
        units = [synthesize_program(40, seed=1, error_rate=0.3),
                 self.LAST_LINE, self.LAST_LINE.replace("\n", "\r\n"),
                 PROTO + "int late(int x) { return x; } // trailing\n",
                 _MODULE_UNIT]
        checked = 0
        for source in units:
            session = fresh_session()
            session.check(source, "fp.vlt")
            entry = session._files["fp.vlt"].ctx
            lines = source_lines(source)
            for qual, fp in zip(entry.quals, entry.fps):
                span = entry.ctx.fun_defs[qual].span
                text = "\n".join(lines[span.start.line - 1:span.end.line])
                assert fp == function_fingerprint(entry.ctx, qual, text)
                checked += 1
        assert checked > 45


# ---------------------------------------------------------------------------
# The range update: a check updates the file's state by the range the
# splice replaced
# ---------------------------------------------------------------------------


def _after_range(session, text, filename="unit.vlt"):
    """Check ``text``: its diagnostics must equal ``check_source``'s by
    value, its record must list every function in sorted order and the
    file's summary map must be a fresh session's.  Returns the
    functions that were flow-checked."""
    report = session.check(text, filename)
    expected = check_source(text, filename, units=UNITS)
    assert report.diagnostics == expected.diagnostics
    assert report.render() == expected.render()
    fresh = fresh_session()
    fresh.check(text, filename)
    assert list(session.last.functions) == list(fresh.last.functions)
    assert list(session.last.functions) == \
        sorted(session._files[filename].ctx.ctx.fun_defs)
    assert session._files[filename].summaries == \
        fresh._files[filename].summaries
    return session.last.quals("checked")


class TestRangeUpdate:
    UNIT = synthesize_program(20, seed=5, error_rate=0.3)

    def _warm(self, text=None):
        session = fresh_session()
        _after_range(session, text or self.UNIT)
        return session

    def test_a_length_change_that_keeps_the_lines(self):
        # Every later chunk's offset moves; no key does.
        session = self._warm()
        at = self.UNIT.index("c.value += ", len(self.UNIT) // 2)
        end = self.UNIT.index(";", at)
        text = self.UNIT[:at] + "c.value += 1234567" + self.UNIT[end:]
        split = split_chunks(text, session._files["unit.vlt"].split)
        assert split.spliced[2] == 1
        assert len(_after_range(session, text)) == 1
        assert session.last.context == "reused"

    def test_the_first_and_the_last_function(self):
        text = self.UNIT + "// trailing trivia\n\n"
        session = self._warm(text)
        first = _body_edit(text, 0)
        assert _after_range(session, first) == ["worker_0"]
        last = _body_edit(first, first.rindex("int worker_"))
        assert _after_range(session, last) == ["worker_19"]
        # The trailing trivia alone re-parses the last chunk, but the
        # function's own lines, and so its summary, are unchanged.
        for text in (last + "// more\n", last):
            assert _after_range(session, text) == []
            assert session.last.quals("summary") == ["worker_19"]

    def test_a_header_change_elaborates(self):
        session = self._warm()
        held = session._files["unit.vlt"].ctx
        text = self.UNIT.replace("int worker_7(int input)",
                                 "int worker_7(int input, int spare)")
        _after_range(session, text)
        assert session.last.context == "elaborated"
        assert session._files["unit.vlt"].ctx is not held

    def test_adding_removing_and_renaming_a_function(self):
        session = self._warm()
        # between two functions: the range replaces no held chunk
        at = self.UNIT.index("\nint worker_10(")
        added = self.UNIT[:at] + "\nint aaa_first(int x) {\n" \
            "    return x;\n}" + self.UNIT[at:]
        assert _after_range(session, added) == ["aaa_first"]
        assert list(session.last.functions)[0] == "aaa_first"
        renamed = added.replace("int worker_3(", "int zzz_last(")
        assert _after_range(session, renamed) == ["zzz_last"]
        assert list(session.last.functions)[-1] == "zzz_last"
        start = renamed.index("int worker_5(")
        removed = renamed[:start] + renamed[renamed.index("\n}\n", start)
                                            + 3:]
        _after_range(session, removed)
        assert "worker_5" not in session.last.functions

    def test_a_module_members_body_edit(self):
        session = self._warm(_MODULE_UNIT)
        text = _MODULE_UNIT.replace("return x + 1;", "return x + 2;")
        assert _after_range(session, text) == ["Counter.bump"]

    def test_a_body_syntax_error_then_its_fix(self):
        session = self._warm()
        at = self.UNIT.index("c.value += ", len(self.UNIT) // 3)
        broken = self.UNIT[:at] + "c.value += ;" + self.UNIT[at + 13:]
        with pytest.raises(VaultError) as raised:
            session.check(broken, "unit.vlt")
        with pytest.raises(VaultError) as expected:
            check_source(broken, "unit.vlt", units=UNITS)
        assert str(raised.value) == str(expected.value)
        fixed = self.UNIT[:at] + "c.value += 7;" + self.UNIT[at + 13:]
        assert len(_after_range(session, fixed)) == 1
        assert session.last.context == "reused"
        assert len(_after_range(session, self.UNIT)) == 1

    def test_a_splice_after_a_chunk_error(self):
        session = self._warm()
        opened = self.UNIT + "/* never closed"
        with pytest.raises(VaultError):
            session.check(opened, "unit.vlt")
        assert len(_after_range(session, _body_edit(self.UNIT))) == 1
        assert session.last.context == "reused"


# ---------------------------------------------------------------------------
# Held render: each function's rendered text is held with its result
# ---------------------------------------------------------------------------


def _renders_like_check_source(session, text, filename="unit.vlt"):
    """Check and render ``text`` in ``session``: byte-identical to
    ``check_source``'s render.  Returns the session's report."""
    report = session.check(text, filename)
    assert report.render() == _plain(text, filename).render()
    return report


def _rendered_pieces(monkeypatch):
    """The diagnostic counts of every non-empty piece a session's
    reporter renders from now on (the held texts it fills, or every
    diagnostic on the fallback path)."""
    from repro.diagnostics import Reporter
    pieces = []
    excerpts = Reporter._excerpts

    def counted(self, diags, with_source=True):
        diags = list(diags)
        if diags and self._held is not None:
            pieces.append(len(diags))
        return excerpts(self, diags, with_source)
    monkeypatch.setattr(Reporter, "_excerpts", counted)
    return pieces


class TestHeldRender:
    UNIT = synthesize_program(40, seed=7, error_rate=0.3)

    def _first_failing(self, session, filename="unit.vlt"):
        """The first function, in sorted order, with diagnostics."""
        entry = session._files[filename].ctx
        return next(qual for qual, diags in zip(entry.quals, entry.results)
                    if diags)

    @pytest.mark.parametrize("edit", ["body", "resave", "insert", "struct"])
    def test_every_edit_kind_renders_like_check_source(self, edit):
        session = fresh_session()
        _renders_like_check_source(session, self.UNIT)
        failing = self._first_failing(session)
        text = {
            "body": _body_edit(self.UNIT, self.UNIT.index(f"int {failing}(")),
            "resave": self.UNIT,
            # a line above every function, most with diagnostics
            "insert": self.UNIT.replace("\n", "\n\n", 1),
            "struct": self.UNIT.replace("int extra;", "int extra; int more;"),
        }[edit]
        _renders_like_check_source(session, text)
        assert session.last.context == {
            "body": "reused", "resave": "held", "insert": "reused",
            "struct": "elaborated"}[edit]
        _renders_like_check_source(session, text)

    def test_a_body_edit_renders_one_function(self, monkeypatch):
        session = fresh_session()
        session.check(self.UNIT, "unit.vlt").render()
        failing = self._first_failing(session)
        pieces = _rendered_pieces(monkeypatch)
        edited = _body_edit(self.UNIT, self.UNIT.index(f"int {failing}("))
        report = session.check(edited, "unit.vlt")
        assert pieces == []          # rendered lazily, by render()
        assert report.render() == _plain(edited, "unit.vlt").render()
        assert session.last.quals("checked") == [failing]
        entry = session._files["unit.vlt"].ctx
        assert pieces == [len(entry.results[entry.index[failing]])]
        del pieces[:]
        session.check(edited, "unit.vlt").render()
        assert pieces == []          # a re-save renders nothing

    def test_an_interface_edit_renders_every_diagnostic_once(
            self, monkeypatch):
        session = fresh_session()
        session.check(self.UNIT, "unit.vlt").render()
        pieces = _rendered_pieces(monkeypatch)
        text = self.UNIT.replace("int extra;", "int extra; int more;")
        report = _renders_like_check_source(session, text)
        assert sum(pieces) == len(report.diagnostics)

    def test_a_summary_replay(self):
        # A line inserted above every function moves them all: each
        # replays its summary, and its text is rendered at its new
        # place.
        session = fresh_session()
        _renders_like_check_source(session, self.UNIT)
        failing = self._first_failing(session)
        _renders_like_check_source(session,
                                   self.UNIT.replace("\n", "\n\n", 1))
        assert failing in session.last.quals("summary")

    def test_a_whole_unit_retry(self, monkeypatch):
        from repro.pipeline.session import _WholeUnit
        session = fresh_session()
        _renders_like_check_source(session, self.UNIT)
        parse_bodies = session._parse_bodies
        raised = []

        def once(fundefs, filename):
            if fundefs and not raised:
                raised.append(filename)
                raise _WholeUnit()
            return parse_bodies(fundefs, filename)

        monkeypatch.setattr(session, "_parse_bodies", once)
        edited = _body_edit(self.UNIT)
        _renders_like_check_source(session, edited)
        assert raised and session.last.whole_parse
        _renders_like_check_source(session, _body_edit(edited, 0))

    def test_a_file_record_replay(self, tmp_path):
        cache = str(tmp_path / "cache")
        _renders_like_check_source(fresh_session(cache_dir=cache), self.UNIT)
        session = fresh_session(cache_dir=cache)
        _renders_like_check_source(session, self.UNIT)
        assert session.last.record_replayed
        _renders_like_check_source(session, _body_edit(self.UNIT))
        # a later process: the record's summaries answer an edit
        later = fresh_session(cache_dir=cache)
        _renders_like_check_source(later, _body_edit(self.UNIT, 0))
        assert later.last.quals("summary")

    @pytest.mark.parametrize("crlf", [False, True])
    def test_line_numbering_cases(self, crlf):
        # TestLineNumbering's units, CRLF or not, edited in place.
        units = [TestLineNumbering.LAST_LINE, TestLineNumbering.LEAK,
                 synthesize_program(12, seed=6, error_rate=0.5)]
        for source in units:
            if crlf:
                source = source.replace("\n", "\r\n")
            session = fresh_session()
            for text in (source, source.replace("region", "region ", 1),
                         "\n" + source, source):
                _renders_like_check_source(session, text, "q.vlt")

    #: each failing function shares a line with a neighbour
    SHARED = ("int f() { return 1; } void g() { "
              "tracked(R) region r = Region.create(); }\n"
              "void h() { tracked(R) region r = Region.create(); } // tail\n"
              "int i() { return 3; }\n")

    @pytest.mark.parametrize("edit", [
        # the chunk before g, on g's line, keeps its length
        ("return 1;", "return 7;"),
        # the chunk after h starts with h's line's comment
        ("// tail", "// tbil"),
        # both at once: g sits between them, so the range parses it
        ("return 1; } void g() { tracked(R) region r = Region.create(); }\n"
         "void h() { tracked(R) region r = Region.create(); } // tail",
         "return 7; } void g() { tracked(R) region r = Region.create(); }\n"
         "void h() { tracked(R) region r = Region.create(); } // tbil"),
    ])
    def test_a_served_function_whose_line_changed(self, edit):
        # The edited chunk's neighbour is served from its held result,
        # but the line it quotes is not the one it was rendered with.
        session = fresh_session()
        _renders_like_check_source(session, self.SHARED, "s.vlt")
        text = self.SHARED.replace(*edit)
        _renders_like_check_source(session, text, "s.vlt")
        assert session.last.context == "reused"
        if "void g" not in edit[0]:
            assert session.last.quals("held")

    def test_a_line_outside_the_function_renders_every_time(
            self, monkeypatch):
        # The alias's unknown type is reported on the alias's line,
        # outside g: its text is never held.
        alias = "type cb = void f(Bogus x);\n"
        body = "void g() {\n    cb h;\n}\n"
        session = fresh_session()
        _renders_like_check_source(session, alias + body, "alias.vlt")
        pieces = _rendered_pieces(monkeypatch)
        _renders_like_check_source(session, alias + body, "alias.vlt")
        assert session.last.context == "held"
        assert pieces == [1]

    def test_without_quotes_every_diagnostic_renders(self, monkeypatch):
        session = fresh_session()
        report = session.check(self.UNIT, "unit.vlt")
        pieces = _rendered_pieces(monkeypatch)
        assert report.render(with_source=False) == \
            _plain(self.UNIT, "unit.vlt").render(with_source=False)
        assert pieces == [len(report.diagnostics)]
        assert report.render() == _plain(self.UNIT, "unit.vlt").render()

    def test_a_diagnostic_appended_after_check(self):
        session = fresh_session()
        report = session.check(self.UNIT, "unit.vlt")
        report.render()
        expected = _plain(self.UNIT, "unit.vlt")
        extra = expected.diagnostics[0]
        report.diagnostics.append(extra)
        expected.diagnostics.append(extra)
        assert report.render() == expected.render()

    def test_a_report_rendered_after_the_next_check(self):
        # The next check changes the held pieces; the earlier report
        # still renders its own diagnostics.
        session = fresh_session()
        report = session.check(self.UNIT, "unit.vlt")
        failing = self._first_failing(session)
        edited = self.UNIT.replace(f"int {failing}(int input) {{\n",
                                   f"int {failing}(int input) {{\n"
                                   "    Region.delete(rgn);\n", 1)
        later = session.check(edited, "unit.vlt")
        assert report.render() == _plain(self.UNIT, "unit.vlt").render()
        assert later.render() == _plain(edited, "unit.vlt").render()

    def test_a_kept_report_holds_no_context(self):
        # An interface edit elaborates a new context: the report of the
        # check before must not keep the old one (and its functions'
        # nodes) alive, nor the parses of the chunks an edit replaced,
        # although it quotes its lines from its own split.
        import gc
        import weakref
        session = fresh_session()
        report = session.check(self.UNIT, "unit.vlt")
        state = session._files["unit.vlt"]
        entry = weakref.ref(state.ctx)
        parses = [weakref.ref(chunk.parsed.program)
                  for chunk in state.split.chunks]
        edited = self.UNIT.replace("int extra;", "int extra; int more;")
        session.check(edited, "unit.vlt")
        gc.collect()
        assert entry() is None
        k, j, _ = state.split.spliced
        assert [parse() is None for parse in parses] == \
            [k <= i < j for i in range(len(parses))]
        # a line above every chunk replaces them all
        session.check("\n" + edited, "unit.vlt")
        gc.collect()
        assert all(parse() is None for parse in parses)
        assert report.render() == _plain(self.UNIT, "unit.vlt").render()


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
assert session.last.functions_checked > 0
print(session.last.functions_checked)
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
        assert session.last.functions_checked == 0
        assert session.last.quals("checked") == []
        assert session.last.functions_replayed == checked_in_child
        assert report.render() == check_source(source, units=UNITS).render()
