"""Incremental relexing: slice-lex span math and splice equivalence.

The two invariants the front end's incremental path rests on:

* **slice lexing** — lexing a suffix of a unit with the lexer's
  ``first_line``/``first_col`` seeding reproduces the whole-unit
  tokens (same lines/columns, offsets shifted by the slice start);
  this is what lets the chunker hand each chunk's text to the lexer
  with in-place spans;
* **relex splicing** — :func:`repro.syntax.relex` either returns a
  token stream equal (spans included) to a full ``tokenize`` of the
  new text, or ``None``; it never returns a wrong stream.

The hypothesis generators lean on the constructs whose span math is
easiest to get wrong: tick tokens (``'Name`` constructors and ``'x'``
char literals, where the old cursor lexer had one-character lookahead
rules) and multi-line block comments, which make a slice start mid-line
(line > 1, col > 1) so a bad seed shows up immediately.
"""

import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.diagnostics import LexError
from repro.syntax import T, relex, tokenize

SLOW = settings(max_examples=60,
                suppress_health_check=[HealthCheck.too_slow],
                deadline=None)

# Fragments biased toward span-math hazards: multi-line trivia, tick
# tokens, strings with escapes, and operators the lexer resolves with
# lookahead.  Joined with random separators they produce realistic
# token soup without hitting LexError too often to be useful.
_FRAGMENTS = st.sampled_from([
    "fn", "region", "x1", "_tmp", "Name",
    "'Open", "'Closed", "'C", "'x'", "'{'",
    "0x1F", "42", "3.14", "1e9",
    '"str"', '"a\\nb"', '"\\\\"', '"a\\\nb"',
    "->", "&&", "||", "==", "!=", "<=", ">=", "++", "--", "+=", "-=",
    "{", "}", "(", ")", "[", "]", ";", ",", ".", ":", "@", "|", "=",
    "+", "-", "/", "!", "<", ">", "*", "%",
    "// line comment",
    "/* block */", "/* two\nlines */", "/*\n * three\n * lines */",
])

_SEPARATORS = st.sampled_from([" ", "  ", "\n", "\n\n", "\t", " \n "])


@st.composite
def _sources(draw, min_fragments=1, max_fragments=40):
    frags = draw(st.lists(_FRAGMENTS, min_size=min_fragments,
                          max_size=max_fragments))
    seps = [draw(_SEPARATORS) for _ in frags]
    out = []
    for frag, sep in zip(frags, seps):
        out.append(frag)
        out.append(sep)
    return "".join(out)


def _shape(tok):
    """Everything but the offsets (slice lexing shifts those)."""
    return (tok.kind, tok.text, tok.line, tok.col, tok.end_col)


# ---------------------------------------------------------------------------
# Slice lexing: tokenize(whole)[k:] == tokenize(whole[off:], line, col).
# ---------------------------------------------------------------------------

@given(_sources(), st.integers(0, 1000))
@SLOW
def test_slice_lex_matches_whole_lex(source, pick):
    try:
        whole = tokenize(source)
    except LexError:
        return
    k = pick % len(whole)
    tok = whole[k]
    if tok.kind is T.EOF:
        return
    sliced = tokenize(source[tok.offset:], first_line=tok.line,
                      first_col=tok.col)
    assert [_shape(t) for t in sliced] == [_shape(t) for t in whole[k:]]
    for s, w in zip(sliced, whole[k:]):
        assert s.offset + tok.offset == w.offset
        assert s.end_offset + tok.offset == w.end_offset


def test_slice_lex_after_straddling_block_comment():
    # The comment ends mid-line, so the next token starts at line 3,
    # col > 1 — the seed a chunk handed to the lexer actually carries.
    source = "first\n/* straddles\ntwo lines */ 'Ctor 'x' last"
    whole = tokenize(source)
    tick = next(t for t in whole if t.kind is T.CTOR)
    assert (tick.line, tick.col) == (3, 14)
    sliced = tokenize(source[tick.offset:], first_line=tick.line,
                      first_col=tick.col)
    assert [_shape(t) for t in sliced] == \
        [_shape(t) for t in whole[whole.index(tick):]]


# ---------------------------------------------------------------------------
# Relex splicing: equal to a full lex, or None — never a wrong stream.
# ---------------------------------------------------------------------------

_EDITS = st.sampled_from([
    "", "z", "4242", "'New", "'y'", '"s"', "/* c */", "/*\n*/",
    "a + b;", "\n", "{ }",
])


@given(_sources(min_fragments=2), st.integers(0, 10_000),
       st.integers(0, 12), _EDITS)
@SLOW
def test_relex_equals_full_tokenize(old, at, width, insert):
    try:
        old_tokens = tokenize(old)
    except LexError:
        return
    at = at % (len(old) + 1)
    new = old[:at] + insert + old[at + width:]
    result = relex(old, old_tokens, new)
    try:
        full = tokenize(new)
    except LexError:
        # The edit produced an unlexable text: the splice must refuse
        # (the session then falls back and surfaces the error).
        assert result is None
        return
    if result is not None:
        assert result.tokens == full
        assert result.reused + result.fresh == len(result.tokens)


@given(_sources(min_fragments=2), st.integers(0, 10_000), _EDITS,
       st.integers(1, 40), st.integers(1, 30))
@SLOW
def test_relex_respects_slice_seeding(old, at, insert, line, col):
    try:
        old_tokens = tokenize(old, first_line=line, first_col=col)
    except LexError:
        return
    at = at % (len(old) + 1)
    new = old[:at] + insert + old[at:]
    result = relex(old, old_tokens, new, first_line=line, first_col=col)
    try:
        full = tokenize(new, first_line=line, first_col=col)
    except LexError:
        assert result is None
        return
    if result is not None:
        assert result.tokens == full


def test_relex_identical_text_reuses_everything():
    text = "region r { fn f() {} }"
    toks = tokenize(text)
    result = relex(text, toks, text)
    assert result is not None and result.fresh == 0
    assert result.tokens is toks


def test_relex_same_length_edit_shares_suffix_tokens():
    old = "x = 1; y = 2; z = 3;"
    new = "x = 9; y = 2; z = 3;"
    old_tokens = tokenize(old)
    result = relex(old, old_tokens, new)
    assert result is not None
    assert result.tokens == tokenize(new)
    # Zero-shift splice: the suffix tokens are the same objects.
    assert result.tokens[-2] is old_tokens[-2]


def test_relex_refuses_unlexable_edit():
    old = 'a = "ok";'
    old_tokens = tokenize(old)
    new = 'a = "broken\n";'
    with pytest.raises(LexError):
        tokenize(new)
    assert relex(old, old_tokens, new) is None
