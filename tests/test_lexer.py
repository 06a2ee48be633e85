"""Lexer unit tests."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.diagnostics import LexError
from repro.syntax import tokenize
from repro.syntax.tokens import T


def kinds(source):
    return [t.kind for t in tokenize(source)][:-1]  # drop EOF


def texts(source):
    return [t.text for t in tokenize(source)][:-1]


class TestBasicTokens:
    def test_empty_input_yields_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind is T.EOF

    def test_identifier(self):
        assert kinds("hello") == [T.IDENT]

    def test_identifier_with_underscores_and_digits(self):
        toks = tokenize("_irp_2 x3")
        assert toks[0].text == "_irp_2"
        assert toks[1].text == "x3"

    def test_keywords_are_distinguished(self):
        assert kinds("tracked key stateset variant") == [
            T.KW_TRACKED, T.KW_KEY, T.KW_STATESET, T.KW_VARIANT]

    def test_keyword_prefix_is_identifier(self):
        assert kinds("trackedness") == [T.IDENT]

    def test_int_literal(self):
        toks = tokenize("42")
        assert toks[0].kind is T.INT
        assert toks[0].text == "42"

    def test_hex_literal(self):
        toks = tokenize("0x1F")
        assert toks[0].kind is T.INT
        assert int(toks[0].text, 0) == 31

    def test_float_literal(self):
        assert kinds("3.25") == [T.FLOAT]

    def test_float_with_exponent(self):
        assert kinds("1e9 2.5e-3") == [T.FLOAT, T.FLOAT]

    def test_int_then_dot_method_is_not_float(self):
        # ``1.x`` style: the dot must not glue to the int without digits
        assert kinds("7 .") == [T.INT, T.DOT]

    def test_string_literal(self):
        toks = tokenize('"hello world"')
        assert toks[0].kind is T.STRING
        assert toks[0].text == "hello world"

    def test_string_escapes(self):
        toks = tokenize(r'"a\nb\tc\\d\"e"')
        assert toks[0].text == 'a\nb\tc\\d"e'

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_constructor_token(self):
        toks = tokenize("'SomeKey")
        assert toks[0].kind is T.CTOR
        assert toks[0].text == "SomeKey"

    def test_char_literal(self):
        toks = tokenize("'a'")
        assert toks[0].kind is T.CHAR
        assert toks[0].text == "a"

    def test_underscore_token(self):
        assert kinds("_") == [T.UNDERSCORE]


class TestOperators:
    def test_single_char_operators(self):
        assert kinds("( ) { } [ ] ; , . : @ + - * / % ! < > = |") == [
            T.LPAREN, T.RPAREN, T.LBRACE, T.RBRACE, T.LBRACKET, T.RBRACKET,
            T.SEMI, T.COMMA, T.DOT, T.COLON, T.AT, T.PLUS, T.MINUS, T.STAR,
            T.SLASH, T.PERCENT, T.BANG, T.LT, T.GT, T.ASSIGN, T.PIPE]

    def test_two_char_operators(self):
        assert kinds("-> && || == != <= >= ++ -- += -=") == [
            T.ARROW, T.AMPAMP, T.PIPEPIPE, T.EQ, T.NE, T.LE, T.GE,
            T.PLUSPLUS, T.MINUSMINUS, T.PLUSEQ, T.MINUSEQ]

    def test_maximal_munch(self):
        # ``a->b`` is ARROW, not MINUS GT
        assert kinds("a->b") == [T.IDENT, T.ARROW, T.IDENT]

    def test_plusplus_vs_plus(self):
        assert kinds("a+++b") == [T.IDENT, T.PLUSPLUS, T.PLUS, T.IDENT]

    def test_unknown_character_raises(self):
        with pytest.raises(LexError):
            tokenize("a $ b")


class TestTrivia:
    def test_line_comment(self):
        assert kinds("a // comment\n b") == [T.IDENT, T.IDENT]

    def test_block_comment(self):
        assert kinds("a /* x\ny */ b") == [T.IDENT, T.IDENT]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("/* never closed")

    def test_whitespace_is_skipped(self):
        assert kinds("  a\t\r\n  b ") == [T.IDENT, T.IDENT]


class TestSpans:
    def test_line_and_column_tracking(self):
        toks = tokenize("ab\n  cd")
        assert toks[0].span.start.line == 1
        assert toks[0].span.start.col == 1
        assert toks[1].span.start.line == 2
        assert toks[1].span.start.col == 3

    def test_filename_is_carried(self):
        toks = tokenize("x", filename="foo.vlt")
        assert toks[0].span.filename == "foo.vlt"

    def test_effect_clause_tokens(self):
        src = "[K@a->b, -L, +M, new N@c]"
        assert kinds(src) == [
            T.LBRACKET, T.IDENT, T.AT, T.IDENT, T.ARROW, T.IDENT, T.COMMA,
            T.MINUS, T.IDENT, T.COMMA, T.PLUS, T.IDENT, T.COMMA, T.KW_NEW,
            T.IDENT, T.AT, T.IDENT, T.RBRACKET]


class TestNextToken:
    """The streaming interface's end-of-input contract."""

    def test_serves_each_token_once_then_eof(self):
        from repro.syntax import Lexer
        lexer = Lexer("a b")
        assert lexer.next_token().text == "a"
        assert lexer.next_token().text == "b"
        assert lexer.next_token().kind is T.EOF

    def test_past_eof_raises_instead_of_reserving_eof(self):
        from repro.syntax import Lexer
        lexer = Lexer("x")
        lexer.next_token()                    # x
        eof = lexer.next_token()              # EOF, served exactly once
        assert eof.kind is T.EOF
        with pytest.raises(LexError, match="past end of input"):
            lexer.next_token()

    def test_past_eof_on_empty_input(self):
        from repro.syntax import Lexer
        lexer = Lexer("")
        assert lexer.next_token().kind is T.EOF
        with pytest.raises(LexError, match="past end of input"):
            lexer.next_token()


def shapes(source):
    return [(t.kind, t.text, t.line, t.col, t.end_col, t.offset, t.end_offset)
            for t in tokenize(source, "f.vlt")]


def lex_error(source):
    with pytest.raises(LexError) as err:
        tokenize(source, "f.vlt")
    span = err.value.span
    return err.value.message, span.start.line, span.start.col


class TestFoldedTrivia:
    """Each token's match carries its leading trivia.  When no token
    branch accepts the character after a comment, the pattern's
    catch-all must take it; without that branch the regex backtracks
    into the comment and lexes part of it as operators.  Expected
    values were recorded from the two-match-per-token lexer."""

    def test_comment_then_tick_constructor(self):
        assert shapes("/* c */'A") == [
            (T.CTOR, "A", 1, 8, 10, 7, 9),
            (T.EOF, "", 1, 10, 10, 9, 9)]

    def test_line_comment_then_char_literal(self):
        assert shapes("// x\n'x'") == [
            (T.CHAR, "x", 2, 1, 4, 5, 8),
            (T.EOF, "", 2, 4, 4, 8, 8)]

    def test_comment_then_unterminated_string(self):
        assert lex_error('/* c */ "abc') == \
            ("unterminated string literal", 1, 9)

    def test_trailing_comment_at_eof(self):
        assert shapes("a /* trailing */") == [
            (T.IDENT, "a", 1, 1, 2, 0, 1),
            (T.EOF, "", 1, 17, 17, 16, 16)]

    def test_unterminated_block_comment_after_whitespace(self):
        assert lex_error("x  /* open") == \
            ("unterminated block comment", 1, 4)
        assert lex_error("  \n/* unterminated") == \
            ("unterminated block comment", 2, 1)

    def test_comment_then_stray_character(self):
        # ``Span.point`` carries no offset.
        assert lex_error("/* c */#") == \
            ("unexpected character '#'", 1, 8)


class TestNoTokenSpansALine:
    def test_escaped_newline_in_string_is_rejected(self):
        # Accepting it shifted every later diagnostic up one line: the
        # undefined ``y`` below was reported on line 3.
        source = 'void f() {\n  string s = "a\\\nb";\n  int x = y;\n}\n'
        assert lex_error(source) == \
            ("unterminated string literal", 2, 14)

    def test_newline_char_literal_is_rejected(self):
        assert lex_error("x = '\n';\ny") == \
            ("expected constructor name after '", 1, 6)

    def test_escaped_quote_and_backslash_still_lex(self):
        assert texts('"a\\"b" "\\\\"') == ['a"b', "\\"]


# Fragments biased toward position hazards: multi-line trivia, tick
# tokens, strings with escapes, and texts the lexer must reject.
_FRAGMENTS = st.sampled_from([
    "f", "x1", "_", "'Open", "'x'", "'{'", "'", "42", "0x1F", "3.14",
    '"s"', '"a\\nb"', '"a\\\nb"', "'\n'", '"', "->", "/", "*", "{", "}",
    ";", "// c", "/* c */", "/* two\nlines */", "\\",
])
_SEPARATORS = st.sampled_from(["", " ", "\n", "\t", " \n ", "\r\n"])


@given(st.lists(st.tuples(_FRAGMENTS, _SEPARATORS), max_size=30))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_positions_agree_with_offsets(parts):
    source = "".join(frag + sep for frag, sep in parts)
    try:
        toks = tokenize(source)
    except LexError:
        return
    for tok in toks:
        line_start = source.rfind("\n", 0, tok.offset) + 1
        assert tok.line == source.count("\n", 0, tok.offset) + 1
        assert tok.col == tok.offset - line_start + 1
        assert "\n" not in source[tok.offset:tok.end_offset]
        assert tok.end_col == tok.col + tok.end_offset - tok.offset


# ---------------------------------------------------------------------------
# Slice lexing: tokenize(whole)[k:] == tokenize(whole[off:], line, col).
#
# The session hands each top-level declaration chunk's text to the
# lexer with the chunk's start line and column, so chunked parsing is
# only correct if lexing a suffix of a unit, seeded that way,
# reproduces the whole-unit tokens (offsets shifted by the slice
# start).  The fragments lean on the constructs whose span math is
# easiest to get wrong: tick tokens and multi-line block comments,
# which make a slice start mid-line (line > 1, col > 1).
# ---------------------------------------------------------------------------

_SLICE_FRAGMENTS = st.sampled_from([
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

_SLICE_SEPARATORS = st.sampled_from([" ", "  ", "\n", "\n\n", "\t", " \n "])


@st.composite
def _slice_sources(draw, min_fragments=1, max_fragments=40):
    frags = draw(st.lists(_SLICE_FRAGMENTS, min_size=min_fragments,
                          max_size=max_fragments))
    return "".join(frag + draw(_SLICE_SEPARATORS) for frag in frags)


def _shape(tok):
    """Everything but the offsets (slice lexing shifts those)."""
    return (tok.kind, tok.text, tok.line, tok.col, tok.end_col)


@given(_slice_sources(), st.integers(0, 1000))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
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
