"""Lexer for the Vault surface language.

C-style tokens plus Vault's additions: constructor names ``'Name``
(a tick immediately followed by an identifier), ``@`` for key states,
and ``->`` inside effect clauses.  Comments are C-style ``//`` and
``/* ... */``.

The scanner is one compiled master regular expression driven by a
single :meth:`re.Pattern.finditer` pass.  Each match is one token with
its leading trivia (whitespace and comments) folded in, so a token
costs one match however much trivia precedes it.  The pattern's last
branch is a catch-all (any one character, or the empty string at the
end of the text): after the greedy trivia prefix some branch always
matches, so the regex never backtracks into a preceding comment to
find a token, and consecutive matches are contiguous.  The catch-all
is dispatched in Python: end of input, an unterminated string, a
stray character, or a tick token, which :func:`_lex_tick` scans by
hand before the scan resumes after it.

No token's text spans a line: a string literal may not contain a raw
newline, escaped or not, and neither may a char literal.  Line and
column are therefore tracked incrementally, and only the trivia before
a token advances the line counter.

Tokens carry their positions as scalars and materialize
:class:`~repro.diagnostics.Span` objects lazily (see
:class:`~repro.syntax.tokens.Token`), so the hot loop below performs
exactly one allocation per token.
"""

from __future__ import annotations

import re
from typing import List

from ..diagnostics import LexError, Pos, Span
from .tokens import KEYWORDS, T, Token

_SIMPLE = {
    "(": T.LPAREN, ")": T.RPAREN, "{": T.LBRACE, "}": T.RBRACE,
    "[": T.LBRACKET, "]": T.RBRACKET, ";": T.SEMI, ",": T.COMMA,
    ".": T.DOT, ":": T.COLON, "@": T.AT, "?": T.QUESTION, "%": T.PERCENT,
    "*": T.STAR, "|": T.PIPE,
}

_OPERATORS2 = {
    "->": T.ARROW, "&&": T.AMPAMP, "||": T.PIPEPIPE, "==": T.EQ,
    "!=": T.NE, "<=": T.LE, ">=": T.GE, "++": T.PLUSPLUS,
    "--": T.MINUSMINUS, "+=": T.PLUSEQ, "-=": T.MINUSEQ,
}

_OPERATORS1 = dict(_SIMPLE)
_OPERATORS1.update({"=": T.ASSIGN, "+": T.PLUS, "-": T.MINUS,
                    "/": T.SLASH, "!": T.BANG, "<": T.LT, ">": T.GT})

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", '"': '"'}

#: Identifier and number tokens.  A number takes every letter it can
#: (hex digits, an exponent), so ``0x1Fcell`` lexes as ``0x1Fce`` then
#: the identifier ``ll``; the fingerprint's name scan
#: (:func:`repro.pipeline.fingerprint.scan_names`) splits text the
#: same way.
IDENT_PATTERN = r"[A-Za-z_][A-Za-z0-9_]*"
NUMBER_PATTERN = r"0[xX][0-9a-fA-F]*|\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"

#: One master pattern: a greedy trivia prefix, then the token branches.
#: Branch order resolves ambiguities (two-char operators before their
#: one-char prefixes, hex before decimal).  ``OPEN`` is a ``/*`` the
#: trivia prefix could not close.  The branch taken is recovered via
#: ``Match.lastindex`` (an int compare) rather than ``lastgroup``; the
#: group numbers are pinned by the constants below.
_MASTER = re.compile(
    r"""
    (?:[ \t\r\n]+|//[^\n]*|/\*(?:[^*]|\*(?!/))*\*/)*
    (?:
      (?P<IDENT>""" + IDENT_PATTERN + r""")
    | (?P<NUMBER>""" + NUMBER_PATTERN + r""")
    | (?P<STRING>"(?:[^"\\\n]|\\[^\n])*")
    | (?P<OP2>->|&&|\|\||==|!=|<=|>=|\+\+|--|\+=|-=)
    | (?P<OPEN>/\*)
    | (?P<OP1>[()\{\}\[\];,.:@?%*|=+\-/!<>])
    | (?P<OTHER>[\s\S]|\Z)
    )
    """,
    re.VERBOSE,
)

_G_IDENT = _MASTER.groupindex["IDENT"]
_G_NUMBER = _MASTER.groupindex["NUMBER"]
_G_STRING = _MASTER.groupindex["STRING"]
_G_OP2 = _MASTER.groupindex["OP2"]
_G_OPEN = _MASTER.groupindex["OPEN"]
_G_OP1 = _MASTER.groupindex["OP1"]

_IDENT_CHARS = re.compile(r"[A-Za-z0-9_]*")

_FLOAT_MARK = re.compile(r"[.eE]")

#: identifier-shaped texts resolve through one dict: keywords map to
#: their keyword kind, ``_`` to UNDERSCORE, everything else to IDENT.
_IDENT_KINDS = dict(KEYWORDS)
_IDENT_KINDS["_"] = T.UNDERSCORE


def _tokenize(source: str, filename: str, first_line: int = 1,
              first_col: int = 1) -> List[Token]:
    tokens: List[Token] = []
    append = tokens.append
    n = len(source)
    # ``first_line``/``first_col`` seed the line tracker, letting a
    # caller lex a slice of a larger unit with in-place spans (columns
    # are computed as ``offset - line_start + 1``, so a negative
    # initial ``line_start`` shifts the first line's columns).
    line = first_line
    line_start = 1 - first_col
    ident_kind = _IDENT_KINDS.get
    pos = 0          # end of the previous token: where its trivia starts
    matches = _MASTER.finditer(source)
    # The scan ends at the catch-all's end-of-input match; the outer
    # loop only resumes it after a tick token.
    while True:
        for m in matches:
            group = m.lastindex
            start, end = m.span(group)
            if start != pos:
                # Count newlines on the source directly: materializing
                # the trivia text would be one string per gap.
                nl = source.count("\n", pos, start)
                if nl:
                    line += nl
                    line_start = source.rfind("\n", pos, start) + 1
            else:
                # Share the previous token's end offset: one int object
                # fewer per token that follows another without a gap.
                start = pos
            if group == _G_OP1:
                text = m[group]
                tok_kind = _OPERATORS1[text]
            elif group == _G_IDENT:
                text = m[group]
                tok_kind = ident_kind(text, T.IDENT)
            elif group == _G_NUMBER:
                text = m[group]
                if text[0] == "0" and len(text) > 1 and (text[1] == "x"
                                                         or text[1] == "X"):
                    tok_kind = T.INT
                else:
                    tok_kind = T.FLOAT if _FLOAT_MARK.search(text) else T.INT
            elif group == _G_OP2:
                text = m[group]
                tok_kind = _OPERATORS2[text]
            elif group == _G_STRING:
                tok_kind = T.STRING
                text = source[start + 1:end - 1]
                if "\\" in text:
                    text = _unescape(text)
            elif group == _G_OPEN:
                # Terminated comments were folded into the trivia.
                at = Pos(line, start - line_start + 1)
                raise LexError("unterminated block comment",
                               Span(at, at, filename))
            else:
                # The catch-all: end of input, or a character no token
                # branch accepts.
                if start == n:
                    append(Token(T.EOF, "", line, n - line_start + 1,
                                 n - line_start + 1, n, n, filename))
                    return tokens
                ch = source[start]
                if ch == "'":
                    pos = _lex_tick(source, start, filename, line,
                                    line_start, append)
                    matches = _MASTER.finditer(source, pos)
                    break
                if ch == '"':
                    at = Pos(line, start - line_start + 1)
                    raise LexError("unterminated string literal",
                                   Span(at, at, filename))
                raise LexError(f"unexpected character {ch!r}",
                               Span.point(line, start - line_start + 1,
                                          filename))
            append(Token(tok_kind, text, line, start - line_start + 1,
                         end - line_start + 1, start, end, filename))
            pos = end


def _unescape(body: str) -> str:
    out: List[str] = []
    j = 0
    while j < len(body):
        c = body[j]
        if c == "\\":
            j += 1
            esc = body[j]
            out.append(_ESCAPES.get(esc, esc))
        else:
            out.append(c)
        j += 1
    return "".join(out)


def _lex_tick(source: str, i: int, filename: str, line: int,
              line_start: int, append) -> int:
    """Scan a tick-introduced token: ``'Name`` constructors and
    ``'x'`` / ``'{'`` character literals (same rules as the original
    cursor lexer, except that a char literal may not hold a newline)."""
    col = i - line_start + 1
    j = i + 1
    n = len(source)
    head = source[j] if j < n else ""
    if not (head.isalpha() or head == "_"):
        # A tick, one character and a closing tick is a char literal.
        if head and head != "\n" and j + 1 < n and source[j + 1] == "'":
            append(Token(T.CHAR, head, line, col, j + 3 - line_start,
                         i, j + 2, filename))
            return j + 2
        raise LexError("expected constructor name after '",
                       Span.point(line, j - line_start + 1, filename))
    m = _IDENT_CHARS.match(source, j)
    end = m.end()
    # 'x' style char literal: single letter followed by a closing tick.
    if end - j == 1 and end < n and source[end] == "'":
        append(Token(T.CHAR, source[j], line, col, end + 2 - line_start,
                     i, end + 1, filename))
        return end + 1
    append(Token(T.CTOR, source[j:end], line, col, end - line_start + 1,
                 i, end, filename))
    return end


class Lexer:
    """Converts Vault source text into a token stream.

    Kept for API compatibility; :meth:`tokenize` is the fast path and
    :meth:`next_token` serves the same stream one token at a time.
    """

    def __init__(self, source: str, filename: str = "<input>"):
        self.src = source
        self.filename = filename
        self._tokens: List[Token] = []
        self._cursor = 0

    def tokenize(self) -> List[Token]:
        if not self._tokens:
            self._tokens = _tokenize(self.src, self.filename)
        return self._tokens

    def next_token(self) -> Token:
        """The next token in the stream.

        Contract: the terminating EOF token is served exactly **once**;
        calling ``next_token`` again after EOF raises :class:`LexError`
        instead of silently re-serving it (the old ``min()`` clamp made
        an off-by-one loop spin forever on a soft EOF).
        """
        toks = self.tokenize()
        if self._cursor >= len(toks):
            raise LexError("next_token called past end of input",
                           toks[-1].span)
        tok = toks[self._cursor]
        self._cursor += 1
        return tok


def tokenize(source: str, filename: str = "<input>", first_line: int = 1,
             first_col: int = 1) -> List[Token]:
    """Tokenize Vault source, returning a list ending with an EOF token."""
    return _tokenize(source, filename, first_line, first_col)
