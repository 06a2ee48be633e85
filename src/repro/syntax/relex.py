"""Incremental sub-chunk relexing.

When an edit dirties a chunk, :func:`relex` splices a fresh lex of just
the changed region into the chunk's cached token stream instead of
re-lexing the whole chunk:

1. The old and new chunk texts are diffed to a common byte prefix of
   length ``P`` and a common byte suffix of length ``S`` (clamped so
   they never overlap).
2. Old tokens that end **strictly** before ``P`` are kept as-is (one
   extra token is dropped as a safety margin).  Strictness matters: a
   token ending exactly at ``P`` can be extended by the edit (``ab`` +
   inserted ``c``), and the one-character-lookahead decisions the lexer
   makes at a token's end are only stable while the lookahead character
   itself sits inside the common prefix.  The two-character decision —
   ``/`` followed by ``*`` opening a comment — always involves a ``/``
   token whose end offset equals the boundary, which strict ``<``
   excludes.
3. The changed region is re-lexed from the end of the last kept token
   using the lexer's ``first_line``/``first_col`` slice seeding.  The
   lexer carries no state across token boundaries beyond line tracking,
   so restarting there reproduces the full lex.  The window over the
   new text starts just past the changed region and grows (doubling) if
   it cuts a token in half — a :class:`LexError` from a window-truncated
   string or comment just grows the window, and tokens touching the
   window's edge are never trusted.
4. Fresh tokens are scanned for an **offset alignment**: a fresh token
   whose start, shifted back by ``delta = len(new) - len(old)``, lands
   on an old token start inside the old text's common suffix.  From
   that point the remaining texts are byte-identical modulo ``delta``,
   so the old suffix tokens are reused with spans rebased: offsets
   shift by ``delta``, lines by the aligned pair's line difference, and
   columns shift only for tokens still on the aligned token's line
   (later lines re-derive their columns from unchanged line starts).
   Both shifts are derived from the aligned token pair, never from raw
   newline counts, so the splice agrees with the lexer's own line
   tracking by construction.  (No token spans a line: the lexer
   rejects a newline inside a string or char literal.)
5. When every shift is zero (a same-length edit on one line), the old
   suffix token objects are shared outright.

Any anomaly — no alignment, a kind/text mismatch at the alignment
point, a lex error that survives growing the window to the full text —
returns ``None`` and the caller falls back to a full
:func:`~repro.syntax.lexer.tokenize`, which also re-raises lex errors
with canonical coordinates.  The splice is therefore an optimization
only; it can never change observable output.
"""

from __future__ import annotations

from typing import List, Optional

from ..diagnostics import LexError
from .lexer import tokenize
from .tokens import T, Token

#: Fresh-lex margin past the changed region, and the initial window cap.
_WINDOW_SLACK = 256


class RelexResult:
    """A spliced token stream plus reuse accounting."""

    __slots__ = ("tokens", "reused", "fresh")

    def __init__(self, tokens: List[Token], reused: int, fresh: int):
        self.tokens = tokens
        self.reused = reused
        self.fresh = fresh


def _common_prefix(old: str, new: str) -> int:
    limit = min(len(old), len(new))
    # Block compare first (C speed), then binary-narrow the first
    # differing block; the final few bytes are checked directly.
    lo = 0
    step = 4096
    while lo < limit and old[lo:lo + step] == new[lo:lo + step]:
        lo += step
    hi = min(limit, lo + step)
    while lo < hi:
        mid = (lo + hi) // 2
        if old[lo:mid + 1] == new[lo:mid + 1]:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _common_suffix(old: str, new: str, prefix: int) -> int:
    limit = min(len(old), len(new)) - prefix
    lo = 0
    step = 4096
    while lo < limit and old[len(old) - lo - step:len(old) - lo] == \
            new[len(new) - lo - step:len(new) - lo]:
        lo += step
    hi = min(limit, lo + step)
    while lo < hi:
        mid = (lo + hi) // 2
        if old[len(old) - mid - 1:len(old) - lo] == \
                new[len(new) - mid - 1:len(new) - lo]:
            lo = mid + 1
        else:
            hi = mid
    return lo


def relex(old_text: str, old_tokens: List[Token], new_text: str,
          filename: str = "<input>", first_line: int = 1,
          first_col: int = 1) -> Optional[RelexResult]:
    """Splice a fresh lex of the changed region into ``old_tokens``.

    ``old_tokens`` must be the exact ``tokenize`` output for
    ``old_text`` with the same seeding.  Returns ``None`` when the
    splice cannot be performed safely; the caller should then fall back
    to a full lex.  On success the result's ``tokens`` are guaranteed
    equal (:meth:`Token.__eq__`, spans included) to
    ``tokenize(new_text, filename, first_line, first_col)``.
    """
    if not old_tokens or old_tokens[-1].kind is not T.EOF:
        return None
    if old_text == new_text:
        return RelexResult(old_tokens, len(old_tokens), 0)

    prefix = _common_prefix(old_text, new_text)
    suffix = _common_suffix(old_text, new_text, prefix)
    delta = len(new_text) - len(old_text)

    # Keep old tokens ending strictly inside the common prefix, minus
    # one margin token (see module docstring).
    keep = 0
    for tok in old_tokens:
        if tok.kind is T.EOF or tok.end_offset >= prefix:
            break
        keep += 1
    if keep:
        keep -= 1
    kept = old_tokens[:keep]

    if kept:
        last = kept[-1]
        restart = last.end_offset
        seed_line, seed_col = last.line, last.end_col
    else:
        restart = 0
        seed_line, seed_col = first_line, first_col

    # Old token starts inside the old common suffix, for alignment.
    old_suffix_start = len(old_text) - suffix
    starts = {}
    for idx in range(len(old_tokens) - 1, -1, -1):
        off = old_tokens[idx].offset
        if off < old_suffix_start:
            break
        starts[off] = idx
    new_suffix_start = len(new_text) - suffix

    window_end = min(len(new_text),
                     max(new_suffix_start + _WINDOW_SLACK,
                         restart + _WINDOW_SLACK))
    while True:
        try:
            fresh_slice = tokenize(new_text[restart:window_end], filename,
                                   seed_line, seed_col)
        except LexError:
            if window_end == len(new_text):
                return None
            window_end = min(len(new_text), restart + 2 * (window_end - restart))
            continue

        full_window = window_end == len(new_text)
        fresh: List[Token] = []
        align_at: Optional[int] = None  # old index aligned to fresh[-1]
        for tok in fresh_slice:
            if tok.kind is T.EOF:
                if full_window:
                    fresh.append(Token(T.EOF, "", tok.line, tok.col,
                                       tok.end_col, tok.offset + restart,
                                       tok.end_offset + restart, tok.filename))
                break
            if not full_window and tok.end_offset + restart >= window_end:
                break  # possibly truncated by the window edge
            abs_off = tok.offset + restart
            if abs_off >= new_suffix_start:
                idx = starts.get(abs_off - delta)
                if idx is not None:
                    old_tok = old_tokens[idx]
                    if old_tok.kind is tok.kind and old_tok.text == tok.text:
                        align_at = idx
                        fresh.append(Token(tok.kind, tok.text, tok.line,
                                           tok.col, tok.end_col, abs_off,
                                           tok.end_offset + restart,
                                           tok.filename))
                        break
            fresh.append(Token(tok.kind, tok.text, tok.line, tok.col,
                               tok.end_col, abs_off, tok.end_offset + restart,
                               tok.filename))

        if align_at is not None:
            anchor = fresh.pop()
            old_anchor = old_tokens[align_at]
            line_shift = anchor.line - old_anchor.line
            col_shift = anchor.col - old_anchor.col
            tail: List[Token]
            if delta == 0 and line_shift == 0 and col_shift == 0:
                tail = old_tokens[align_at:]
            else:
                anchor_line = old_anchor.line
                tail = [
                    Token(t.kind, t.text, t.line + line_shift,
                          t.col + (col_shift if t.line == anchor_line else 0),
                          t.end_col + (col_shift if t.line == anchor_line else 0),
                          t.offset + delta, t.end_offset + delta, t.filename)
                    for t in old_tokens[align_at:]
                ]
            tokens = kept + fresh + tail
            return RelexResult(tokens, len(kept) + len(tail), len(fresh))

        if full_window:
            # No alignment: the fresh lex already covers the whole
            # remainder, EOF included.
            return RelexResult(kept + fresh, len(kept), len(fresh))
        window_end = min(len(new_text), restart + 2 * (window_end - restart))
