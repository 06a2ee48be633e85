"""Splitting a compilation unit into top-level declaration chunks.

The incremental pipeline re-parses only the top-level declarations
whose text changed.  This module provides the cheap textual scanner
that finds declaration boundaries: a top-level declaration ends at a
``;`` or ``}`` at brace depth zero.  The scanner mirrors exactly the
lexer's treatment of comments, string literals, and Vault's tick
tokens (``'Name`` constructors vs. ``'x'`` / ``'{'`` char literals) so
that braces inside those never count toward the depth.  Square
brackets at depth zero are tracked too: a keyed variant's constructor
list (``variant v<key K> [ 'A {K@q0} | 'B ];``) holds key lists in
braces, and those neither end the declaration nor start a body.  It
also records each chunk's first ``{`` at depth zero outside brackets:
for a function definition, the split between the header (all a context
needs) and the body (parsed only when the function is checked).

The scanner is deliberately conservative: on anything it cannot
classify (unterminated comment or string, stray characters, unbalanced
braces or brackets) it raises
:class:`ChunkError` and the caller falls back to parsing the whole
unit, so error behaviour is identical to the non-incremental path.
"""

from __future__ import annotations

import re
from typing import List


class ChunkError(Exception):
    """The source cannot be split safely; parse it whole instead."""


class Chunk:
    """One top-level declaration's text plus its position in the unit.

    ``start_line``/``start_col`` are 1-based.  Concatenating the
    ``text`` of all chunks reproduces the source exactly; leading
    trivia belongs to the following chunk, trailing trivia to the last.

    ``brace`` is the offset in ``text`` of the first ``{`` at brace
    depth zero outside square brackets, or -1.  Its matching ``}`` is
    the declaration's terminator, so for a function definition
    ``text[:brace]`` is the header and ``text[brace:end]`` the body.
    ``end`` is the offset just past the terminator: ``len(text)``
    except for a last chunk that carries the unit's trailing trivia.
    """

    __slots__ = ("text", "start_line", "start_col", "brace", "end")

    def __init__(self, text: str, start_line: int, start_col: int,
                 brace: int = -1, end: int = -1):
        self.text = text
        self.start_line = start_line
        self.start_col = start_col
        self.brace = brace
        self.end = end if end >= 0 else len(text)

    def __repr__(self) -> str:
        return (f"Chunk(line={self.start_line}, col={self.start_col}, "
                f"{len(self.text)} chars)")


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


#: The only characters the scanner has to stop on: newlines (line
#: tracking), comment/string/tick openers, and the brace/semicolon
#: structure.  Everything between two stops — the bulk of any real
#: unit — is skipped in one C-speed regex search instead of the
#: character-at-a-time loop this replaced.
_STRUCT = re.compile(r"[\n/\"'{};\[\]]")

#: Body of a string literal after the opening quote: escape pairs
#: (backslash consumes the next character, whatever it is — including
#: a newline, matching both the lexer and the character scanner this
#: replaced) or any plain character that isn't a quote, newline, or
#: backslash.  The match always stops at the terminator, a bare
#: newline, a trailing lone backslash, or end of input.
_STRING_BODY = re.compile(r"(?:\\[\s\S]|[^\"\n\\])*")


def split_chunks(source: str) -> List[Chunk]:
    """Split a compilation unit into one chunk per top-level declaration,
    each with the offset of its first depth-zero ``{`` outside brackets
    (where a function's body starts; see :class:`Chunk`)."""
    chunks: List[Chunk] = []
    n = len(source)
    i = 0
    line = 1
    line_start = 0
    # Position of the current chunk's first character.
    chunk_start = 0
    chunk_line = 1
    chunk_col = 1
    chunk_brace = -1
    depth = 0
    #: open ``[`` at depth zero; braces inside them are key lists
    brackets = 0
    search = _STRUCT.search

    while True:
        m = search(source, i)
        if m is None:
            break
        i = m.start()
        ch = source[i]
        if ch == "\n":
            line += 1
            line_start = i + 1
            i += 1
        elif ch == "/":
            nxt = source[i + 1] if i + 1 < n else ""
            if nxt == "/":
                j = source.find("\n", i)
                i = n if j == -1 else j
            elif nxt == "*":
                j = source.find("*/", i + 2)
                if j == -1:
                    raise ChunkError("unterminated block comment")
                nl = source.count("\n", i, j + 2)
                if nl:
                    line += nl
                    line_start = source.rfind("\n", i, j + 2) + 1
                i = j + 2
            else:
                i += 1
        elif ch == '"':
            j = _STRING_BODY.match(source, i + 1).end()
            if j >= n or source[j] != '"':
                if j < n and source[j] == "\n":
                    raise ChunkError("newline in string literal")
                raise ChunkError("unterminated string literal")
            i = j + 1
        elif ch == "'":
            # Mirror the lexer: ``'x'``/``'{'`` are char literals (their
            # payload must not affect brace depth), ``'Name`` is a
            # constructor token with no closing tick.
            head = source[i + 1] if i + 1 < n else ""
            if head.isalpha() or head == "_":
                j = i + 1
                while j < n and _is_ident_char(source[j]):
                    j += 1
                if j - (i + 1) == 1 and j < n and source[j] == "'":
                    i = j + 1          # 'x' char literal
                else:
                    i = j              # 'Name constructor
            elif head and i + 2 < n and source[i + 2] == "'":
                i += 3                 # '{' style char literal
            else:
                raise ChunkError("stray tick")
        elif ch == "{":
            if depth == 0 and brackets == 0 and chunk_brace < 0:
                chunk_brace = i - chunk_start
            depth += 1
            i += 1
        elif ch == "}":
            depth -= 1
            i += 1
            if depth < 0:
                raise ChunkError("unbalanced braces")
            if depth == 0 and brackets == 0:
                chunks.append(Chunk(source[chunk_start:i],
                                    chunk_line, chunk_col, chunk_brace))
                chunk_start = i
                chunk_line = line
                chunk_col = i - line_start + 1
                chunk_brace = -1
        elif ch == "[":
            if depth == 0:
                brackets += 1
            i += 1
        elif ch == "]":
            if depth == 0:
                brackets -= 1
                if brackets < 0:
                    raise ChunkError("unbalanced brackets")
            i += 1
        else:  # ";"
            i += 1
            if depth == 0 and brackets == 0:
                chunks.append(Chunk(source[chunk_start:i],
                                    chunk_line, chunk_col, chunk_brace))
                chunk_start = i
                chunk_line = line
                chunk_col = i - line_start + 1
                chunk_brace = -1

    if depth != 0:
        raise ChunkError("unbalanced braces")
    if brackets != 0:
        raise ChunkError("unbalanced brackets")
    if chunk_start < n:
        # Trailing text after the last terminator: usually pure trivia.
        # Attach it to the previous chunk so the chunk list stays one
        # entry per declaration.
        if chunks:
            last = chunks[-1]
            chunks[-1] = Chunk(last.text + source[chunk_start:],
                               last.start_line, last.start_col,
                               last.brace, last.end)
        else:
            chunks.append(Chunk(source, chunk_line, chunk_col))
    return chunks
