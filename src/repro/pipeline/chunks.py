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

The scan stops only where the structure can change (see ``_TOP`` and
``_BODY``): a 640-function unit takes about 3.9k stops, against 18.8k
when every newline and ``;`` was one.

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


#: The characters the scanner stops on at depth zero: comment, string
#: and tick openers, braces, and the ``;``/``[``/``]`` structure that
#: only matters outside a body.  Inside a body only comments, literals
#: and braces can change the structure, so the scan skips ``;`` and
#: brackets there.  Newlines are never stops: a chunk's position is
#: counted from its text once it ends.  Everything between two stops is
#: skipped in one C-speed regex search.
_TOP = re.compile(r"[/\"'{};\[\]]")
_BODY = re.compile(r"[/\"'{}]")

#: Body of a string literal after the opening quote: escape pairs
#: (backslash consumes the next character, whatever it is — including
#: a newline, matching the lexer) or any plain character that isn't a
#: quote, newline, or backslash.  The match always stops at the
#: terminator, a bare newline, a trailing lone backslash, or end of
#: input.
_STRING_BODY = re.compile(r"(?:\\[\s\S]|[^\"\n\\])*")

#: The rest of a tick token's name: ``str.isalnum`` characters and ``_``.
_WORD = re.compile(r"\w*")


def split_chunks(source: str) -> List[Chunk]:
    """Split a compilation unit into one chunk per top-level declaration,
    each with the offset of its first depth-zero ``{`` outside brackets
    (where a function's body starts; see :class:`Chunk`)."""
    chunks: List[Chunk] = []
    n = len(source)
    i = depth = 0
    # The current chunk's first offset, its line and column, and its
    # first body brace.
    chunk_start, chunk_line, chunk_col, chunk_brace = 0, 1, 1, -1
    #: open ``[`` at depth zero; braces inside them are key lists
    brackets = 0
    top = search = _TOP.search
    body = _BODY.search

    while True:
        m = search(source, i)
        if m is None:
            break
        at = m.start()
        ch = source[at]
        i = at + 1
        if ch == "{":
            if depth == 0:
                if brackets == 0 and chunk_brace < 0:
                    chunk_brace = at - chunk_start
                search = body
            depth += 1
            continue
        if ch == "}":
            depth -= 1
            if depth < 0:
                raise ChunkError("unbalanced braces")
            if depth == 0:
                search = top
            if depth or brackets:
                continue
        elif ch == ";":
            if brackets:
                continue
        else:
            if ch == "'":
                # Mirror the lexer: ``'x'``/``'{'`` are char literals
                # (their payload must not affect brace depth), ``'Name``
                # is a constructor token with no closing tick.
                head = source[i] if i < n else ""
                if head.isalpha() or head == "_":
                    j = _WORD.match(source, i).end()
                    # 'x' char literal, or 'Name constructor
                    i = j + 1 if j == i + 1 and source[j:j + 1] == "'" else j
                elif head and at + 2 < n and source[at + 2] == "'":
                    i = at + 3             # '{' style char literal
                else:
                    raise ChunkError("stray tick")
            elif ch == '"':
                j = _STRING_BODY.match(source, i).end()
                if source[j:j + 1] != '"':
                    if source[j:j + 1] == "\n":
                        raise ChunkError("newline in string literal")
                    raise ChunkError("unterminated string literal")
                i = j + 1
            elif ch == "/":
                if source.startswith("/", i):
                    j = source.find("\n", i)
                    i = n if j == -1 else j
                elif source.startswith("*", i):
                    j = source.find("*/", i + 1)
                    if j == -1:
                        raise ChunkError("unterminated block comment")
                    i = j + 2
            elif ch == "[":
                brackets += 1
            else:  # "]"
                brackets -= 1
                if brackets < 0:
                    raise ChunkError("unbalanced brackets")
            continue
        # A top-level ``;`` or ``}`` ends the chunk just before ``i``;
        # the next chunk starts where its newlines leave off.
        text = source[chunk_start:i]
        chunks.append(Chunk(text, chunk_line, chunk_col, chunk_brace))
        nl = text.count("\n")
        if nl:
            chunk_line += nl
            chunk_col = len(text) - text.rfind("\n")
        else:
            chunk_col += len(text)
        chunk_start, chunk_brace = i, -1

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
