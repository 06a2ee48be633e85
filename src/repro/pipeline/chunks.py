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

Given the split of the revision before (``held``), the scan splices
instead: it re-scans only from the first chunk the edit touches to the
first chunk boundary past the edit that is one of the held revision's,
and carries every other held chunk over, moved to its new offset,
line and column.  A chunk boundary is a clean scanner state (depth
zero, no open bracket, the ``_TOP`` search), so the scan from there on
is the same as a cold scan's; a cold split is the same loop entered at
offset 0.  A one-constant body edit of a 640-function unit re-scans
one chunk instead of all 200 KB.

The scanner is deliberately conservative: on anything it cannot
classify (unterminated comment or string, stray characters, unbalanced
braces or brackets) it raises
:class:`ChunkError` and the caller falls back to parsing the whole
unit, so error behaviour is identical to the non-incremental path.
A splice raises exactly when the cold scan of the same source does.
"""

from __future__ import annotations

import hashlib
import re
from typing import List, Optional, Sequence


class ChunkError(Exception):
    """The source cannot be split safely; parse it whole instead."""


class Chunk:
    """One top-level declaration's place in the unit.

    The chunk is ``source[start:stop]`` (its ``text``): chunks point
    into the one unit string rather than copying it.
    ``start_line``/``start_col`` are 1-based.  Concatenating the
    ``text`` of all chunks reproduces the source exactly; leading
    trivia belongs to the following chunk, trailing trivia to the last.

    ``brace`` is the offset in ``text`` of the first ``{`` at brace
    depth zero outside square brackets, or -1.  Its matching ``}`` is
    the declaration's terminator, so for a function definition
    ``text[:brace]`` is the header and ``text[brace:end]`` the body.
    ``end`` is the offset just past the terminator: ``len(text)``
    except for a last chunk that carries the unit's trailing trivia.

    ``sha`` is the SHA-256 hex digest of ``text`` once :meth:`digest`
    has computed it, else ``None``.  A chunk a splice carries over
    keeps it, so only the chunks a split actually scanned hash afresh.
    """

    __slots__ = ("source", "start", "stop", "start_line", "start_col",
                 "brace", "end", "sha")

    def __init__(self, source: str, start: int, stop: int, start_line: int,
                 start_col: int, brace: int = -1, end: int = -1,
                 sha: Optional[str] = None):
        self.source = source
        self.start = start
        self.stop = stop
        self.start_line = start_line
        self.start_col = start_col
        self.brace = brace
        self.end = end if end >= 0 else stop - start
        self.sha = sha

    @property
    def text(self) -> str:
        return self.source[self.start:self.stop]

    def digest(self) -> str:
        """``sha``, computed on first use."""
        if self.sha is None:
            self.sha = hashlib.sha256(self.text.encode()).hexdigest()
        return self.sha

    def __repr__(self) -> str:
        return (f"Chunk(line={self.start_line}, col={self.start_col}, "
                f"{self.stop - self.start} chars)")


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


def split_chunks(source: str, held: Sequence[Chunk] = ()) -> List[Chunk]:
    """Split a compilation unit into one chunk per top-level declaration,
    each with the offset of its first depth-zero ``{`` outside brackets
    (where a function's body starts; see :class:`Chunk`).

    ``held``, when given, is the whole split of an earlier revision,
    as this function returned it.  The result is the same as without
    it, but only the text from the first chunk the edit touches to the
    first held chunk boundary past the edit is scanned: the chunks
    before and after are ``held``'s, carried over with their ``sha``.
    A chunk whose ``sha`` is ``None`` is one this call scanned."""
    if not held:
        return _scan(source, [], 0, 1, 1)
    old = held[0].source
    if source == old:
        return list(held)
    n, m = len(source), len(old)
    # The common prefix and suffix, by binary search over slice
    # compares (C-speed memcmp); the suffix never overlaps the prefix.
    lo, hi = 0, min(n, m) + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if source[lo:mid] == old[lo:mid]:
            lo = mid
        else:
            hi = mid
    prefix = lo
    lo, hi = 0, min(n, m) - prefix + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if source[n - mid:n - lo] == old[m - mid:m - lo]:
            lo = mid
        else:
            hi = mid
    # Keep every chunk that ends inside the prefix, except the last:
    # its trailing trivia may be what changed.
    k, last = 0, len(held) - 1
    while k < last and held[k].stop <= prefix:
        k += 1
    chunks = _moved(source, held[:k], 0, 0, 0)
    first = held[k]
    return _scan(source, chunks, first.start, first.start_line,
                 first.start_col, held, k, n - lo, n - m)


def _scan(source: str, chunks: List[Chunk], i: int, chunk_line: int,
          chunk_col: int, held: Sequence[Chunk] = (), k: int = 0,
          sync: int = -1, delta: int = 0) -> List[Chunk]:
    """Scan ``source`` from offset ``i``, a chunk boundary at line
    ``chunk_line`` and column ``chunk_col``, appending to ``chunks``.

    With ``held``, the text from new offset ``sync`` on is the held
    source's from ``sync - delta`` on: the first boundary there that
    is a held chunk's start (searched from ``held[k]``) ends the scan,
    and the held chunks from there on are appended, moved."""
    n = len(source)
    if sync < 0:
        sync = n + 1
    depth = 0
    # The current chunk's first offset and its first body brace.
    chunk_start, chunk_brace = i, -1
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
        chunks.append(Chunk(source, chunk_start, i, chunk_line, chunk_col,
                            chunk_brace))
        nl = source.count("\n", chunk_start, i)
        if nl:
            chunk_line += nl
            chunk_col = i - source.rfind("\n", chunk_start, i)
        else:
            chunk_col += i - chunk_start
        chunk_start, chunk_brace = i, -1
        if i >= sync:
            # In the unchanged suffix: resync on a held boundary.
            target = i - delta
            while k < len(held) and held[k].start < target:
                k += 1
            if k < len(held) and held[k].start == target:
                first = held[k]
                chunks.extend(_moved(source, held[k:], delta,
                                     chunk_line - first.start_line,
                                     chunk_col - first.start_col))
                return chunks

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
            chunks[-1] = Chunk(source, last.start, n, last.start_line,
                               last.start_col, last.brace, last.end)
        else:
            chunks.append(Chunk(source, chunk_start, n, chunk_line,
                                chunk_col))
    return chunks


def _moved(source: str, chunks: Sequence[Chunk], delta: int, lines: int,
           cols: int) -> List[Chunk]:
    """``chunks`` carried into ``source``: each moves ``delta``
    characters and ``lines`` lines, and those on the first chunk's line
    move ``cols`` columns too."""
    line = chunks[0].start_line if chunks else 0
    return [Chunk(source, c.start + delta, c.stop + delta,
                  c.start_line + lines,
                  c.start_col + cols if c.start_line == line
                  else c.start_col, c.brace, c.end, c.sha)
            for c in chunks]
