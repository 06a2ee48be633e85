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
first chunk boundary past the edit that is one of the held revision's.
A chunk boundary is a clean scanner state (depth zero, no open
bracket, the ``_TOP`` search), so the scan from there on is the same
as a cold scan's; a cold split is the same loop entered at offset 0.
A one-constant body edit of a 640-function unit re-scans one chunk
instead of all 200 KB.

A :class:`Chunk` holds no offset, so a chunk the splice carries over is
the held object itself, with whatever its user attached (``parsed``):
the new :class:`Split` is the held chunk list with one range replaced,
and reports that range (``spliced``).  Every chunk in the range is new,
so it has nothing attached.  Only the offsets of the chunks past the
edit move, in one list copy.  A chunk's line and column do not move
unless the edit adds or removes a line before it (or changes the
length of the line it starts on), so such an edit extends the range:
to the end of the unit, or past the chunks on the edit's last line.

The scanner is deliberately conservative: on anything it cannot
classify (unterminated comment or string, stray characters, unbalanced
braces or brackets) it raises
:class:`ChunkError` and the caller falls back to parsing the whole
unit, so error behaviour is identical to the non-incremental path.
A splice raises exactly when the cold scan of the same source does.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Iterator, List, NamedTuple, Optional, Tuple


class ChunkError(Exception):
    """The source cannot be split safely; parse it whole instead."""


class Chunk:
    """One top-level declaration of a split, without its offset (the
    :class:`Split` holds that), so a splice carries it over as is.

    ``start_line``/``start_col`` are 1-based.  The chunk's text runs
    from its offset to the next chunk's; concatenating the texts of all
    chunks reproduces the source exactly.  Leading trivia belongs to the
    following chunk, trailing trivia to the last.

    ``brace`` is the offset in the text of the first ``{`` at brace
    depth zero outside square brackets, or -1.  Its matching ``}`` is
    the declaration's terminator, so for a function definition
    ``text[:brace]`` is the header and ``text[brace:end]`` the body.
    ``end`` is the offset just past the terminator: the text's length
    except for a last chunk that carries the unit's trailing trivia.

    ``parsed`` is ``None`` until the chunk's user (the checking
    session) attaches the chunk's parse.  A chunk a splice carries over
    keeps it, and a chunk a split scanned, or moved, starts without
    one.  The session drops it again from a chunk a splice replaced.
    """

    __slots__ = ("start_line", "start_col", "brace", "end", "parsed")

    def __init__(self, start_line: int, start_col: int, brace: int,
                 end: int):
        self.start_line = start_line
        self.start_col = start_col
        self.brace = brace
        self.end = end
        self.parsed = None

    def __repr__(self) -> str:
        return f"Chunk(line={self.start_line}, col={self.start_col})"


_START_LINE = attrgetter("start_line")


class PlacedChunk(NamedTuple):
    """A chunk with its text, as indexing a :class:`Split` gives it."""
    text: str
    start_line: int
    start_col: int
    brace: int
    end: int


class Split:
    """A unit's chunks in order (``chunks``) and each one's offset in
    ``source`` (``starts``).

    ``spliced`` is ``(k, j, m)``: this split is the held split it was
    spliced from with chunks ``k:j`` replaced by its chunks ``k:k+m``,
    and every other chunk the held one (a cold split replaced ``0:0``
    of nothing).  A split's lists never change once made, so the held
    split stays valid after a splice of it.
    """

    __slots__ = ("source", "chunks", "starts", "spliced")

    def __init__(self, source: str, chunks: List[Chunk], starts: List[int],
                 spliced: Tuple[int, int, int]):
        self.source = source
        self.chunks = chunks
        self.starts = starts
        self.spliced = spliced

    def __len__(self) -> int:
        return len(self.chunks)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self.chunks))[index]]
        i = range(len(self.chunks))[index]
        chunk = self.chunks[i]
        return PlacedChunk(self.text(i), chunk.start_line, chunk.start_col,
                           chunk.brace, chunk.end)

    def __iter__(self) -> Iterator[PlacedChunk]:
        return (self[i] for i in range(len(self.chunks)))

    def stop(self, i: int) -> int:
        """The offset just past chunk ``i``'s text."""
        return self.starts[i + 1] if i + 1 < len(self.starts) \
            else len(self.source)

    def text(self, i: int) -> str:
        return self.source[self.starts[i]:self.stop(i)]

    def line(self, number: int) -> Optional[str]:
        """Line ``number`` of the source without its newline, or
        ``None`` past the last line, numbered as
        :func:`repro.diagnostics.reporter.source_lines` numbers lines.
        Only the text of the chunk the line starts in is split."""
        at = self._line_start(number)
        if at is None or at >= len(self.source):
            return None
        end = self.source.find("\n", at)
        return self.source[at:end] if end >= 0 else self.source[at:]

    def lines(self, first: int, last: int) -> str:
        """Lines ``first`` through ``last`` of the source, newlines
        between them included; both lines must exist."""
        end = self.source.find("\n", self._line_start(last))
        start = self._line_start(first)
        return self.source[start:end] if end >= 0 else self.source[start:]

    def _line_start(self, number: int) -> Optional[int]:
        """The offset line ``number`` starts at, found in the last chunk
        that starts on or before it; ``None`` when there is no such
        chunk or the line starts past the unit."""
        i = bisect_right(self.chunks, number, key=_START_LINE) - 1
        if i < 0:
            return None
        chunk, start = self.chunks[i], self.starts[i]
        skip = number - chunk.start_line
        if not skip:
            return start - (chunk.start_col - 1)
        stop = self.stop(i)
        tail = self.source[start:stop].split("\n", skip)
        if len(tail) <= skip:
            return None
        return stop - len(tail[-1])


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


def split_chunks(source: str, held: Optional[Split] = None) -> Split:
    """Split a compilation unit into one chunk per top-level declaration,
    each with the offset of its first depth-zero ``{`` outside brackets
    (where a function's body starts; see :class:`Chunk`).

    ``held``, when given, is the split of an earlier revision.  The
    result is the same as without it, but only the text from the first
    chunk the edit touches to the first held chunk boundary past the
    edit is scanned: the chunks before and after are ``held``'s own
    objects, with their ``parsed``, and ``spliced`` says which range of
    ``held`` the scanned chunks replace.  Every chunk in that range is
    a new object, whose ``parsed`` is ``None``."""
    if not held:
        chunks, starts, _ = _scan(source, 0, 1, 1)
        if not chunks and source:
            chunks, starts = [Chunk(1, 1, -1, len(source))], [0]
        return Split(source, chunks, starts, (0, 0, len(chunks)))
    old = held.source
    if source == old:
        return Split(source, held.chunks, held.starts, (0, 0, 0))
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
    last = len(held.chunks) - 1
    k = min(bisect_right(held.starts, prefix, 1) - 1, last)
    first = held.chunks[k]
    start = held.starts[k]
    chunks, starts, j = _scan(source, start, first.start_line,
                              first.start_col, held, n - lo, n - m)
    if not chunks and start < n:
        # Only text without a terminator was left to scan: it joins
        # the chunk before, whose text changes, or is the unit's one
        # chunk.
        if k:
            k -= 1
            prev = held.chunks[k]
            chunks, starts = [Chunk(prev.start_line, prev.start_col,
                                    prev.brace, prev.end)], [held.starts[k]]
        else:
            chunks, starts = [Chunk(1, 1, -1, n)], [0]
    delta = n - m
    tail = held.starts[j:]
    if delta:
        tail = list(map(delta.__add__, tail))
    return Split(source, held.chunks[:k] + chunks + held.chunks[j:],
                 held.starts[:k] + starts + tail, (k, j, len(chunks)))


def _scan(source: str, i: int, chunk_line: int, chunk_col: int,
          held: Optional[Split] = None, sync: int = -1, delta: int = 0
          ) -> Tuple[List[Chunk], List[int], int]:
    """Scan ``source`` from offset ``i``, a chunk boundary at line
    ``chunk_line`` and column ``chunk_col``: the chunks found, their
    offsets, and the index of the first ``held`` chunk they do not
    replace.

    With ``held``, the text from new offset ``sync`` on is the held
    source's from ``sync - delta`` on: the first boundary there that
    is a held chunk's start ends the scan.  When that chunk's line or
    column differs from the boundary's, the held chunks that move are
    copied at their new place (all of them for a line, those on the
    boundary's line for a column) and count as replaced too."""
    n = len(source)
    chunks: List[Chunk] = []
    starts: List[int] = []
    if held is None:
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
        chunks.append(Chunk(chunk_line, chunk_col, chunk_brace,
                            i - chunk_start))
        starts.append(chunk_start)
        nl = source.count("\n", chunk_start, i)
        if nl:
            chunk_line += nl
            chunk_col = i - source.rfind("\n", chunk_start, i)
        else:
            chunk_col += i - chunk_start
        chunk_start, chunk_brace = i, -1
        if i >= sync:
            # In the unchanged suffix: resync on a held boundary.
            k = bisect_left(held.starts, i - delta)
            if k < len(held.chunks) and held.starts[k] == i - delta:
                return chunks, starts, _resync(held, k, chunks, starts,
                                               delta, chunk_line, chunk_col)

    if depth != 0:
        raise ChunkError("unbalanced braces")
    if brackets != 0:
        raise ChunkError("unbalanced brackets")
    # Trailing text after the last terminator (usually pure trivia)
    # belongs to the last chunk, whose text runs to the end.
    return chunks, starts, len(held.chunks) if held is not None else 0


def _resync(held: Split, k: int, chunks: List[Chunk], starts: List[int],
           delta: int, line: int, col: int) -> int:
    """Resync on ``held`` chunk ``k``, now at line ``line`` and column
    ``col``: append a copy of each held chunk from ``k`` on whose place
    that moves, and return the index of the first one left as is."""
    first = held.chunks[k]
    lines, cols = line - first.start_line, col - first.start_col
    if not (lines or cols):
        return k
    for chunk in held.chunks[k:]:
        if not lines and chunk.start_line != first.start_line:
            break
        chunks.append(Chunk(chunk.start_line + lines,
                            chunk.start_col + cols
                            if chunk.start_line == first.start_line
                            else chunk.start_col,
                            chunk.brace, chunk.end))
        starts.append(held.starts[k] + delta)
        k += 1
    return k
