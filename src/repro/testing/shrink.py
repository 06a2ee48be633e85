"""Greedy shrinking of a divergent program to a minimal reproducer.

Classic delta-debugging, specialised to Vault's surface syntax: first
drop whole top-level declarations, then drop single statements inside
the survivors, for as long as the caller's *predicate* (usually "the
checking paths still disagree") keeps holding on the smaller
program.  The predicate owns validity too — a candidate that no longer
parses simply fails the predicate and is discarded.
"""

from __future__ import annotations

from typing import Callable, List

__all__ = ["shrink", "split_decls"]

Predicate = Callable[[str], bool]


def split_decls(source: str) -> List[str]:
    """Split a unit into top-level declaration chunks.

    Tracks bracket depth (``{}``, ``[]``, ``()`` combined — variant
    declarations nest braces inside brackets) outside strings, chars
    and comments; a chunk ends at a ``;`` or ``}`` at depth zero.
    Leading comment/blank lines stick to the declaration after them.
    """
    chunks: List[str] = []
    buf: List[str] = []
    depth = 0
    i = 0
    n = len(source)
    in_line_comment = in_block_comment = False
    in_string = in_char = False
    while i < n:
        ch = source[i]
        buf.append(ch)
        if in_line_comment:
            if ch == "\n":
                in_line_comment = False
        elif in_block_comment:
            if ch == "*" and i + 1 < n and source[i + 1] == "/":
                buf.append("/")
                i += 1
                in_block_comment = False
        elif in_string:
            if ch == "\\" and i + 1 < n:
                buf.append(source[i + 1])
                i += 1
            elif ch == '"':
                in_string = False
        elif in_char:
            if ch == "\\" and i + 1 < n:
                buf.append(source[i + 1])
                i += 1
            elif ch == "'":
                in_char = False
        elif ch == "/" and i + 1 < n and source[i + 1] == "/":
            in_line_comment = True
        elif ch == "/" and i + 1 < n and source[i + 1] == "*":
            in_block_comment = True
        elif ch == '"':
            in_string = True
        elif ch == "'" and i + 1 < n and source[i + 1] != "'" and (
                i + 2 < n and source[i + 2] == "'"):
            # only a real char literal ('x'); tick-constructors ('Ok)
            # never close with a tick after one character
            in_char = True
        elif ch in "{[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                # include an optional trailing ";" (variant decls)
                j = i + 1
                while j < n and source[j] in " \t":
                    j += 1
                if j < n and source[j] == ";":
                    buf.append(source[i + 1:j + 1])
                    i = j
                chunks.append("".join(buf))
                buf = []
        elif ch == ";" and depth == 0:
            chunks.append("".join(buf))
            buf = []
        i += 1
    tail = "".join(buf)
    if tail.strip():
        chunks.append(tail)
    elif tail and chunks:
        chunks[-1] += tail          # keep trailing whitespace: the
    elif tail:                      # chunks must round-trip exactly
        chunks.append(tail)
    return chunks


def _join(chunks: List[str]) -> str:
    return "".join(chunks).strip("\n") + "\n"


def _shrink_decls(chunks: List[str], predicate: Predicate) -> List[str]:
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(chunks):
            candidate = chunks[:i] + chunks[i + 1:]
            if candidate and predicate(_join(candidate)):
                chunks = candidate
                changed = True
            else:
                i += 1
    return chunks


def _shrink_lines(chunks: List[str], predicate: Predicate) -> List[str]:
    changed = True
    while changed:
        changed = False
        for ci, chunk in enumerate(chunks):
            lines = chunk.split("\n")
            li = 0
            while li < len(lines):
                stripped = lines[li].strip()
                # only plain statements are individually removable
                if not stripped.endswith(";") or stripped.startswith(
                        ("interface", "extern", "variant", "type",
                         "struct", "key", "stateset")):
                    li += 1
                    continue
                candidate_lines = lines[:li] + lines[li + 1:]
                candidate = chunks[:ci] + ["\n".join(candidate_lines)] \
                    + chunks[ci + 1:]
                if predicate(_join(candidate)):
                    lines = candidate_lines
                    chunks[ci] = "\n".join(lines)
                    changed = True
                else:
                    li += 1
    return chunks


def _safe(predicate: Predicate) -> Predicate:
    """Candidates that crash the predicate (typically: no longer
    parse, so ``check_source`` raises) simply don't qualify."""
    def guarded(candidate: str) -> bool:
        try:
            return predicate(candidate)
        except Exception:
            return False
    return guarded


def shrink(source: str, predicate: Predicate) -> str:
    """Return the smallest source (greedy, not global) for which
    ``predicate`` still holds.  ``predicate(source)`` must be true on
    entry; otherwise the input is returned unchanged."""
    predicate = _safe(predicate)
    if not predicate(source):
        return source
    chunks = split_decls(source)
    if not predicate(_join(chunks)):
        return source
    # Alternate the two phases to a fixpoint: dropping a statement can
    # make a whole declaration (e.g. a variant only a removed probe
    # call used) removable, and vice versa.
    before = None
    while before != _join(chunks):
        before = _join(chunks)
        chunks = _shrink_decls(chunks, predicate)
        chunks = _shrink_lines(chunks, predicate)
    return _join(chunks)
