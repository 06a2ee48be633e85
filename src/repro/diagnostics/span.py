"""Source positions and spans for diagnostics.

Every token and AST node carries a :class:`Span` so that errors produced
by the checker point at the offending construct, as the Vault compiler's
error messages do in the paper's examples (Figure 2's ``dangling`` and
``leaky`` functions, etc.).

Both classes are hand-written with ``__slots__`` rather than frozen
dataclasses: the lexer mints two positions and one span per token, so
construction cost is on the hot path of every check.  The same holds
for every class on the ``vaultc check`` path, for a second reason:
``@dataclass`` generates each class's methods at import time, which
cost a fresh check more than its whole lex, parse and check of a small
file (see docs/CHECKER.md).
"""

from __future__ import annotations


class Pos:
    """A single source position (1-based line, 1-based column)."""

    __slots__ = ("line", "col")

    def __init__(self, line: int, col: int):
        self.line = line
        self.col = col

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pos):
            return NotImplemented
        return self.line == other.line and self.col == other.col

    def __hash__(self) -> int:
        return hash((self.line, self.col))

    def __repr__(self) -> str:
        return f"Pos(line={self.line}, col={self.col})"

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class Span:
    """A half-open region of source text, with the originating file name."""

    __slots__ = ("start", "end", "filename")

    def __init__(self, start: Pos, end: Pos, filename: str = "<input>"):
        self.start = start
        self.end = end
        self.filename = filename

    @staticmethod
    def unknown() -> "Span":
        return Span(Pos(0, 0), Pos(0, 0), "<unknown>")

    @staticmethod
    def point(line: int, col: int, filename: str = "<input>") -> "Span":
        p = Pos(line, col)
        return Span(p, p, filename)

    def merge(self, other: "Span") -> "Span":
        """Smallest span covering both ``self`` and ``other``."""
        if self.filename == "<unknown>":
            return other
        if other.filename == "<unknown>":
            return self
        lo = min((self.start.line, self.start.col), (other.start.line, other.start.col))
        hi = max((self.end.line, self.end.col), (other.end.line, other.end.col))
        return Span(Pos(lo[0], lo[1]), Pos(hi[0], hi[1]), self.filename)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return (self.start == other.start and self.end == other.end
                and self.filename == other.filename)

    def __hash__(self) -> int:
        return hash((self.start, self.end, self.filename))

    def __repr__(self) -> str:
        return (f"Span(start={self.start!r}, end={self.end!r}, "
                f"filename={self.filename!r})")

    def __str__(self) -> str:
        return f"{self.filename}:{self.start}"
