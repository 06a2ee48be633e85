"""Diagnostic accumulation and pretty reporting.

The checker pushes diagnostics into a :class:`Reporter` as it walks the
control-flow graph; callers decide whether to raise (``strict``) or to
collect every error in one pass (used by the mutation harness, which
wants the *set* of violations a seeded bug produces).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

from .errors import CheckError, Code, Diagnostic, Note, Severity
from .span import Span


def source_lines(source: str) -> List[str]:
    """``source`` split into lines numbered as the lexer numbers them.

    Only ``\n`` ends a line.  ``str.splitlines`` also breaks on
    ``\r``, form feeds, ``\x1c``-``\x1e``, ``\x85`` and the Unicode
    line separators, so every line after such a character would be
    numbered differently from the diagnostics that point at it.  A
    final newline does not start an empty last line.
    """
    lines = source.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


class Reporter:
    """Collects diagnostics; optionally renders them against source text."""

    def __init__(self, source: Optional[str] = None, filename: str = "<input>"):
        self.diagnostics: List[Diagnostic] = []
        #: the source text, split into lines on the first ``render``
        #: that quotes one: most checks render nothing.
        self._source = source
        self._source_lines: Optional[List[str]] = None
        self.filename = filename

    # -- accumulation -----------------------------------------------------

    def error(self, code: Code, message: str, span: Span,
              notes: Optional[Iterable[Union[str, Note]]] = None
              ) -> Diagnostic:
        diag = Diagnostic(code, message, span, Severity.ERROR, list(notes or []))
        self.diagnostics.append(diag)
        return diag

    def warning(self, code: Code, message: str, span: Span) -> Diagnostic:
        diag = Diagnostic(code, message, span, Severity.WARNING)
        self.diagnostics.append(diag)
        return diag

    def extend(self, other: "Reporter") -> None:
        self.diagnostics.extend(other.diagnostics)

    # -- queries -----------------------------------------------------------

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def ok(self) -> bool:
        return not self.errors

    def codes(self) -> List[Code]:
        return [d.code for d in self.errors]

    def has(self, code: Code) -> bool:
        return any(d.code is code for d in self.errors)

    def raise_if_errors(self) -> None:
        if self.errors:
            raise CheckError(self.errors)

    # -- rendering ---------------------------------------------------------

    def render(self, with_source: bool = True) -> str:
        """Human-readable report, optionally quoting the offending line."""
        out = []
        lines = self._source_lines
        for diag in self.diagnostics:
            out.append(diag.render())
            if with_source and self._source is not None:
                if lines is None:
                    lines = self._source_lines = source_lines(self._source)
                line_no = diag.span.start.line
                if 1 <= line_no <= len(lines):
                    text = lines[line_no - 1]
                    if text.endswith("\r"):
                        text = text[:-1]
                    out.append(f"    {line_no:4} | {text}")
                    caret_col = max(diag.span.start.col, 1)
                    out.append("         | " + " " * (caret_col - 1) + "^")
        return "\n".join(out)

    def __str__(self) -> str:
        return self.render()

    def __len__(self) -> int:
        return len(self.diagnostics)
