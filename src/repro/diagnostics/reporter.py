"""Diagnostic accumulation and pretty reporting.

The checker pushes diagnostics into a :class:`Reporter` as it walks the
control-flow graph; callers decide whether to raise (``strict``) or to
collect every error in one pass (used by the mutation harness, which
wants the *set* of violations a seeded bug produces).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Union
from weakref import ref

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
        #: ``line_at(n)`` is line ``n`` of the source as ``source_lines``
        #: numbers it, or ``None`` past the end; when set (a session sets
        #: its split's ``line``), ``render`` quotes from it instead of
        #: splitting the source.
        self.line_at: Optional[Callable[[int], Optional[str]]] = None
        self.filename = filename
        #: ``(slots, version, prefix, diagnostics, length)`` once
        #: ``hold`` is called, ``slots`` by weak reference, else ``None``
        self._held = None

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

    def hold(self, slots, prefix: int) -> None:
        """Render through ``slots``, a session's per-function pieces:
        the diagnostics are the first ``prefix`` ones followed by
        ``slots.results`` (a list of tuples) joined.  ``slots.texts``
        is each piece rendered, or ``None``; ``slots.unrendered`` the
        places to render, the only ones ``render`` renders;
        ``slots.volatile`` the places rendered again by every render;
        ``slots.version`` changes whenever the pieces do.

        ``slots`` is held by weak reference: a report kept past the
        session's next check must not keep alive what the session let
        go (a context and its functions' nodes)."""
        self._held = (ref(slots), slots.version, prefix, self.diagnostics,
                      len(self.diagnostics))

    def render(self, with_source: bool = True) -> str:
        """Human-readable report, optionally quoting the offending line.

        A held reporter (``hold``) renders only the pieces without a
        text and joins the texts.  Without quotes, or once its pieces
        or its ``diagnostics`` list changed (a caller appended to it, or
        the session checked again), it renders every diagnostic."""
        held = self._held
        if held is not None and with_source:
            slots, version, prefix, diagnostics, length = held
            slots = slots()
            if slots is not None and slots.version == version \
                    and self.diagnostics is diagnostics \
                    and len(diagnostics) == length:
                texts, results = slots.texts, slots.results
                for at in slots.unrendered:
                    texts[at] = "\n".join(self._excerpts(results[at]))
                slots.unrendered = set(slots.volatile)
                out = self._excerpts(diagnostics[:prefix])
                out.extend(filter(None, texts))
                return "\n".join(out)
        return "\n".join(self._excerpts(self.diagnostics, with_source))

    def _excerpts(self, diags: Iterable[Diagnostic],
                  with_source: bool = True) -> List[str]:
        """Each of ``diags`` rendered, with its quoted line and caret
        when ``with_source``."""
        out = []
        quote = with_source and self._source is not None
        for diag in diags:
            out.append(diag.render())
            if quote:
                line_no = diag.span.start.line
                text = self._line(line_no) if line_no >= 1 else None
                if text is not None:
                    if text.endswith("\r"):
                        text = text[:-1]
                    out.append(f"    {line_no:4} | {text}")
                    caret_col = max(diag.span.start.col, 1)
                    out.append("         | " + " " * (caret_col - 1) + "^")
        return out

    def _line(self, number: int) -> Optional[str]:
        if self.line_at is not None:
            return self.line_at(number)
        if self._source_lines is None:
            self._source_lines = source_lines(self._source)
        lines = self._source_lines
        return lines[number - 1] if number <= len(lines) else None

    def __str__(self) -> str:
        return self.render()

    def __len__(self) -> int:
        return len(self.diagnostics)
