"""Diagnostic objects and error codes for the Vault checker.

The paper's checker reports a small family of protocol errors: accessing
a value whose guard key is not held (dangling), finishing a function
with keys the effect clause did not promise (leak), calling a function
whose precondition key set is not satisfied, key sets disagreeing at a
control-flow join, duplicating a key, and so on.  Each family gets a
stable code so tests and the mutation harness can assert on *which*
error fired, not just that one fired.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Union

from .span import Span


class Code(enum.Enum):
    """Stable diagnostic codes, grouped by pipeline stage."""

    # Lexing / parsing
    LEX_ERROR = "V0001"
    PARSE_ERROR = "V0002"

    # Name resolution / well-formedness
    UNDEFINED_NAME = "V0100"
    DUPLICATE_NAME = "V0101"
    UNDEFINED_TYPE = "V0102"
    UNDEFINED_KEY = "V0103"
    UNDEFINED_STATE = "V0104"
    UNDEFINED_CONSTRUCTOR = "V0105"
    ARITY_MISMATCH = "V0106"
    BAD_TYPE_ARGUMENT = "V0107"
    DUPLICATE_STATE = "V0108"
    ABSTRACT_TYPE_USE = "V0109"

    # Ordinary type errors
    TYPE_MISMATCH = "V0200"
    NOT_A_FUNCTION = "V0201"
    NOT_A_STRUCT = "V0202"
    NO_SUCH_FIELD = "V0203"
    NOT_A_VARIANT = "V0204"
    BAD_PATTERN = "V0205"
    NOT_TRACKED = "V0206"
    NOT_ASSIGNABLE = "V0207"
    BAD_FREE = "V0208"
    MISSING_RETURN = "V0209"
    NONEXHAUSTIVE_SWITCH = "V0210"

    # Key / guard (protocol) errors — the paper's contribution
    KEY_NOT_HELD = "V0300"           # guard violated: key absent at access
    KEY_WRONG_STATE = "V0301"        # key held, but in the wrong local state
    KEY_LEAKED = "V0302"             # extra key at function exit (Fig. 2 leaky)
    KEY_CONSUMED_MISSING = "V0303"   # effect requires a key the caller lacks
    KEY_DUPLICATED = "V0304"         # key introduced twice (double acquire)
    JOIN_MISMATCH = "V0305"          # held-key sets disagree at a join (Fig. 5)
    LOOP_NO_INVARIANT = "V0306"      # key set does not stabilise around a loop
    POSTCONDITION_MISMATCH = "V0307" # exit key set differs from effect clause
    STATE_BOUND_VIOLATION = "V0308"  # constrained state var out of bounds (§4.4)
    ANONYMOUS_KEY = "V0309"          # needed key was anonymised (Fig. 4)
    TRACKED_COPY = "V0310"           # illegal duplication of a tracked value
    KEY_ESCAPES_SCOPE = "V0311"      # local key escapes via return/effect

    # Runtime (interpreter / dynamic monitor)
    RT_PROTOCOL = "V0400"
    RT_DANGLING = "V0401"
    RT_LEAK = "V0402"
    RT_DOUBLE_FREE = "V0403"
    RT_DEADLOCK = "V0404"

    # 05xx: checker self-diagnosis (the pipeline's own failures)
    CHECKER_INTERNAL = "V0500"       # checking this function crashed; isolated


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"


class Note:
    """A note that names a source position: ``text``, then ``span``,
    kept as data until rendered so that the note moves with its
    diagnostic.  Compares by value."""

    __slots__ = ("text", "span")

    def __init__(self, text: str, span: Span):
        self.text = text
        self.span = span

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.text == other.text and self.span == other.span

    __hash__ = None

    def __str__(self) -> str:
        return f"{self.text} {self.span}"


class Diagnostic:
    """A single message produced by the front end or checker.

    Compares by value.  A ``--cache DIR`` file record pickles these,
    so the attribute set is part of its format (``cache.store``'s
    ``STORE_SCHEMA``).  A note is a plain string or a :class:`Note`.
    """

    def __init__(self, code: Code, message: str, span: Span,
                 severity: Severity = Severity.ERROR,
                 notes: Optional[List[Union[str, Note]]] = None):
        self.code = code
        self.message = message
        self.span = span
        self.severity = severity
        self.notes = [] if notes is None else notes

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.code, self.message, self.span, self.severity,
                 self.notes)
                == (other.code, other.message, other.span, other.severity,
                    other.notes))

    __hash__ = None

    def render(self) -> str:
        head = f"{self.span}: {self.severity.value} [{self.code.value}] {self.message}"
        if self.notes:
            return head + "".join(f"\n  note: {n}" for n in self.notes)
        return head

    def __str__(self) -> str:
        return self.render()


class VaultError(Exception):
    """Base class for all errors raised by the reproduction."""


class LexError(VaultError):
    def __init__(self, message: str, span: Span):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


class ParseError(VaultError):
    def __init__(self, message: str, span: Span):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


class CheckError(VaultError):
    """Raised when checking aborts; carries the accumulated diagnostics."""

    def __init__(self, diagnostics: List[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("\n".join(d.render() for d in diagnostics))

    @property
    def codes(self) -> List[Code]:
        return [d.code for d in self.diagnostics]

    def has(self, code: Code) -> bool:
        return code in self.codes


class RuntimeProtocolError(VaultError):
    """Raised by the interpreter / dynamic monitor on a protocol violation."""

    def __init__(self, code: Code, message: str, span: Optional[Span] = None):
        self.code = code
        self.span = span or Span.unknown()
        super().__init__(f"{self.span}: [{code.value}] {message}")
