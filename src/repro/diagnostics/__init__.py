"""Spans, diagnostics, error codes and reporting for the Vault pipeline."""

from .errors import (
    CheckError,
    Code,
    Diagnostic,
    LexError,
    Note,
    ParseError,
    RuntimeProtocolError,
    Severity,
    VaultError,
)
from .reporter import Reporter
from .span import Pos, Span

__all__ = [
    "CheckError",
    "Code",
    "Diagnostic",
    "LexError",
    "Note",
    "ParseError",
    "Pos",
    "Reporter",
    "RuntimeProtocolError",
    "Severity",
    "Span",
    "VaultError",
]
