"""High-level entry points for the Vault reproduction.

Typical usage::

    from repro import check_source

    report = check_source('''
        void okay() {
            tracked(R) region rgn = Region.create();
            R:point pt = new(rgn) point {x=1; y=2;};
            pt.x++;
            Region.delete(rgn);
        }
        struct point { int x; int y; }
    ''')
    assert report.ok

``check_source`` parses, elaborates and protocol-checks a compilation
unit against the standard Vault interfaces (regions, files, sockets and
the Windows 2000 kernel interface of §4).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .core import ProgramContext, build_context, check_program
from .diagnostics import CheckError, Code, Reporter
from .stdlib import stdlib_context, stdlib_programs
from .syntax import ast, parse_program


def parse(source: str, filename: str = "<input>") -> ast.Program:
    """Parse one Vault compilation unit."""
    return parse_program(source, filename)


def load_context(source: str, filename: str = "<input>",
                 stdlib: bool = True,
                 units: Optional[Sequence[str]] = None,
                 extra: Sequence[ast.Program] = ()
                 ) -> "tuple[ProgramContext, Reporter]":
    """Parse ``source`` and build its program context (+stdlib).

    The stdlib units are elaborated once per process (see
    :func:`repro.stdlib.stdlib_context`); each call layers the user
    program (and ``extra``) on a clone of that base.
    """
    reporter = Reporter(source, filename)
    programs: List[ast.Program] = []
    base: Optional[ProgramContext] = None
    if stdlib:
        base, base_diags = stdlib_context(units)
        reporter.diagnostics.extend(base_diags)
    programs.extend(extra)
    programs.append(parse_program(source, filename))
    ctx = build_context(programs, reporter, base=base)
    return ctx, reporter


def check_source(source: str, filename: str = "<input>",
                 stdlib: bool = True,
                 units: Optional[Sequence[str]] = None,
                 extra: Sequence[ast.Program] = ()) -> Reporter:
    """Parse and protocol-check a compilation unit; returns the report."""
    ctx, reporter = load_context(source, filename, stdlib, units, extra)
    if reporter.ok:
        check_program(ctx, reporter)
    return reporter


def check_source_strict(source: str, filename: str = "<input>",
                        stdlib: bool = True,
                        units: Optional[Sequence[str]] = None) -> None:
    """Like :func:`check_source`, but raises :class:`CheckError`."""
    reporter = check_source(source, filename, stdlib, units)
    reporter.raise_if_errors()


def error_codes(source: str, **kwargs) -> List[Code]:
    """The list of error codes a source produces (empty when it checks)."""
    return check_source(source, **kwargs).codes()
