"""The fingerprint's name set comes from an identifier scan of the
function's own text, not from its AST (a header-only chunk has no body
AST to walk).  The scan must find every declared name the AST would
mention; extra names only over-invalidate a summary.
"""

from __future__ import annotations

import glob
import os

import pytest

from repro.analysis import synthesize_program
from repro.core import build_context
from repro.diagnostics import Reporter
from repro.diagnostics.reporter import source_lines
from repro.pipeline import scan_names
from repro.pipeline.fingerprint import _declared_names
from repro.stdlib import STDLIB_UNITS, stdlib_context, stdlib_source
from repro.syntax import T, ast, parse_program, tokenize
from repro.testing import generate_program

_EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def ast_names(node) -> set:
    """Every string in an AST subtree (identifiers, field, state and
    constructor names, ...), except string-literal payloads: those are
    data the checker never resolves, and an escape can hide a word
    (``"f\\oo"`` holds ``foo``).  This is the walk the fingerprint used
    before it scanned text."""
    names = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, str):
            names.add(n)
        elif isinstance(n, (list, tuple)):
            stack.extend(n)
        elif isinstance(n, ast.StringLit):
            continue
        elif isinstance(n, ast.Node):
            stack.extend(getattr(n, f) for f in n._fields if f != "span")
    return names


def fun_defs(decls):
    """Every function definition in ``decls``, modules included."""
    for decl in decls:
        if isinstance(decl, ast.FunDef):
            yield decl
        elif isinstance(decl, ast.ModuleDecl):
            yield from fun_defs(decl.decls)


def _units():
    for path in sorted(glob.glob(os.path.join(_EXAMPLES, "*.vlt"))):
        with open(path, encoding="utf-8") as handle:
            yield os.path.basename(path), handle.read(), True
    for unit in STDLIB_UNITS:
        yield f"<stdlib:{unit}>", stdlib_source(unit), False
    for seed in range(200):
        yield f"gen-{seed}.vlt", generate_program(seed).source, True
    yield "synth-a.vlt", synthesize_program(40, seed=1, error_rate=0.3), True
    yield "synth-b.vlt", synthesize_program(40, seed=2, error_rate=1.0), True


def test_scan_covers_every_declared_name_the_ast_mentions():
    functions = 0
    for filename, source, on_stdlib in _units():
        program = parse_program(source, filename)
        base = stdlib_context()[0] if on_stdlib else None
        declared = _declared_names(
            build_context([program], Reporter(), base=base))
        lines = source_lines(source)
        for fundef in fun_defs(program.decls):
            span = fundef.span
            own = "\n".join(lines[span.start.line - 1:span.end.line])
            missing = (ast_names(fundef) & declared) - scan_names(own)
            assert not missing, (filename, fundef.decl.name, missing)
            functions += 1
    assert functions > 1000


def test_scan_covers_every_identifier_token():
    # The lexer's own identifier, keyword and constructor tokens over
    # whole units: the scan must split text exactly as the lexer does.
    for filename, source, _ in _units():
        words = {tok.text for tok in tokenize(source, filename)
                 if tok.kind is T.IDENT or tok.kind is T.CTOR
                 or tok.text.isidentifier()}
        assert words <= scan_names(source), filename


@pytest.mark.parametrize("text, present, absent", [
    # Numbers take the letters they can: hex digits, then the rest.
    ("0x1Fcell", {"ll"}, {"cell", "Fcell", "x1Fcell"}),
    ("0XABCDefg", {"g"}, {"efg", "XABCDefg"}),
    # An exponent belongs to the number; a bare ``e`` does not.
    ("1e5x", {"x"}, {"e5x"}),
    ("2.5e+3y", {"y"}, {"e"}),
    ("7e", {"e"}, set()),
    ("3.x", {"x"}, set()),
    ("12abc", {"abc"}, set()),
    # Identifiers hold digits and underscores.
    ("go_0_1(h)", {"go_0_1", "h"}, {"go", "_0_1"}),
    # A constructor is its name after the tick.
    ("'SomeKey{F}", {"SomeKey", "F"}, set()),
    ("case 'Error(code):", {"case", "Error", "code"}, set()),
    # Char literals and the insides of comments and strings are
    # scanned too: extra names only over-invalidate.
    ("'x' == c", {"x", "c"}, set()),
    ("// calls Region.delete\n", {"calls", "Region", "delete"}, set()),
    ("/* FILE */ int", {"FILE", "int"}, set()),
    ('print("open the cell")', {"print", "open", "the", "cell"}, set()),
    # ASCII only, as in the lexer.
    ("café", {"caf"}, {"café"}),
])
def test_scan_splits_like_the_lexer(text, present, absent):
    names = scan_names(text)
    assert present <= names
    assert not (absent & names)


def test_adjacent_tokens_match_the_lexer():
    text = "x = 0x1Fcell + 1e5x + 'Ctor{K} + 'q' + y9;"
    idents = {tok.text for tok in tokenize(text)
              if tok.kind in (T.IDENT, T.CTOR, T.CHAR)}
    assert idents == {"x", "ll", "Ctor", "K", "q", "y9"}
    assert idents <= scan_names(text)
