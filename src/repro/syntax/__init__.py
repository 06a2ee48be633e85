"""Surface syntax for the Vault language: lexer, AST, parser, printer."""

from . import ast
from .lexer import Lexer, tokenize
from .parser import Parser, parse_expr, parse_program, parse_type
from .pretty import pretty
from .tokens import T, Token

__all__ = [
    "Lexer",
    "Parser",
    "T",
    "Token",
    "ast",
    "parse_expr",
    "parse_program",
    "parse_type",
    "pretty",
    "tokenize",
]
