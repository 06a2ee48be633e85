"""Token definitions for the Vault surface language.

The surface syntax is "based on the C programming language" (paper §2.1)
with Vault's extensions: ``tracked`` types, key guards ``K@state : T``,
effect clauses ``[K@a->b]``, ``variant`` declarations with constructor
names written ``'Name``, ``stateset`` partial orders and ``key``
declarations (§4.4), and ``interface`` / ``module`` units.
"""

from __future__ import annotations

import enum

from ..diagnostics import Pos, Span


class T(enum.Enum):
    """Token kinds."""

    # literals and names
    IDENT = "identifier"
    CTOR = "constructor"          # 'Name
    INT = "int literal"
    FLOAT = "float literal"
    STRING = "string literal"
    CHAR = "char literal"

    # keywords
    KW_INTERFACE = "interface"
    KW_MODULE = "module"
    KW_EXTERN = "extern"
    KW_TYPE = "type"
    KW_VARIANT = "variant"
    KW_STRUCT = "struct"
    KW_TRACKED = "tracked"
    KW_KEY = "key"
    KW_STATE = "state"
    KW_STATESET = "stateset"
    KW_SWITCH = "switch"
    KW_CASE = "case"
    KW_DEFAULT = "default"
    KW_IF = "if"
    KW_ELSE = "else"
    KW_WHILE = "while"
    KW_DO = "do"
    KW_FOR = "for"
    KW_RETURN = "return"
    KW_FREE = "free"
    KW_NEW = "new"
    KW_BREAK = "break"
    KW_CONTINUE = "continue"
    KW_VOID = "void"
    KW_INT = "int"
    KW_BOOL = "bool"
    KW_BYTE = "byte"
    KW_FLOAT = "float"
    KW_STRING = "string"
    KW_CHAR = "char"
    KW_TRUE = "true"
    KW_FALSE = "false"
    KW_NULL = "null"

    # punctuation / operators
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    SEMI = ";"
    COMMA = ","
    DOT = "."
    COLON = ":"
    AT = "@"
    QUESTION = "?"
    ASSIGN = "="
    ARROW = "->"
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    BANG = "!"
    AMPAMP = "&&"
    PIPEPIPE = "||"
    PIPE = "|"
    EQ = "=="
    NE = "!="
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    PLUSPLUS = "++"
    MINUSMINUS = "--"
    PLUSEQ = "+="
    MINUSEQ = "-="
    UNDERSCORE = "_"

    EOF = "end of input"


KEYWORDS = {
    "interface": T.KW_INTERFACE,
    "module": T.KW_MODULE,
    "extern": T.KW_EXTERN,
    "type": T.KW_TYPE,
    "variant": T.KW_VARIANT,
    "struct": T.KW_STRUCT,
    "tracked": T.KW_TRACKED,
    "key": T.KW_KEY,
    "state": T.KW_STATE,
    "stateset": T.KW_STATESET,
    "switch": T.KW_SWITCH,
    "case": T.KW_CASE,
    "default": T.KW_DEFAULT,
    "if": T.KW_IF,
    "else": T.KW_ELSE,
    "while": T.KW_WHILE,
    "do": T.KW_DO,
    "for": T.KW_FOR,
    "return": T.KW_RETURN,
    "free": T.KW_FREE,
    "new": T.KW_NEW,
    "break": T.KW_BREAK,
    "continue": T.KW_CONTINUE,
    "void": T.KW_VOID,
    "int": T.KW_INT,
    "bool": T.KW_BOOL,
    "byte": T.KW_BYTE,
    "float": T.KW_FLOAT,
    "string": T.KW_STRING,
    "char": T.KW_CHAR,
    "true": T.KW_TRUE,
    "false": T.KW_FALSE,
    "null": T.KW_NULL,
}

#: Base-type keywords, used by the parser's type recogniser.
BASE_TYPE_TOKENS = {
    T.KW_VOID, T.KW_INT, T.KW_BOOL, T.KW_BYTE,
    T.KW_FLOAT, T.KW_STRING, T.KW_CHAR,
}


class Token:
    """One lexed token.  A plain ``__slots__`` class (not a dataclass):
    the lexer mints one per token on the hot path of every check, and a
    frozen dataclass pays ``object.__setattr__`` per field.

    Positions are stored as **scalars** (line / start and end column /
    start and end byte offset) and the :class:`~repro.diagnostics.Span`
    is materialized lazily on first access: most tokens — punctuation,
    operators, keywords consumed by ``_expect`` — never have their span
    read, so the two ``Pos`` and one ``Span`` allocations per token the
    old representation paid are skipped entirely on the hot path.  The
    lexer rejects a raw newline inside a string or char literal, escaped
    or not, so no token spans a line and one ``line`` field covers both
    ends.  Tokens are immutable by convention.
    """

    __slots__ = ("kind", "text", "line", "col", "end_col",
                 "offset", "end_offset", "filename", "_span")

    def __init__(self, kind: T, text: str, line: int = 0, col: int = 0,
                 end_col: int = 0, offset: int = 0, end_offset: int = 0,
                 filename: str = "<input>"):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col
        self.end_col = end_col
        self.offset = offset
        self.end_offset = end_offset
        self.filename = filename
        self._span = None

    @property
    def span(self) -> Span:
        span = self._span
        if span is None:
            span = Span(Pos(self.line, self.col),
                        Pos(self.line, self.end_col), self.filename)
            self._span = span
        return span

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return (self.kind is other.kind and self.text == other.text
                and self.line == other.line and self.col == other.col
                and self.end_col == other.end_col
                and self.offset == other.offset
                and self.end_offset == other.end_offset
                and self.filename == other.filename)

    def __hash__(self) -> int:
        return hash((self.kind, self.text, self.line, self.col,
                     self.end_col, self.offset, self.end_offset,
                     self.filename))

    def __repr__(self) -> str:
        return f"Token(kind={self.kind!r}, text={self.text!r}, span={self.span!r})"

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})@{self.span}"
