"""Abstract syntax for the Vault surface language.

The node classes mirror the constructs the paper uses:

* declarations — ``interface``, ``module``, ``extern module``, ``type``
  aliases and abstract types, ``variant`` declarations with key-capturing
  constructors, ``struct``, ``stateset`` partial orders, global ``key``
  declarations, and function declarations/definitions with effect
  clauses;
* types — base types, named (possibly parameterized) types,
  ``tracked(K) T`` / anonymous ``tracked T``, guarded types ``K@st : T``,
  arrays, and function types (for completion routines, §4.3);
* effect clauses — ``[K@a->b]``, ``[-K@a]``, ``[+K@b]``, ``[new K@b]``,
  with states that may be names, variables, or bounded variables
  ``(level <= DISPATCH_LEVEL)``;
* statements and expressions — C-like, plus ``switch`` pattern matching
  over variants, ``free``, ``new``/``new(region)``/``new tracked``
  allocation, and constructor application ``'Name(args){keys}``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from ..diagnostics import Span


class Node:
    """Base of every syntax node.

    A subclass names its fields in ``_fields``, in the order of its
    ``__init__`` parameters; equality and ``repr`` walk that tuple.
    Nodes compare by value, as the parser's tests do, and so are
    unhashable.  Not dataclasses, for start-up time: see
    docs/CHECKER.md.
    """

    _fields: Tuple[str, ...] = ("span",)

    def __init__(self, span: Span):
        self.span = span

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ([getattr(self, f) for f in self._fields]
                == [getattr(other, f) for f in self._fields])

    __hash__ = None

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"


# ---------------------------------------------------------------------------
# States (as they appear in guards and effect clauses)
# ---------------------------------------------------------------------------

class StateRef(Node):
    """A reference to a key state: a concrete state name or a state variable.

    The parser cannot distinguish state names from state variables; the
    elaborator resolves them against ``stateset`` declarations.
    """

    _fields = ("span", "name")

    def __init__(self, span: Span, name: str):
        self.span = span
        self.name = name


class StateBound(Node):
    """A bounded state variable, ``(var <= BOUND)`` (§4.4)."""

    _fields = ("span", "var", "bound")

    def __init__(self, span: Span, var: str, bound: str):
        self.span = span
        self.var = var
        self.bound = bound


StateExpr = Union[StateRef, StateBound]


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

class Type(Node):
    pass


class BaseType(Type):
    _fields = ("span", "name")

    def __init__(self, span: Span, name: str):
        self.span = span
        self.name = name  # void, int, bool, byte, float, string, char


class NamedType(Type):
    """A use of a declared type: ``FILE``, ``opt_key<K>``, ``KIRQL<level>``.

    ``args`` holds type arguments; key and state arguments appear as
    :class:`NamedType` with a bare name and are disambiguated during
    elaboration against the declaration's parameter kinds.
    """

    _fields = ("span", "name", "args")

    def __init__(self, span: Span, name: str,
                 args: Optional[List["TypeArg"]] = None):
        self.span = span
        self.name = name
        self.args = [] if args is None else args


class TypeArg(Node):
    """An argument in ``<...>``: a type, or a bare key/state name."""

    _fields = ("span", "type", "name", "state")

    def __init__(self, span: Span, type: Optional[Type] = None,
                 name: Optional[str] = None,
                 state: Optional[StateExpr] = None):
        self.span = span
        self.type = type
        self.name = name  # key or state argument
        self.state = state  # explicit @state on a key argument


class ArrayType(Type):
    _fields = ("span", "elem")

    def __init__(self, span: Span, elem: Type):
        self.span = span
        self.elem = elem


class TrackedType(Type):
    """``tracked(K) T``, ``tracked(K@st) T``, ``tracked(@st) T`` or ``tracked T``.

    ``key`` is ``None`` for anonymous tracked types (existentials).
    ``state`` is the optional initial/required state annotation.
    """

    _fields = ("span", "key", "inner", "state")

    def __init__(self, span: Span, key: Optional[str], inner: Type,
                 state: Optional[StateExpr] = None):
        self.span = span
        self.key = key
        self.inner = inner
        self.state = state


class GuardedType(Type):
    """``K : T``, ``K@st : T`` or ``(IRQL @ (lvl<=APC_LEVEL)) : T``."""

    _fields = ("span", "key", "state", "inner")

    def __init__(self, span: Span, key: str, state: Optional[StateExpr],
                 inner: Type):
        self.span = span
        self.key = key
        self.state = state
        self.inner = inner


class FunType(Type):
    """A function type, used in type aliases (completion routines, §4.3)."""

    _fields = ("span", "ret", "params", "effect", "name")

    def __init__(self, span: Span, ret: Type, params: List["Param"],
                 effect: Optional["EffectClause"], name: Optional[str] = None):
        self.span = span
        self.ret = ret
        self.params = params
        self.effect = effect
        self.name = name  # the dummy name in the paper's syntax


# ---------------------------------------------------------------------------
# Effect clauses
# ---------------------------------------------------------------------------

class EffectItem(Node):
    """One item of an effect clause.

    ``mode`` is one of:

    * ``"keep"``    — ``K@a->b`` / ``K@a`` (held before and after);
    * ``"consume"`` — ``-K@a`` (held before, gone after);
    * ``"produce"`` — ``+K@b`` (absent before, held after);
    * ``"fresh"``   — ``new K@b`` (fresh key held after).
    """

    _fields = ("span", "mode", "key", "pre", "post")

    def __init__(self, span: Span, mode: str, key: str,
                 pre: Optional[StateExpr] = None,
                 post: Optional[StateExpr] = None):
        self.span = span
        self.mode = mode
        self.key = key
        self.pre = pre
        self.post = post


class EffectClause(Node):
    _fields = ("span", "items")

    def __init__(self, span: Span, items: Optional[List[EffectItem]] = None):
        self.span = span
        self.items = [] if items is None else items


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

class Decl(Node):
    pass


class TypeParam(Node):
    """``type T``, ``key K`` or ``state S`` inside ``<...>`` of a declaration."""

    _fields = ("span", "kind", "name")

    def __init__(self, span: Span, kind: str, name: str):
        self.span = span
        self.kind = kind  # "type" | "key" | "state"
        self.name = name


class Param(Node):
    _fields = ("span", "type", "name")

    def __init__(self, span: Span, type: Type, name: Optional[str]):
        self.span = span
        self.type = type
        self.name = name


class FunDecl(Decl):
    """A function signature (prototype); also used inside interfaces."""

    _fields = ("span", "ret", "name", "params", "effect", "type_params")

    def __init__(self, span: Span, ret: Type, name: str, params: List[Param],
                 effect: Optional[EffectClause],
                 type_params: Optional[List[TypeParam]] = None):
        self.span = span
        self.ret = ret
        self.name = name
        self.params = params
        self.effect = effect
        self.type_params = [] if type_params is None else type_params


class FunDef(Decl):
    """A function definition with a body; may be nested (Figure 7)."""

    _fields = ("span", "decl", "body")

    def __init__(self, span: Span, decl: FunDecl, body: "Block"):
        self.span = span
        self.decl = decl
        self.body = body


class TypeAliasDecl(Decl):
    """``type name<params> = type;`` — ``rhs`` is ``None`` for abstract types."""

    _fields = ("span", "name", "params", "rhs")

    def __init__(self, span: Span, name: str, params: List[TypeParam],
                 rhs: Optional[Type]):
        self.span = span
        self.name = name
        self.params = params
        self.rhs = rhs


class CtorDecl(Node):
    """A variant constructor: ``'Name(arg-types){key-attachments}``."""

    _fields = ("span", "name", "args", "keys")

    def __init__(self, span: Span, name: str,
                 args: Optional[List[Type]] = None,
                 keys: Optional[List[Tuple[str, Optional[StateExpr]]]] = None):
        self.span = span
        self.name = name
        self.args = [] if args is None else args
        self.keys = [] if keys is None else keys


class VariantDecl(Decl):
    _fields = ("span", "name", "params", "ctors")

    def __init__(self, span: Span, name: str, params: List[TypeParam],
                 ctors: List[CtorDecl]):
        self.span = span
        self.name = name
        self.params = params
        self.ctors = ctors


class StructField(Node):
    _fields = ("span", "type", "name")

    def __init__(self, span: Span, type: Type, name: str):
        self.span = span
        self.type = type
        self.name = name


class StructDecl(Decl):
    _fields = ("span", "name", "params", "fields")

    def __init__(self, span: Span, name: str, params: List[TypeParam],
                 fields: List[StructField]):
        self.span = span
        self.name = name
        self.params = params
        self.fields = fields


class StateSetDecl(Decl):
    """``stateset NAME = [ a < b < c ];`` — states with a partial order.

    ``order`` lists the declared ``<`` edges; states not related by any
    edge are incomparable.
    """

    _fields = ("span", "name", "states", "order")

    def __init__(self, span: Span, name: str, states: List[str],
                 order: List[Tuple[str, str]]):
        self.span = span
        self.name = name
        self.states = states
        self.order = order


class KeyDecl(Decl):
    """``key NAME @ STATESET;`` — a statically-declared (global) key (§4.4)."""

    _fields = ("span", "name", "stateset", "initial")

    def __init__(self, span: Span, name: str, stateset: Optional[str],
                 initial: Optional[str] = None):
        self.span = span
        self.name = name
        self.stateset = stateset
        self.initial = initial


class InterfaceDecl(Decl):
    _fields = ("span", "name", "decls")

    def __init__(self, span: Span, name: str, decls: List[Decl]):
        self.span = span
        self.name = name
        self.decls = decls


class ModuleDecl(Decl):
    """``module Name : IFACE { ... }`` or ``extern module Name : IFACE;``."""

    _fields = ("span", "name", "interface", "decls", "is_extern")

    def __init__(self, span: Span, name: str, interface: Optional[str],
                 decls: List[Decl], is_extern: bool = False):
        self.span = span
        self.name = name
        self.interface = interface
        self.decls = decls
        self.is_extern = is_extern


class Program(Node):
    _fields = ("span", "decls", "filename")

    def __init__(self, span: Span, decls: List[Decl],
                 filename: str = "<input>"):
        self.span = span
        self.decls = decls
        self.filename = filename


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Stmt(Node):
    pass


class Block(Stmt):
    _fields = ("span", "stmts")

    def __init__(self, span: Span, stmts: List[Stmt]):
        self.span = span
        self.stmts = stmts


class VarDecl(Stmt):
    _fields = ("span", "type", "name", "init")

    def __init__(self, span: Span, type: Type, name: str,
                 init: Optional["Expr"]):
        self.span = span
        self.type = type
        self.name = name
        self.init = init


class LocalFun(Stmt):
    """A nested function definition (the paper's ``RegainIrp``, Figure 7)."""

    _fields = ("span", "fundef")

    def __init__(self, span: Span, fundef: FunDef):
        self.span = span
        self.fundef = fundef


class ExprStmt(Stmt):
    _fields = ("span", "expr")

    def __init__(self, span: Span, expr: "Expr"):
        self.span = span
        self.expr = expr


class Assign(Stmt):
    _fields = ("span", "target", "op", "value")

    def __init__(self, span: Span, target: "Expr", op: str, value: "Expr"):
        self.span = span
        self.target = target
        self.op = op  # "=", "+=", "-="
        self.value = value


class IncDec(Stmt):
    _fields = ("span", "target", "op")

    def __init__(self, span: Span, target: "Expr", op: str):
        self.span = span
        self.target = target
        self.op = op  # "++" or "--"


class If(Stmt):
    _fields = ("span", "cond", "then", "orelse")

    def __init__(self, span: Span, cond: "Expr", then: Stmt,
                 orelse: Optional[Stmt]):
        self.span = span
        self.cond = cond
        self.then = then
        self.orelse = orelse


class While(Stmt):
    _fields = ("span", "cond", "body")

    def __init__(self, span: Span, cond: "Expr", body: Stmt):
        self.span = span
        self.cond = cond
        self.body = body


class Return(Stmt):
    _fields = ("span", "value")

    def __init__(self, span: Span, value: Optional["Expr"]):
        self.span = span
        self.value = value


class Free(Stmt):
    _fields = ("span", "target")

    def __init__(self, span: Span, target: "Expr"):
        self.span = span
        self.target = target


class Break(Stmt):
    pass


class Continue(Stmt):
    pass


class Pattern(Node):
    """A switch pattern: ``'Ctor``, ``'Ctor(x, _, y)`` or ``default``."""

    _fields = ("span", "ctor", "binders")

    def __init__(self, span: Span, ctor: Optional[str],
                 binders: Optional[List[Optional[str]]] = None):
        self.span = span
        self.ctor = ctor  # None for default
        self.binders = [] if binders is None else binders


class Case(Node):
    _fields = ("span", "pattern", "body")

    def __init__(self, span: Span, pattern: Pattern, body: List[Stmt]):
        self.span = span
        self.pattern = pattern
        self.body = body


class Switch(Stmt):
    _fields = ("span", "scrutinee", "cases")

    def __init__(self, span: Span, scrutinee: "Expr", cases: List[Case]):
        self.span = span
        self.scrutinee = scrutinee
        self.cases = cases


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr(Node):
    pass


class IntLit(Expr):
    _fields = ("span", "value")

    def __init__(self, span: Span, value: int):
        self.span = span
        self.value = value


class FloatLit(Expr):
    _fields = ("span", "value")

    def __init__(self, span: Span, value: float):
        self.span = span
        self.value = value


class BoolLit(Expr):
    _fields = ("span", "value")

    def __init__(self, span: Span, value: bool):
        self.span = span
        self.value = value


class StringLit(Expr):
    _fields = ("span", "value")

    def __init__(self, span: Span, value: str):
        self.span = span
        self.value = value


class CharLit(Expr):
    _fields = ("span", "value")

    def __init__(self, span: Span, value: str):
        self.span = span
        self.value = value


class NullLit(Expr):
    pass


class Name(Expr):
    _fields = ("span", "ident")

    def __init__(self, span: Span, ident: str):
        self.span = span
        self.ident = ident


class FieldAccess(Expr):
    _fields = ("span", "obj", "field")

    def __init__(self, span: Span, obj: Expr, field: str):
        self.span = span
        self.obj = obj
        self.field = field


class Index(Expr):
    _fields = ("span", "obj", "index")

    def __init__(self, span: Span, obj: Expr, index: Expr):
        self.span = span
        self.obj = obj
        self.index = index


class Call(Expr):
    """``f(args)`` or ``Module.f(args)`` (``fn`` is Name or FieldAccess)."""

    _fields = ("span", "fn", "args")

    def __init__(self, span: Span, fn: Expr, args: List[Expr]):
        self.span = span
        self.fn = fn
        self.args = args


class Unary(Expr):
    _fields = ("span", "op", "operand")

    def __init__(self, span: Span, op: str, operand: Expr):
        self.span = span
        self.op = op
        self.operand = operand


class Binary(Expr):
    _fields = ("span", "op", "left", "right")

    def __init__(self, span: Span, op: str, left: Expr, right: Expr):
        self.span = span
        self.op = op
        self.left = left
        self.right = right


class CtorApp(Expr):
    """Constructor application: ``'Name``, ``'Name(args)``, ``'Name{K}``,
    ``'Name(args){K}``."""

    _fields = ("span", "name", "args", "keys")

    def __init__(self, span: Span, name: str,
                 args: Optional[List[Expr]] = None,
                 keys: Optional[List[str]] = None):
        self.span = span
        self.name = name
        self.args = [] if args is None else args
        self.keys = [] if keys is None else keys


class FieldInit(Node):
    _fields = ("span", "name", "value")

    def __init__(self, span: Span, name: str, value: Expr):
        self.span = span
        self.name = name
        self.value = value


class New(Expr):
    """Allocation:

    * ``new tracked T {inits}``  — fresh tracked heap object (``tracked=True``)
    * ``new(rgn) T {inits}``     — region allocation (``region`` set)
    * ``new T {inits}``          — plain struct value
    """

    _fields = ("span", "type", "inits", "tracked", "region")

    def __init__(self, span: Span, type: Type, inits: List[FieldInit],
                 tracked: bool = False, region: Optional[Expr] = None):
        self.span = span
        self.type = type
        self.inits = inits
        self.tracked = tracked
        self.region = region


class ArrayLit(Expr):
    _fields = ("span", "elems")

    def __init__(self, span: Span, elems: List[Expr]):
        self.span = span
        self.elems = elems

