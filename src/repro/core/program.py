"""Program context: all declarations of a Vault compilation.

Collects statesets, global keys, type declarations (aliases, abstract
types, structs, variants with their constructors), interfaces, modules
and function signatures from one or more parsed compilation units (the
standard Vault interfaces of §2/§4 plus the user program), then checks
module/interface conformance.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..diagnostics import Code, Reporter, Span
from ..syntax import ast
from .effects import Signature
from .elaborate import Elaborator, Scope
from .keys import DEFAULT_STATE, Key, StateSet, StateSpace, number_keys
from .types import (CType, CTypeVar, KeyVarRef, StateReq, StateVarRef)


class TypeDeclInfo:
    """A declared named type — alias, abstract type, struct or variant.

    ``params`` are (kind, name) pairs with kind ∈ {"type","key","state"}.
    For aliases ``rhs`` is the surface right-hand side (``None`` marks an
    abstract type); ``owner`` is the module owning an abstract type's
    representation.
    """

    def __init__(self, name: str, kind: str, params: List[Tuple[str, str]],
                 rhs: Optional[ast.Type] = None, owner: Optional[str] = None,
                 span: Optional[Span] = None):
        self.name = name
        self.kind = kind                # "alias" | "struct" | "variant"
        self.params = params
        self.rhs = rhs
        self.owner = owner
        self.span = Span.unknown() if span is None else span

    @property
    def is_abstract(self) -> bool:
        return self.kind == "alias" and self.rhs is None


class StructInfo:
    def __init__(self, name: str, params: List[Tuple[str, str]],
                 fields: List[Tuple[str, CType]]):
        self.name = name
        self.params = params
        self.fields = fields

    def field_type(self, fname: str) -> Optional[CType]:
        for name, ctype in self.fields:
            if name == fname:
                return ctype
        return None


class CtorInfo:
    """One variant constructor with elaborated argument types and key
    attachments (``'SomeKey{K}`` / ``'Error(error_code){K@raw}``)."""

    def __init__(self, name: str, variant: str, index: int,
                 arg_types: List[CType],
                 key_attach: List[Tuple[str, StateReq]]):
        self.name = name
        self.variant = variant
        self.index = index
        self.arg_types = arg_types
        self.key_attach = key_attach    # (key-param name, state req)


class VariantInfo:
    def __init__(self, name: str, params: List[Tuple[str, str]],
                 ctors: List[CtorInfo]):
        self.name = name
        self.params = params
        self.ctors = ctors

    def ctor(self, name: str) -> Optional[CtorInfo]:
        for c in self.ctors:
            if c.name == name:
                return c
        return None

    @property
    def captures_keys(self) -> bool:
        """Does any constructor capture a key (making values linear)?"""
        from .types import CPacked, CTracked
        for c in self.ctors:
            if c.key_attach:
                return True
            for t in c.arg_types:
                if isinstance(t, (CPacked, CTracked)):
                    return True
        return False


class GlobalKeyInfo:
    def __init__(self, name: str, key: Key, stateset: Optional[str],
                 initial: Optional[str]):
        self.name = name
        self.key = key
        self.stateset = stateset
        self.initial = initial


class ProgramContext:
    """Symbol tables for a whole Vault program."""

    def __init__(self) -> None:
        self.statespace = StateSpace()
        self.global_keys: Dict[str, GlobalKeyInfo] = {}
        self.type_decls: Dict[str, TypeDeclInfo] = {}
        self.structs: Dict[str, StructInfo] = {}
        self.variants: Dict[str, VariantInfo] = {}
        self.ctor_index: Dict[str, str] = {}       # ctor name -> variant name
        self.interfaces: Dict[str, List[ast.Decl]] = {}
        self.functions: Dict[str, Signature] = {}  # qualified name -> sig
        self.fun_defs: Dict[str, ast.FunDef] = {}
        self.modules: Dict[str, ast.ModuleDecl] = {}

    # -- lookups ------------------------------------------------------------

    def type_decl(self, name: str) -> Optional[TypeDeclInfo]:
        return self.type_decls.get(name)

    def global_key(self, name: str) -> Optional[GlobalKeyInfo]:
        return self.global_keys.get(name)

    def struct(self, name: str) -> Optional[StructInfo]:
        return self.structs.get(name)

    def variant(self, name: str) -> Optional[VariantInfo]:
        return self.variants.get(name)

    def ctor(self, name: str) -> Optional[CtorInfo]:
        vname = self.ctor_index.get(name)
        if vname is None:
            return None
        return self.variants[vname].ctor(name)

    def function(self, name: str, module: Optional[str] = None
                 ) -> Optional[Signature]:
        qual = f"{module}.{name}" if module else name
        return self.functions.get(qual)

    def defined_functions(self) -> List[Tuple[str, ast.FunDef]]:
        return sorted(self.fun_defs.items())

    # -- structure ----------------------------------------------------------

    def clone(self) -> "ProgramContext":
        """An independent copy that later :func:`build_context` calls can
        extend without mutating this one.

        Every top-level table is copied; so are the values that
        ``build_context`` mutates in place (:class:`TypeDeclInfo`, whose
        ``rhs``/``owner`` are filled in when a module implements an
        interface's abstract type, and the state space).  Remaining
        values (signatures, struct/variant infos, parsed ASTs) are
        shared — nothing writes to them after elaboration.
        """
        new = ProgramContext()
        new.statespace.sets = dict(self.statespace.sets)
        new.statespace._owner = dict(self.statespace._owner)
        new.global_keys = dict(self.global_keys)
        new.type_decls = {
            name: TypeDeclInfo(info.name, info.kind, list(info.params),
                               info.rhs, info.owner, info.span)
            for name, info in self.type_decls.items()}
        new.structs = dict(self.structs)
        new.variants = dict(self.variants)
        new.ctor_index = dict(self.ctor_index)
        new.interfaces = dict(self.interfaces)
        new.functions = dict(self.functions)
        new.fun_defs = dict(self.fun_defs)
        new.modules = dict(self.modules)
        return new


def build_context(programs: List[ast.Program],
                  reporter: Reporter,
                  base: Optional[ProgramContext] = None) -> ProgramContext:
    """Build the symbol tables from parsed compilation units.

    Runs in phases so that mutually-recursive declarations resolve:
    statesets/keys, then type *names*, then type *bodies* (struct
    fields, variant constructors), then function signatures.

    ``base`` extends an already-built context with the declarations of
    ``programs`` without re-elaborating the base: the stdlib loader
    builds its units once per process and every ``check_source`` call
    layers the user program on a clone (see
    :func:`repro.stdlib.loader.stdlib_context`).
    """
    number_keys()
    ctx = base.clone() if base is not None else ProgramContext()
    elab = Elaborator(ctx, reporter)

    flat: List[Tuple[Optional[str], ast.Decl]] = []
    #: modules introduced by *these* programs — interface-conformance
    #: and abstract-type ownership only run over new modules, so a base
    #: context's modules are not re-checked (and their extern interface
    #: functions not re-registered).
    new_modules: List[ast.ModuleDecl] = []

    def walk(decls: List[ast.Decl], module: Optional[str]) -> None:
        for decl in decls:
            if isinstance(decl, ast.InterfaceDecl):
                if decl.name in ctx.interfaces:
                    reporter.error(Code.DUPLICATE_NAME,
                                   f"duplicate interface '{decl.name}'",
                                   decl.span)
                ctx.interfaces[decl.name] = decl.decls
                walk([d for d in decl.decls
                      if not isinstance(d, (ast.FunDecl, ast.FunDef))], None)
            elif isinstance(decl, ast.ModuleDecl):
                ctx.modules[decl.name] = decl
                new_modules.append(decl)
                walk(decl.decls, decl.name)
            else:
                flat.append((module, decl))

    for prog in programs:
        walk(prog.decls, None)

    # Phase 1: statesets and global keys.
    for module, decl in flat:
        if isinstance(decl, ast.StateSetDecl):
            if decl.name in ctx.statespace.sets:
                reporter.error(Code.DUPLICATE_NAME,
                               f"duplicate stateset '{decl.name}'", decl.span)
                continue
            ctx.statespace.add(StateSet(decl.name, tuple(decl.states),
                                        tuple(decl.order)))
        elif isinstance(decl, ast.KeyDecl):
            if decl.name in ctx.global_keys:
                reporter.error(Code.DUPLICATE_NAME,
                               f"duplicate key '{decl.name}'", decl.span)
                continue
            sset = decl.stateset
            if sset is not None and sset not in ctx.statespace.sets:
                reporter.error(Code.UNDEFINED_STATE,
                               f"unknown stateset '{sset}'", decl.span)
            initial = decl.initial
            if initial is None and sset is not None:
                bottom = ctx.statespace.sets.get(sset)
                initial = bottom.bottom() if bottom else None
            ctx.global_keys[decl.name] = GlobalKeyInfo(
                decl.name, Key(decl.name, origin="global"), sset,
                initial or DEFAULT_STATE)

    # Phase 2: register type names.
    for module, decl in flat:
        if isinstance(decl, ast.TypeAliasDecl):
            _register_type(ctx, reporter, TypeDeclInfo(
                decl.name, "alias", [(p.kind, p.name) for p in decl.params],
                decl.rhs, owner=module, span=decl.span))
        elif isinstance(decl, ast.StructDecl):
            _register_type(ctx, reporter, TypeDeclInfo(
                decl.name, "struct", [(p.kind, p.name) for p in decl.params],
                owner=module, span=decl.span))
        elif isinstance(decl, ast.VariantDecl):
            _register_type(ctx, reporter, TypeDeclInfo(
                decl.name, "variant", [(p.kind, p.name) for p in decl.params],
                owner=module, span=decl.span))

    # Abstract types declared in an interface belong to implementing
    # modules; record the first implementing module as owner.
    for mod in new_modules:
        iface = ctx.interfaces.get(mod.interface) if mod.interface else None
        if iface is None:
            continue
        for d in iface:
            if isinstance(d, ast.TypeAliasDecl) and d.rhs is None:
                info = ctx.type_decls.get(d.name)
                if info is not None and info.owner is None:
                    info.owner = mod.name

    # Phase 3: elaborate struct fields and variant constructors.
    for module, decl in flat:
        if isinstance(decl, ast.StructDecl):
            scope = _decl_scope(decl.params)
            fields = []
            seen = set()
            for f in decl.fields:
                if f.name in seen:
                    reporter.error(Code.DUPLICATE_NAME,
                                   f"duplicate field '{f.name}'", f.span)
                seen.add(f.name)
                fields.append((f.name, elab.elab_type(f.type, scope)))
            ctx.structs[decl.name] = StructInfo(
                decl.name, [(p.kind, p.name) for p in decl.params], fields)
        elif isinstance(decl, ast.VariantDecl):
            scope = _decl_scope(decl.params)
            ctors: List[CtorInfo] = []
            declared_keys = {p.name for p in decl.params if p.kind == "key"}
            for idx, c in enumerate(decl.ctors):
                if c.name in ctx.ctor_index:
                    reporter.error(
                        Code.DUPLICATE_NAME,
                        f"constructor '{c.name}' already declared in variant "
                        f"'{ctx.ctor_index[c.name]}'", c.span)
                    continue
                arg_types = [elab.elab_type(t, scope) for t in c.args]
                attach: List[Tuple[str, StateReq]] = []
                for kname, kstate in c.keys:
                    if kname not in declared_keys:
                        reporter.error(
                            Code.UNDEFINED_KEY,
                            f"constructor '{c.name}' attaches undeclared key "
                            f"'{kname}'", c.span)
                        continue
                    # A state-less attachment ``{K}`` captures the key at
                    # any state; matching restores it at an unknown
                    # (symbolic) state.  State-annotated attachments
                    # (``{K@named}``) capture and restore exactly.
                    from .types import ANY_STATE
                    req = (elab._state_req(kstate, scope)
                           if kstate is not None else ANY_STATE)
                    attach.append((kname, req))
                ctors.append(CtorInfo(c.name, decl.name, idx, arg_types,
                                      attach))
                ctx.ctor_index[c.name] = decl.name
            ctx.variants[decl.name] = VariantInfo(
                decl.name, [(p.kind, p.name) for p in decl.params], ctors)

    # Validate alias bodies eagerly (catches recursive aliases and
    # unknown types even when the alias is never used).
    for module, decl in flat:
        if isinstance(decl, ast.TypeAliasDecl) and decl.rhs is not None \
                and not isinstance(decl.rhs, ast.FunType):
            info = ctx.type_decls.get(decl.name)
            if info is not None and info.kind == "alias":
                elab.elab_type(
                    ast.NamedType(decl.span, decl.name,
                                  [_self_arg(p) for p in decl.params]),
                    _decl_scope(decl.params))

    # Phase 4: function signatures.
    for module, decl in flat:
        if isinstance(decl, ast.FunDecl):
            _register_function(
                ctx, reporter,
                elab.elab_signature(decl, module=module, is_extern=True),
                decl.span)
        elif isinstance(decl, ast.FunDef):
            _register_function(
                ctx, reporter,
                elab.elab_signature(decl.decl, module=module,
                                    is_extern=False),
                decl.span)
            qual = f"{module}.{decl.decl.name}" if module else decl.decl.name
            ctx.fun_defs[qual] = decl

    # Extern modules implementing an interface get the interface's
    # signatures as host-provided primitives.
    for mod in new_modules:
        iface = ctx.interfaces.get(mod.interface) if mod.interface else None
        if mod.interface is not None and iface is None:
            reporter.error(Code.UNDEFINED_NAME,
                           f"unknown interface '{mod.interface}'", mod.span)
            continue
        if iface is None:
            continue
        iface_sigs = {}
        for d in iface:
            if isinstance(d, ast.FunDecl):
                sig = elab.elab_signature(d, module=mod.name,
                                          is_extern=mod.is_extern)
                iface_sigs[d.name] = sig
                if mod.is_extern:
                    _register_function(ctx, reporter, sig, d.span)
        if not mod.is_extern:
            _check_conformance(ctx, reporter, mod, iface_sigs)

    return ctx


def _exact_default():
    from .types import ExactState
    return ExactState(DEFAULT_STATE)


def _self_arg(param: ast.TypeParam) -> ast.TypeArg:
    """A type argument referring to the declaration's own parameter."""
    named = ast.NamedType(param.span, param.name, [])
    return ast.TypeArg(param.span, named, param.name)


def _decl_scope(params: List[ast.TypeParam]) -> Scope:
    scope = Scope()
    for p in params:
        if p.kind == "type":
            scope.types[p.name] = CTypeVar(p.name)
        elif p.kind == "key":
            scope.keys[p.name] = KeyVarRef(p.name)
        else:
            scope.states[p.name] = StateVarRef(p.name)
    return scope


def _register_type(ctx: ProgramContext, reporter: Reporter,
                   info: TypeDeclInfo) -> None:
    if info.name in ctx.type_decls:
        existing = ctx.type_decls[info.name]
        # Re-declaring an interface's abstract type inside the module
        # that implements it is how a module provides a representation.
        if existing.is_abstract and not info.is_abstract:
            existing.rhs = info.rhs
            return
        if existing.is_abstract and info.is_abstract:
            return
        reporter.error(Code.DUPLICATE_NAME,
                       f"duplicate type '{info.name}'", info.span)
        return
    ctx.type_decls[info.name] = info


def _register_function(ctx: ProgramContext, reporter: Reporter,
                       sig: Signature, span: Span) -> None:
    qual = sig.qualified_name
    if qual in ctx.functions:
        reporter.error(Code.DUPLICATE_NAME,
                       f"duplicate function '{qual}'", span)
        return
    ctx.functions[qual] = sig


def _check_conformance(ctx: ProgramContext, reporter: Reporter,
                       mod: ast.ModuleDecl,
                       iface_sigs: Dict[str, Signature]) -> None:
    """A Vault-implemented module must define every interface function
    with a signature that matches up to renaming of its variables."""
    for name, want in iface_sigs.items():
        have = ctx.functions.get(f"{mod.name}.{name}")
        if have is None:
            reporter.error(
                Code.UNDEFINED_NAME,
                f"module '{mod.name}' does not implement interface "
                f"function '{name}'", mod.span)
            continue
        if not signatures_alpha_equal(want, have):
            reporter.error(
                Code.TYPE_MISMATCH,
                f"module '{mod.name}' implements '{name}' with signature "
                f"{have.show()} but the interface declares {want.show()}",
                mod.span)


def signatures_alpha_equal(a: Signature, b: Signature) -> bool:
    """Structural signature equality up to renaming of key/state/type
    variables (sufficient for interface conformance)."""
    if len(a.params) != len(b.params):
        return False
    return _normal_form(a) == _normal_form(b)


def _normal_form(sig: Signature) -> str:
    """Render a signature with its variables numbered in first-use order."""
    names: Dict[str, str] = {}

    def canon(name: str, prefix: str) -> str:
        key = f"{prefix}:{name}"
        if key not in names:
            names[key] = f"{prefix}{len(names)}"
        return names[key]

    def walk_type(t: CType) -> str:
        from .types import (CArray, CBase, CFun, CGuarded, CNamed, CPacked,
                            CTracked, CTypeVar)
        if isinstance(t, CBase):
            return t.name
        if isinstance(t, CTypeVar):
            return canon(t.name, "t")
        if isinstance(t, CArray):
            return walk_type(t.elem) + "[]"
        if isinstance(t, CTracked):
            return f"tracked({walk_key(t.key)}) {walk_type(t.inner)}"
        if isinstance(t, CPacked):
            return f"tracked {walk_type(t.inner)}@{walk_req(t.state)}"
        if isinstance(t, CGuarded):
            gs = ",".join(f"{walk_key(k)}@{walk_req(r)}" for k, r in t.guards)
            return f"[{gs}]:{walk_type(t.inner)}"
        if isinstance(t, CNamed):
            args = ",".join(walk_arg(arg) for arg in t.args)
            return f"{t.name}<{args}>"
        if isinstance(t, CFun):
            return _normal_form(t.sig)
        return repr(t)

    def walk_key(k) -> str:
        if isinstance(k, KeyVarRef):
            return canon(k.name, "k")
        return repr(k)

    def walk_req(r) -> str:
        from .types import AnyState, AtMostState, ExactState
        if isinstance(r, AnyState):
            return "*"
        if isinstance(r, AtMostState):
            return f"({canon(r.var, 's')}<={r.bound})"
        if isinstance(r, ExactState):
            if isinstance(r.state, StateVarRef):
                return canon(r.state.name, "s")
            return str(r.state)
        return repr(r)

    def walk_arg(arg) -> str:
        if arg.kind == "type":
            return walk_type(arg.type)
        if arg.kind == "key":
            return walk_key(arg.key)
        if isinstance(arg.state, StateVarRef):
            return canon(arg.state.name, "s")
        return str(arg.state)

    def effect_key(k) -> str:
        if isinstance(k, str):
            return canon(k, "k") if k in sig.key_vars else k
        return repr(k)

    params = ",".join(walk_type(p.type) for p in sig.params)
    effect = ",".join(
        f"{i.mode}:{effect_key(i.key)}"
        f"@{walk_req(i.pre)}->{walk_req(i.post) if i.post else '='}"
        for i in sig.effect.items)
    return f"({params})->{walk_type(sig.ret)}[{effect}]"
