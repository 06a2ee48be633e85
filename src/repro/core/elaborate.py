"""Elaboration of surface syntax into the core type language (§3).

The elaborator translates surface types and function signatures into
the internal types of :mod:`repro.core.types`, performing:

* resolution of names to statesets, global keys, bound key/state/type
  variables, and declared types;
* *implicit polymorphism*: key and state names first referenced in a
  signature are generalised ("Key names such as K are bound when first
  referenced", §2.1 fn. 3) — ``void fclose(tracked(F) FILE) [-F]`` needs
  no explicit ``<key F>``;
* alias expansion with cycle detection (``guarded_int<F>`` →
  ``F:int``, ``paged<T>`` → ``(IRQL@(level<=APC_LEVEL)):T``);
* effect-clause elaboration into :class:`~repro.core.effects.CoreEffect`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union

from ..diagnostics import Code, Reporter, Span
from ..syntax import ast
from .effects import CoreEffect, CoreEffectItem, Signature, SigParam
from .keys import DEFAULT_STATE, Key, StateVar
from .types import (ANY_STATE, AtMostState, CArg, CArray, CBase, CFun,
                    CGuarded, CNamed, CPacked, CTracked, CType, CTypeVar,
                    ExactState, KeyRef, KeyVarRef, StateArgValue, StateReq,
                    StateVarRef, VOID)

BASE_TYPES = {
    "void": CBase("void"), "int": CBase("int"), "bool": CBase("bool"),
    "byte": CBase("byte"), "float": CBase("float"),
    "string": CBase("string"), "char": CBase("char"),
}


class Scope:
    """Lexically-scoped bindings for key, state and type variables.

    ``keys`` maps a key name to its meaning here — a :class:`KeyVarRef`
    while elaborating a declaration, or a concrete :class:`Key` while
    elaborating types inside a function body or expanding an alias.
    """

    def __init__(self, parent: Optional["Scope"] = None,
                 implicit_keys: bool = False):
        self.parent = parent
        self.keys: Dict[str, KeyRef] = {}
        self.states: Dict[str, StateArgValue] = {}
        self.types: Dict[str, CType] = {}
        self.implicit_keys = implicit_keys
        self.state_binders_ok = False
        self.new_key_vars: List[str] = []
        self.new_state_vars: List[str] = []

    def lookup_key(self, name: str) -> Optional[KeyRef]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.keys:
                return scope.keys[name]
            scope = scope.parent
        return None

    def lookup_state(self, name: str) -> Optional[StateArgValue]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.states:
                return scope.states[name]
            scope = scope.parent
        return None

    def lookup_type(self, name: str) -> Optional[CType]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.types:
                return scope.types[name]
            scope = scope.parent
        return None

    def bind_implicit_key(self, name: str) -> KeyVarRef:
        ref = KeyVarRef(name)
        self.keys[name] = ref
        self.new_key_vars.append(name)
        return ref

    def bind_state_var(self, name: str, bound: Optional[str]) -> StateVarRef:
        ref = StateVarRef(name, bound)
        self.states[name] = ref
        if name not in self.new_state_vars:
            self.new_state_vars.append(name)
        return ref


class Elaborator:
    """Translates surface types/signatures to core types.

    ``ctx`` is a :class:`repro.core.program.ProgramContext` (tables of
    declared types, keys, statesets); errors go to ``reporter``.
    """

    def __init__(self, ctx, reporter: Reporter):
        self.ctx = ctx
        self.reporter = reporter
        self._expanding: Set[str] = set()

    # -- types --------------------------------------------------------------

    def elab_type(self, ty: ast.Type, scope: Scope) -> CType:
        if isinstance(ty, ast.BaseType):
            return BASE_TYPES[ty.name]
        if isinstance(ty, ast.ArrayType):
            return CArray(self.elab_type(ty.elem, scope))
        if isinstance(ty, ast.TrackedType):
            inner = self.elab_type(ty.inner, scope)
            if ty.key is None:
                state = self._state_req(ty.state, scope) if ty.state else ANY_STATE
                return CPacked(inner, state)
            key = self.resolve_key(ty.key, scope, ty.span)
            return CTracked(key, inner)
        if isinstance(ty, ast.GuardedType):
            key = self.resolve_key(ty.key, scope, ty.span)
            req = self._state_req(ty.state, scope) if ty.state else ANY_STATE
            inner = self.elab_type(ty.inner, scope)
            if isinstance(inner, CGuarded):
                return CGuarded(((key, req),) + inner.guards, inner.inner)
            return CGuarded(((key, req),), inner)
        if isinstance(ty, ast.NamedType):
            return self._elab_named(ty, scope)
        if isinstance(ty, ast.FunType):
            decl = ast.FunDecl(ty.span, ty.ret, ty.name or "<fn>", ty.params,
                               ty.effect, [])
            sig = self.elab_signature(decl, module=None, is_extern=False,
                                      outer=scope)
            return CFun(sig)
        raise TypeError(f"unknown type node {type(ty).__name__}")

    def _elab_named(self, ty: ast.NamedType, scope: Scope) -> CType:
        bound = scope.lookup_type(ty.name)
        if bound is not None and not ty.args:
            return bound

        decl = self.ctx.type_decl(ty.name)
        if decl is None:
            self.reporter.error(Code.UNDEFINED_TYPE,
                                f"unknown type '{ty.name}'", ty.span)
            return CNamed(ty.name, ())

        params = decl.params
        if len(params) != len(ty.args):
            self.reporter.error(
                Code.ARITY_MISMATCH,
                f"type '{ty.name}' expects {len(params)} argument(s), "
                f"got {len(ty.args)}", ty.span)
            return CNamed(ty.name, ())

        cargs: List[CArg] = []
        for (kind, _pname), arg in zip(params, ty.args):
            cargs.append(self._coerce_arg(kind, arg, scope))

        if decl.kind == "alias" and decl.rhs is not None:
            return self._expand_alias(ty.name, decl, cargs, ty.span)
        return CNamed(ty.name, tuple(cargs))

    def _coerce_arg(self, kind: str, arg: ast.TypeArg, scope: Scope) -> CArg:
        if kind == "key":
            if arg.name is None:
                self.reporter.error(Code.BAD_TYPE_ARGUMENT,
                                    "expected a key name here", arg.span)
                return CArg("key", key=KeyVarRef("?"))
            return CArg("key", key=self.resolve_key(arg.name, scope, arg.span))
        if kind == "state":
            if arg.name is None:
                self.reporter.error(Code.BAD_TYPE_ARGUMENT,
                                    "expected a state name here", arg.span)
                return CArg("state", state="?")
            return CArg("state",
                        state=self._state_arg(arg.name, scope, arg.span))
        assert arg.type is not None
        return CArg("type", type=self.elab_type(arg.type, scope))

    def _expand_alias(self, name: str, decl, cargs: List[CArg],
                      span: Span) -> CType:
        if name in self._expanding:
            self.reporter.error(Code.BAD_TYPE_ARGUMENT,
                                f"recursive type alias '{name}'", span)
            return CNamed(name, tuple(cargs))
        child = Scope()
        for (kind, pname), carg in zip(decl.params, cargs):
            if kind == "key":
                child.keys[pname] = carg.key
            elif kind == "state":
                child.states[pname] = carg.state
            else:
                child.types[pname] = carg.type
        self._expanding.add(name)
        try:
            return self.elab_type(decl.rhs, child)
        finally:
            self._expanding.discard(name)

    # -- keys and states -------------------------------------------------------

    def resolve_key(self, name: str, scope: Scope, span: Span) -> KeyRef:
        found = scope.lookup_key(name)
        if found is not None:
            return found
        gkey = self.ctx.global_key(name)
        if gkey is not None:
            return gkey.key
        # Implicit generalisation, allowed only in signature scopes.
        target: Optional[Scope] = scope
        while target is not None and not target.implicit_keys:
            target = target.parent
        if target is not None:
            return target.bind_implicit_key(name)
        self.reporter.error(Code.UNDEFINED_KEY,
                            f"unknown key '{name}'", span)
        return KeyVarRef(name)

    def resolve_state(self, name: str, scope: Scope,
                      span: Span) -> StateArgValue:
        """Resolve a state in ``@state`` requirement position: a bound
        variable, else a concrete state name (stateset member or
        free-form).  Binding occurrences only happen in ``<...>``
        argument positions — see :meth:`_state_arg`."""
        found = scope.lookup_state(name)
        if found is not None:
            return found
        return name

    def _state_arg(self, name: str, scope: Scope,
                   span: Span) -> StateArgValue:
        """Resolve a state *argument* in ``<...>`` position.

        Unlike ``@state`` requirement positions (where unknown names are
        free-form concrete states), an unknown name in argument position
        inside a signature is a binding occurrence: ``KIRQL<S>`` in
        ``KeReleaseSpinLock(KSPIN_LOCK<K> l, KIRQL<S> old)`` binds the
        state variable ``S``."""
        found = scope.lookup_state(name)
        if found is not None:
            return found
        if self.ctx.statespace.set_of_state(name) is not None:
            return name
        target: Optional[Scope] = scope
        while target is not None and not (target.implicit_keys
                                          or target.state_binders_ok):
            target = target.parent
        if target is not None:
            return target.bind_state_var(name, None)
        return name

    def _state_req(self, st: ast.StateExpr, scope: Scope) -> StateReq:
        if isinstance(st, ast.StateBound):
            self._check_bound_state(st.bound, st.span)
            # Bind the variable for later references (result types etc.)
            nearest = self._nearest_sig_scope(scope)
            (nearest or scope).bind_state_var(st.var, st.bound)
            return AtMostState(st.var, st.bound)
        value = self.resolve_state(st.name, scope, st.span)
        return ExactState(value)

    def _check_bound_state(self, name: str, span: Span) -> None:
        if self.ctx.statespace.set_of_state(name) is None:
            self.reporter.error(
                Code.UNDEFINED_STATE,
                f"state '{name}' used as an ordering bound is not a member "
                f"of any declared stateset", span)

    @staticmethod
    def _nearest_sig_scope(scope: Scope) -> Optional[Scope]:
        cur: Optional[Scope] = scope
        while cur is not None:
            if cur.implicit_keys:
                return cur
            cur = cur.parent
        return None

    # -- signatures -----------------------------------------------------------------

    def elab_signature(self, decl: ast.FunDecl, module: Optional[str],
                       is_extern: bool,
                       outer: Optional[Scope] = None) -> Signature:
        scope = Scope(parent=outer, implicit_keys=True)
        explicit_types: List[str] = []
        explicit_keys: List[str] = []
        explicit_states: List[str] = []
        for tp in decl.type_params:
            if tp.kind == "type":
                scope.types[tp.name] = CTypeVar(tp.name)
                explicit_types.append(tp.name)
            elif tp.kind == "key":
                scope.keys[tp.name] = KeyVarRef(tp.name)
                explicit_keys.append(tp.name)
            else:
                scope.bind_state_var(tp.name, None)
                explicit_states.append(tp.name)

        # Elaborate the effect clause first so its bound state variables
        # (e.g. ``level`` in ``(level <= DISPATCH_LEVEL)``) are in scope
        # for parameter and result types.
        effect = self._elab_effect(decl.effect, scope)

        params: List[SigParam] = []
        implicit_pre: List[CoreEffectItem] = []
        for p in decl.params:
            ptype = self.elab_type(p.type, scope)
            if (isinstance(p.type, ast.TrackedType) and p.type.key is not None
                    and p.type.state is not None):
                # ``tracked(K@st) T`` parameter: a pre-state requirement.
                if effect.item_for(p.type.key) is None:
                    req = self._state_req(p.type.state, scope)
                    implicit_pre.append(
                        CoreEffectItem("keep", p.type.key, req, None))
            params.append(SigParam(ptype, p.name))

        # Re-elaborate the effect now that parameter types have bound
        # their state variables (``KeReleaseSpinLock(..., KIRQL<S> old)
        # [IRQL@DISPATCH_LEVEL->S]`` — the param binds ``S``, so the
        # post-state must resolve to that variable, not to a concrete
        # state named "S").
        effect = self._elab_effect(decl.effect, scope)

        ret = self.elab_type(decl.ret, scope)
        if implicit_pre:
            effect = CoreEffect(effect.items + tuple(implicit_pre))

        return Signature(
            name=decl.name,
            params=tuple(params),
            ret=ret,
            effect=effect,
            key_vars=tuple(explicit_keys + scope.new_key_vars),
            state_vars=tuple(explicit_states +
                             [s for s in scope.new_state_vars
                              if s not in explicit_states]),
            type_vars=tuple(explicit_types),
            module=module,
            is_extern=is_extern,
        )

    def _elab_effect(self, eff: Optional[ast.EffectClause],
                     scope: Scope) -> CoreEffect:
        if eff is None:
            return CoreEffect(())
        items: List[CoreEffectItem] = []
        for item in eff.items:
            # Resolve the key name (a global key, a key variable —
            # possibly implicitly generalised by this reference — or a
            # concrete key closed over from an enclosing function).
            resolved = self.resolve_key(item.key, scope, item.span)
            if isinstance(resolved, Key) and resolved.origin != "global":
                key: object = resolved
            elif isinstance(resolved, KeyVarRef):
                key = resolved.name
            else:
                key = item.key
            pre = self._state_req(item.pre, scope) if item.pre else ANY_STATE
            post = self._state_req(item.post, scope) if item.post else None
            if item.mode in ("produce", "fresh") and post is None:
                post = ExactState(DEFAULT_STATE)
            items.append(CoreEffectItem(item.mode, key, pre, post))
        return CoreEffect(tuple(items))
