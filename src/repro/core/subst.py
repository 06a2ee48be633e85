"""Substitution of key/state/type variables — signature instantiation.

Declared signatures are implicitly polymorphic (§3.2): ``fclose`` has
type ``∀ρF.∀δ.∀ε. (ε ⊕ {ρF@δ -> FILE}, s(ρF)) -> (ε, void)``.  A call
site instantiates ρF with the argument's concrete key and δ with its
current state.  :class:`Subst` carries those three maps and applies
them over core types, state requirements, effects and signatures.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from .keys import Key, StateVar
from .types import (ANY_STATE, AnyState, AtMostState, CArg, CArray, CBase,
                    CFun, CGuarded, CNamed, CPacked, CTracked, CType,
                    CTypeVar, ExactState, KeyRef, KeyVarRef, StateArgValue,
                    StateReq, StateVarRef)


class Subst:
    """key/state/type variable assignments accumulated during matching."""

    def __init__(self, keys: Optional[Dict[str, Key]] = None,
                 states: Optional[Dict[str, Union[str, StateVar]]] = None,
                 types: Optional[Dict[str, CType]] = None):
        self.keys = {} if keys is None else keys
        self.states = {} if states is None else states
        self.types = {} if types is None else types

    # -- binding -----------------------------------------------------------

    def bind_key(self, name: str, key: Key) -> bool:
        """Bind a key variable; returns False on a conflicting binding."""
        existing = self.keys.get(name)
        if existing is not None:
            return existing is key
        self.keys[name] = key
        return True

    def bind_state(self, name: str, state: Union[str, StateVar]) -> bool:
        existing = self.states.get(name)
        if existing is not None:
            if isinstance(existing, StateVar) and isinstance(state, StateVar):
                return existing.uid == state.uid
            return existing == state
        self.states[name] = state
        return True

    def bind_type(self, name: str, ctype: CType) -> bool:
        existing = self.types.get(name)
        if existing is not None:
            return existing == ctype
        self.types[name] = ctype
        return True

    # -- application -----------------------------------------------------------

    def key(self, ref: KeyRef) -> KeyRef:
        if isinstance(ref, KeyVarRef):
            return self.keys.get(ref.name, ref)
        return ref

    def state_value(self, value: StateArgValue) -> StateArgValue:
        if isinstance(value, StateVarRef):
            resolved = self.states.get(value.name)
            return resolved if resolved is not None else value
        return value

    def state_req(self, req: StateReq) -> StateReq:
        if not self.states:
            return req
        if isinstance(req, ExactState):
            return ExactState(self.state_value(req.state))
        if isinstance(req, AtMostState):
            resolved = self.states.get(req.var)
            if resolved is not None:
                return ExactState(resolved)
            return req
        return req

    def ctype(self, ctype: CType) -> CType:
        if type(self) is Subst and \
                not (self.keys or self.states or self.types):
            # The empty substitution is the identity; skipping the
            # rebuild saves a copy and hands back the same object, so
            # later comparisons hit the identity fast paths.  (Exact
            # type check: subclasses may substitute through other
            # channels, e.g. the checker's key renamer.)
            return ctype
        if isinstance(ctype, (CBase,)):
            return ctype
        if isinstance(ctype, CTypeVar):
            return self.types.get(ctype.name, ctype)
        if isinstance(ctype, CArray):
            return CArray(self.ctype(ctype.elem))
        if isinstance(ctype, CTracked):
            return CTracked(self.key(ctype.key), self.ctype(ctype.inner))
        if isinstance(ctype, CPacked):
            return CPacked(self.ctype(ctype.inner), self.state_req(ctype.state))
        if isinstance(ctype, CGuarded):
            guards = tuple((self.key(k), self.state_req(s))
                           for k, s in ctype.guards)
            return CGuarded(guards, self.ctype(ctype.inner))
        if isinstance(ctype, CNamed):
            return CNamed(ctype.name, tuple(self.carg(a) for a in ctype.args))
        if isinstance(ctype, CFun):
            return CFun(self.signature(ctype.sig))
        return ctype

    def carg(self, arg: CArg) -> CArg:
        if arg.kind == "type":
            return CArg("type", type=self.ctype(arg.type))
        if arg.kind == "key":
            return CArg("key", key=self.key(arg.key))
        return CArg("state", state=self.state_value(arg.state))

    def effect(self, eff):
        from .effects import CoreEffect, CoreEffectItem
        items = tuple(
            CoreEffectItem(
                i.mode,
                self.keys.get(i.key, i.key) if isinstance(i.key, str)
                else i.key,
                self.state_req(i.pre),
                None if i.post is None else self.state_req(i.post))
            for i in eff.items)
        return CoreEffect(items)

    def signature(self, sig):
        from .effects import Signature, SigParam
        # Generalised variables of the inner signature are *not* touched:
        # drop shadowed names from this substitution first.
        inner = Subst(
            {k: v for k, v in self.keys.items() if k not in sig.key_vars},
            {k: v for k, v in self.states.items() if k not in sig.state_vars},
            {k: v for k, v in self.types.items() if k not in sig.type_vars},
        )
        return Signature(
            name=sig.name,
            params=tuple(SigParam(inner.ctype(p.type), p.name)
                         for p in sig.params),
            ret=inner.ctype(sig.ret),
            effect=inner.effect(sig.effect),
            key_vars=sig.key_vars,
            state_vars=sig.state_vars,
            type_vars=sig.type_vars,
            module=sig.module,
            is_extern=sig.is_extern,
        )
