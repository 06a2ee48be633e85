"""Core effect clauses and function signatures.

A surface effect clause ``[K@a->b, -L@c, +M@d, new N@e]`` elaborates to
a :class:`CoreEffect`, a list of per-key deltas over the held-key set
(§3.2: the internal function type ``(C, t) -> (C', t')`` splits the
clause into pre- and postcondition key sets; keys not mentioned pass
through unchanged — functions are polymorphic in the "rest" of the
set).

Each item's key is a :class:`~repro.core.types.KeyVarRef` (resolved at
call sites through parameter types) or the name of a declared global
key such as ``IRQL``.  Pre- and post-states are :class:`StateReq`
values; a bounded pre-state ``(level <= DISPATCH_LEVEL)`` binds the
state variable ``level`` for use in the post-state or in the result
type (``KIRQL<level>``, §4.4).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from typing import Union

from .keys import Key, Value
from .types import (ANY_STATE, AtMostState, CType, ExactState, KeyVarRef,
                    StateReq, StateVarRef)


class CoreEffectItem(Value):
    """One key's delta across a call.

    ``mode`` ∈ {"keep", "consume", "produce", "fresh"}:

    * keep     — held before (matching ``pre``), held after in ``post``;
    * consume  — held before (matching ``pre``), absent after;
    * produce  — absent before, held after in ``post``;
    * fresh    — a brand-new key is held after in ``post`` (and may be
      named by the result type, e.g. ``accept``'s ``new N@ready``).

    ``key`` is a variable/global name (``str``) inside a polymorphic
    signature, or a concrete :class:`Key` once the signature has been
    instantiated (nested functions close over enclosing keys, Figure 7).
    """

    _fields = ("mode", "key", "pre", "post")

    def __init__(self, mode: str, key: Union[str, Key],
                 pre: StateReq = ANY_STATE,
                 post: Optional[StateReq] = None):  # None on keep = pre
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "post", post)

    def show(self) -> str:
        if self.mode == "consume":
            return f"-{self.key}@{self.pre!r}"
        if self.mode == "produce":
            return f"+{self.key}@{self.post!r}"
        if self.mode == "fresh":
            return f"new {self.key}@{self.post!r}"
        post = f"->{self.post!r}" if self.post is not None else ""
        return f"{self.key}@{self.pre!r}{post}"


class CoreEffect(Value):
    _fields = ("items",)

    def __init__(self, items: Tuple[CoreEffectItem, ...] = ()):
        object.__setattr__(self, "items", items)

    def item_for(self, key_name) -> Optional[CoreEffectItem]:
        for item in self.items:
            if item.key == key_name or (isinstance(item.key, Key)
                                        and item.key is key_name):
                return item
        return None

    def show(self) -> str:
        return "[" + ", ".join(i.show() for i in self.items) + "]"


EMPTY_EFFECT = CoreEffect(())


class SigParam(Value):
    _fields = ("type", "name")

    def __init__(self, type: CType, name: Optional[str] = None):
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "name", name)


class Signature(Value):
    """An elaborated function signature, implicitly polymorphic (§3.2)
    in every key variable, state variable and type variable it mentions.

    ``key_vars``/``state_vars``/``type_vars`` list the generalised
    variables; ``module`` is set for module members (``Region.create``).
    ``is_extern`` marks primitives implemented by the host (the kernel
    functions of §4, the region/socket operations of §2).
    """

    _fields = ("name", "params", "ret", "effect", "key_vars", "state_vars",
               "type_vars", "module", "is_extern")

    def __init__(self, name: str, params: Tuple[SigParam, ...], ret: CType,
                 effect: CoreEffect = EMPTY_EFFECT,
                 key_vars: Tuple[str, ...] = (),
                 state_vars: Tuple[str, ...] = (),
                 type_vars: Tuple[str, ...] = (),
                 module: Optional[str] = None, is_extern: bool = False):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "ret", ret)
        object.__setattr__(self, "effect", effect)
        object.__setattr__(self, "key_vars", key_vars)
        object.__setattr__(self, "state_vars", state_vars)
        object.__setattr__(self, "type_vars", type_vars)
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "is_extern", is_extern)

    @property
    def qualified_name(self) -> str:
        return f"{self.module}.{self.name}" if self.module else self.name

    def show(self) -> str:
        params = ", ".join(
            p.type.show() + (f" {p.name}" if p.name else "")
            for p in self.params)
        eff = f" {self.effect.show()}" if self.effect.items else ""
        return f"{self.ret.show()} {self.qualified_name}({params}){eff}"
