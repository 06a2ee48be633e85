"""The internal type language (paper Figure 6).

The correspondence with the paper's grammar:

=====================  =====================================================
Paper (Figure 6)       Here
=====================  =====================================================
singleton type s(r)    :class:`CTracked` — a handle whose key is ``key``;
                       the held-key set carries the payload mapping
                       ``r@st -> T``
guarded type C |> t    :class:`CGuarded` — guards as (key, state-req) pairs
named / base types     :class:`CBase`, :class:`CNamed`
function type          :class:`CFun` wrapping a :class:`~repro.core.effects.Signature`
variant type           :class:`CNamed` resolving to a variant declaration
existential ∃[N|C].t   :class:`CPacked` — an anonymous tracked value; the
                       key and its capability travel with the value and
                       are re-opened with a fresh name on unpacking
universal ∀[N].t       implicit — every signature is polymorphic in the
                       keys/states/types it mentions (§3.2)
key set C              :class:`~repro.core.capability.HeldKeys`
=====================  =====================================================

Key *references* inside types are either concrete :class:`Key` objects
(during flow checking) or named variables (:class:`KeyVarRef`) inside
declared signatures awaiting instantiation at a call site.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from .keys import DEFAULT_STATE, Key, State, StateVar, Value, state_display

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .effects import Signature


class KeyVarRef(Value):
    """A key variable appearing in a declared signature (e.g. ``F``)."""

    _fields = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def __repr__(self) -> str:
        return f"'{self.name}"


KeyRef = Union[Key, KeyVarRef]


class StateVarRef(Value):
    """A state variable appearing in a declared signature (e.g. ``level``)."""

    _fields = ("name", "bound")

    def __init__(self, name: str, bound: Optional[str] = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "bound", bound)

    def __repr__(self) -> str:
        return f"~{self.name}" + (f"<={self.bound}" if self.bound else "")


StateArgValue = Union[str, StateVar, StateVarRef]


class TypeVarRef(Value):
    """A type variable appearing in a declared signature (e.g. ``T``)."""

    _fields = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def __repr__(self) -> str:
        return f"%{self.name}"


# ---------------------------------------------------------------------------
# State requirements on guards / effect preconditions
# ---------------------------------------------------------------------------

class AnyState(Value):
    """No constraint — any key state satisfies the guard."""

    def __repr__(self) -> str:
        return "*"


class ExactState(Value):
    """Key must be in exactly this state (or this symbolic state)."""

    _fields = ("state",)

    def __init__(self, state: StateArgValue):
        object.__setattr__(self, "state", state)

    def __repr__(self) -> str:
        return str(self.state)


class AtMostState(Value):
    """Bounded constraint ``(var <= bound)`` — §4.4.

    ``var`` names the state variable the pre-state binds; ``bound`` is
    a concrete state in some declared stateset.
    """

    _fields = ("var", "bound")

    def __init__(self, var: str, bound: str):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "bound", bound)

    def __repr__(self) -> str:
        return f"({self.var}<={self.bound})"


StateReq = Union[AnyState, ExactState, AtMostState]

ANY_STATE = AnyState()


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

class CType(Value):
    """Base class of internal checker types."""

    def show(self) -> str:
        raise NotImplementedError


class CBase(CType):
    """A base type: void, int, bool, byte, float, string or char."""

    _fields = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def show(self) -> str:
        return self.name


VOID = CBase("void")
INT = CBase("int")
BOOL = CBase("bool")
BYTE = CBase("byte")
FLOAT = CBase("float")
STRING = CBase("string")
CHAR = CBase("char")
NULL_T = CBase("null")


class CArray(CType):
    _fields = ("elem",)

    def __init__(self, elem: CType):
        object.__setattr__(self, "elem", elem)

    def show(self) -> str:
        return f"{self.elem.show()}[]"


class CArg(Value):
    """One ``<...>`` argument of a named type: type, key or state."""

    _fields = ("kind", "type", "key", "state")

    def __init__(self, kind: str,       # "type" | "key" | "state"
                 type: Optional[CType] = None,
                 key: Optional[KeyRef] = None,
                 state: Optional[StateArgValue] = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "state", state)

    def show(self) -> str:
        if self.kind == "type":
            return self.type.show() if self.type else "?"
        if self.kind == "key":
            return repr(self.key)
        return state_display(self.state) if not isinstance(
            self.state, StateVarRef) else repr(self.state)


class CNamed(CType):
    """A nominal type instantiated with arguments.

    Resolves (through the program context) to a struct, variant or
    abstract type.  ``KEVENT<K>``, ``opt_key<F>``, ``status<S>``,
    ``KIRQL<level>`` and plain ``FILE`` all land here.
    """

    _fields = ("name", "args")

    def __init__(self, name: str, args: Tuple[CArg, ...] = ()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", args)

    def show(self) -> str:
        if self.args:
            return f"{self.name}<{', '.join(a.show() for a in self.args)}>"
        return self.name


class CTypeVar(CType):
    """An occurrence of a declared type variable inside a signature."""

    _fields = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def show(self) -> str:
        return f"%{self.name}"


class CTracked(CType):
    """The singleton type s(key): a handle for the resource named by ``key``.

    ``inner`` is the payload type the held-key set associates with the
    key (``{key@st -> inner}``); it is duplicated here for convenience.
    In declared signatures ``key`` is a :class:`KeyVarRef`.
    """

    _fields = ("key", "inner")

    def __init__(self, key: KeyRef, inner: CType):
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "inner", inner)

    def show(self) -> str:
        return f"tracked({self.key!r}) {self.inner.show()}"


class CPacked(CType):
    """An anonymous tracked type ∃[k | {k@state -> inner}]. s(k).

    Values of this type carry their key with them (§3.3); binding one
    unpacks it with a fresh key name.  ``state`` is the packed key's
    state, defaulting to the unique default state.
    """

    _fields = ("inner", "state")

    def __init__(self, inner: CType, state: StateReq = ANY_STATE):
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "state", state)

    def show(self) -> str:
        return f"tracked {self.inner.show()}"


class CGuarded(CType):
    """A guarded type ``C |> inner`` — access needs every guard satisfied.

    Each guard is a (key, state requirement) pair.  ``R:point`` is
    ``CGuarded(((R, ANY),), point)``; ``paged<T>`` is
    ``CGuarded(((IRQL, AtMostState("level","APC_LEVEL")),), T)``.
    """

    _fields = ("guards", "inner")

    def __init__(self, guards: Tuple[Tuple[KeyRef, StateReq], ...],
                 inner: CType):
        object.__setattr__(self, "guards", guards)
        object.__setattr__(self, "inner", inner)

    def show(self) -> str:
        gs = ", ".join(f"{k!r}@{s!r}" for k, s in self.guards)
        return f"[{gs}]:{self.inner.show()}"


class CFun(CType):
    """A function value (completion routines, nested functions)."""

    _fields = ("sig",)

    def __init__(self, sig: "Signature"):
        object.__setattr__(self, "sig", sig)

    def show(self) -> str:
        return f"fn {self.sig.name}"


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

NUMERIC = {INT, BYTE, FLOAT}


def strip_guards(ctype: CType) -> CType:
    """The type beneath any guard wrappers."""
    while isinstance(ctype, CGuarded):
        ctype = ctype.inner
    return ctype


def is_void(ctype: CType) -> bool:
    return isinstance(ctype, CBase) and ctype.name == "void"


def default_state_req() -> StateReq:
    return ExactState(DEFAULT_STATE)
