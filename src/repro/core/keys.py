"""Keys, key states and statesets — the compile-time tokens of §2.1.

A :class:`Key` is a unique compile-time token standing for one run-time
resource.  The checker mints fresh keys at ``new tracked`` allocations,
at existential unpacking, and as skolems for a function's key-polymorphic
parameters.  Keys compare by identity: two distinct keys always denote
two distinct resources.

Key *states* are plain names (``open``, ``raw``, ``listening`` ...).
A :class:`StateSet` declares a family of states with a partial order
(§4.4's ``stateset IRQ_LEVEL = [PASSIVE_LEVEL < ... < DIRQL]``), used by
bounded state polymorphism ``(level <= DISPATCH_LEVEL)``.

The checker also manipulates *symbolic* states (:class:`StateVar`) for
state-polymorphic functions, possibly constrained by an upper bound in
some stateset.
"""

from __future__ import annotations

import itertools
import sys
from typing import Dict, FrozenSet, Optional, Set, Tuple, Union

#: The default state used when the programmer omits key states
#: (the paper's "fixed unique state", written ⊤ in Figure 6).
DEFAULT_STATE = "$default"

#: :class:`StateVar` uids, unique in the process: ``states_equal`` and
#: substitutions tell symbolic states apart by them.
_state_uids = itertools.count(1)
#: :class:`Key` uids, which key names show (``R#3``) and messages
#: quote.  Keys compare by identity, so the numbers only need to be
#: distinct where they are read: ``number_keys`` restarts them for each
#: ``build_context`` and each function check, and a message reads the
#: same whatever the process checked before.
_key_uids = itertools.count(1)


def number_keys() -> None:
    """Number the keys minted from now on from 1 again."""
    global _key_uids
    _key_uids = itertools.count(1)


class Value:
    """Base of the checker's immutable values: :class:`StateVar`, the
    types of :mod:`.types` and the effects of :mod:`.effects`.

    A subclass names its fields in ``_fields``, in the order of its
    ``__init__`` parameters, and its ``__init__`` sets them once with
    ``object.__setattr__``: touching ``self.__dict__`` would give every
    instance a dict object of its own, about doubling its size.
    Equality and hashing compare the field values (an instance of
    another class is never equal); assigning or deleting an attribute
    raises ``AttributeError``.  Not frozen dataclasses, for start-up
    time: see docs/CHECKER.md.
    """

    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"


class Key:
    """A compile-time token for one run-time resource.

    ``name`` is a display hint (the program's name for the key, e.g.
    ``R`` or ``F``); uniqueness comes from object identity, and ``uid``
    tells keys of one name apart in messages.
    ``origin`` records how the key came to be, for diagnostics:
    ``"local"`` (new tracked allocation), ``"param"`` (skolem for a key
    variable of the enclosing function), ``"global"`` (a declared key
    such as IRQL), ``"unpack"`` (existential unpacking), ``"join"``
    (abstraction at a control-flow join).  ``span`` is the source
    location that minted the key, when known — leak reports point the
    programmer back at the allocation.
    """

    __slots__ = ("name", "uid", "origin", "span")

    def __init__(self, name: str, origin: str = "local", span=None):
        # Key *names* are shared by every key minted for the same
        # program identifier (skolems re-minted per function, join
        # keys, ...); interning them keeps per-key memory flat and
        # makes the name comparisons inside diagnostics fast.  Key
        # *identity* stays the identity of the object — two keys with
        # the same name are still two distinct resources.
        self.name = sys.intern(name)
        self.uid = next(_key_uids)
        self.origin = origin
        self.span = span

    def __repr__(self) -> str:
        return f"{self.name}#{self.uid}"

    def display(self) -> str:
        return self.name


def fresh_key(name: str, origin: str = "local", span=None) -> Key:
    return Key(name, origin, span)


class StateVar(Value):
    """A symbolic state, optionally bounded above in a stateset.

    ``KeReleaseSemaphore ... [IRQL @ (level <= DISPATCH_LEVEL)]`` checks
    its body with IRQL at ``StateVar("level", "DISPATCH_LEVEL")``.
    Unbounded state variables (``bound is None``) arise when a function
    omits a key's state entirely and is fully state-polymorphic.
    """

    _fields = ("name", "bound", "uid")

    def __init__(self, name: str, bound: Optional[str] = None,
                 uid: Optional[int] = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "uid",
                           next(_state_uids) if uid is None else uid)

    def __repr__(self) -> str:
        if self.bound:
            return f"({self.name}<= {self.bound})#{self.uid}"
        return f"{self.name}?#{self.uid}"


#: A state as tracked in the held-key set: concrete name or symbolic var.
State = Union[str, StateVar]


def state_display(state: State) -> str:
    if isinstance(state, StateVar):
        return f"{state.name}<={state.bound}" if state.bound else state.name
    if state == DEFAULT_STATE:
        return "T"
    return state


class StateSet:
    """A named set of states with a declared partial order.

    The order is given as ``<`` edges; we store the reflexive-transitive
    closure so ``leq`` is O(1).
    """

    def __init__(self, name: str, states: Tuple[str, ...],
                 order: Tuple[Tuple[str, str], ...] = ()):
        self.name = sys.intern(name)
        self.states: Tuple[str, ...] = tuple(sys.intern(s) for s in states)
        self.edges = order
        self._leq: Set[Tuple[str, str]] = self._closure(states, order)

    @staticmethod
    def _closure(states: Tuple[str, ...],
                 order: Tuple[Tuple[str, str], ...]) -> Set[Tuple[str, str]]:
        rel = {(s, s) for s in states}
        rel.update(order)
        changed = True
        while changed:
            changed = False
            for (a, b) in list(rel):
                for (c, d) in list(rel):
                    if b == c and (a, d) not in rel:
                        rel.add((a, d))
                        changed = True
        return rel

    def __contains__(self, state: str) -> bool:
        return state in self.states

    def leq(self, a: str, b: str) -> bool:
        """Is ``a <= b`` in the declared partial order?"""
        return (a, b) in self._leq

    def lub(self, a: str, b: str) -> Optional[str]:
        """Least upper bound of two states, if one exists."""
        uppers = [s for s in self.states
                  if self.leq(a, s) and self.leq(b, s)]
        for u in uppers:
            if all(self.leq(u, v) for v in uppers):
                return u
        return None

    def bottom(self) -> Optional[str]:
        """The least state, if the order has one."""
        for s in self.states:
            if all(self.leq(s, t) for t in self.states):
                return s
        return None

    def __repr__(self) -> str:
        return f"stateset {self.name}[{', '.join(self.states)}]"


class StateSpace:
    """All statesets of a program, plus membership lookup for states."""

    def __init__(self) -> None:
        self.sets: Dict[str, StateSet] = {}
        self._owner: Dict[str, str] = {}

    def add(self, sset: StateSet) -> None:
        self.sets[sset.name] = sset
        for s in sset.states:
            self._owner.setdefault(s, sset.name)

    def set_of_state(self, state: str) -> Optional[StateSet]:
        owner = self._owner.get(state)
        return self.sets.get(owner) if owner else None

    def leq(self, a: State, b: str) -> bool:
        """Does state ``a`` satisfy the bound ``<= b``?

        Concrete states use the declared partial order; a bounded state
        variable satisfies the bound if its own bound implies it.  A
        state outside any stateset only satisfies ``<=`` against itself.
        """
        if isinstance(a, StateVar):
            if a.bound is None:
                return False
            return self.leq(a.bound, b)
        if a == b:
            return True
        sset = self.set_of_state(a)
        return bool(sset and b in sset and sset.leq(a, b))

    def states_leq(self, bound: str) -> FrozenSet[str]:
        sset = self.set_of_state(bound)
        if sset is None:
            return frozenset({bound})
        return frozenset(s for s in sset.states if sset.leq(s, bound))


def states_equal(a: State, b: State) -> bool:
    """Exact equality of two states (symbolic vars by identity)."""
    if a is b:
        # Interned state names (``sys.intern``) and shared StateVar
        # objects make this the common case on the join/exit fast paths.
        return True
    if isinstance(a, StateVar) and isinstance(b, StateVar):
        return a.uid == b.uid
    if isinstance(a, StateVar) or isinstance(b, StateVar):
        return False
    return a == b
