"""The held-key set — the checker's abstract global state (§2.1).

A :class:`HeldKeys` maps each held :class:`~repro.core.keys.Key` to a
:class:`KeyInfo` carrying its current local state and, for keys minted
by tracked allocation, the payload type of the resource.  The two
linearity invariants of the paper are enforced here:

* *no duplication* — adding a key already present raises
  (``KEY_DUPLICATED``: double-free, double-acquire);
* *no loss* — keys only leave the set through explicit removal;
  leak detection compares the set against a function's declared
  postcondition at exit.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from .keys import Key, State, StateVar, state_display, states_equal
from .types import CType


class CapabilityError(Exception):
    """An internal linearity violation; the checker converts these to
    diagnostics with spans."""

    def __init__(self, kind: str, key: Key, message: str):
        self.kind = kind     # "duplicate" | "missing"
        self.key = key
        super().__init__(message)


class KeyInfo:
    """What the held-key set knows about one held key."""

    def __init__(self, state: State, payload: Optional[CType] = None):
        self.state = state
        self.payload = payload   # resource type for tracked keys

    def clone(self) -> "KeyInfo":
        return KeyInfo(self.state, self.payload)


class HeldKeys:
    """A mutable held-key set; cloned at control-flow splits.

    Clones share the entry dict copy-on-write: the checker clones at
    every split, but most branches never touch the held-key set, so
    the dict copy is deferred to the first mutation on either side.
    """

    __slots__ = ("_entries", "_shared")

    def __init__(self, entries: Optional[Dict[Key, KeyInfo]] = None,
                 _share: bool = False):
        if _share and entries is not None:
            self._entries: Dict[Key, KeyInfo] = entries
            self._shared = True
        else:
            self._entries = dict(entries or {})
            self._shared = False

    def _own(self) -> None:
        """Copy the entry dict before the first mutation of a clone."""
        if self._shared:
            self._entries = dict(self._entries)
            self._shared = False

    # -- basic queries ------------------------------------------------------

    def __contains__(self, key: Key) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[Key]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> Iterator[Tuple[Key, KeyInfo]]:
        return iter(self._entries.items())

    def get(self, key: Key) -> Optional[KeyInfo]:
        return self._entries.get(key)

    def state_of(self, key: Key) -> Optional[State]:
        info = self._entries.get(key)
        return info.state if info else None

    # -- mutation -------------------------------------------------------------

    def add(self, key: Key, state: State,
            payload: Optional[CType] = None) -> None:
        """Introduce a key; duplication is a linearity violation."""
        if key in self._entries:
            raise CapabilityError(
                "duplicate", key,
                f"key {key.display()} introduced twice into the held-key set")
        self._own()
        self._entries[key] = KeyInfo(state, payload)

    def remove(self, key: Key) -> KeyInfo:
        """Consume a key; consuming an absent key is a violation."""
        if key not in self._entries:
            raise CapabilityError(
                "missing", key,
                f"key {key.display()} is not in the held-key set")
        self._own()
        return self._entries.pop(key)

    def set_state(self, key: Key, state: State) -> None:
        info = self._entries.get(key)
        if info is None:
            raise CapabilityError(
                "missing", key,
                f"key {key.display()} is not in the held-key set")
        # Replace rather than mutate: KeyInfo entries are shared
        # between clones (see :meth:`clone`).
        self._own()
        self._entries[key] = KeyInfo(state, info.payload)

    def set_payload(self, key: Key, payload: CType) -> None:
        """Record the resource type of a held key (replace-on-write)."""
        info = self._entries.get(key)
        if info is None:
            raise CapabilityError(
                "missing", key,
                f"key {key.display()} is not in the held-key set")
        self._own()
        self._entries[key] = KeyInfo(info.state, payload)

    # -- structure ---------------------------------------------------------------

    def clone(self) -> "HeldKeys":
        # KeyInfo values are never mutated in place (all writers go
        # through :meth:`set_state` / :meth:`set_payload`, which
        # replace the entry), and the entry dict itself is shared
        # copy-on-write: both sides mark it shared and the first
        # mutation on either side copies.  Cloning is then O(1).
        self._shared = True
        return HeldKeys(self._entries, _share=True)

    def rename(self, mapping: Dict[Key, Key]) -> "HeldKeys":
        """Apply a key renaming (used by the join abstraction, §3)."""
        return HeldKeys({mapping.get(k, k): v
                         for k, v in self._entries.items()})

    def same_shape(self, other: "HeldKeys") -> bool:
        """Do both sets hold exactly the same keys in equal states?"""
        if self._entries is other._entries:
            # Copy-on-write clones that were never mutated share the
            # dict — the common case at joins where neither branch
            # touched the held-key set.
            return True
        if len(self._entries) != len(other._entries):
            return False
        for k, info in self._entries.items():
            other_info = other._entries.get(k)
            if other_info is None:
                return False
            if other_info is not info and \
                    not states_equal(info.state, other_info.state):
                return False
        return True

    def diff_summary(self, other: "HeldKeys") -> str:
        """Human-readable difference, for join/postcondition diagnostics."""
        bits = []
        for k in self._entries:
            if k not in other._entries:
                bits.append(f"{k.display()} held on one path only")
            elif not states_equal(self._entries[k].state,
                                  other._entries[k].state):
                bits.append(
                    f"{k.display()} in state "
                    f"{state_display(self._entries[k].state)} vs "
                    f"{state_display(other._entries[k].state)}")
        for k in other._entries:
            if k not in self._entries:
                bits.append(f"{k.display()} held on one path only")
        return "; ".join(bits) or "identical"

    def show(self) -> str:
        if not self._entries:
            return "{}"
        parts = sorted(
            f"{k.display()}@{state_display(v.state)}"
            for k, v in self._entries.items())
        return "{" + ", ".join(parts) + "}"

    def __repr__(self) -> str:
        return f"HeldKeys{self.show()}"
