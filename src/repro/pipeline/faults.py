"""Deterministic fault injection for the checker and the daemon.

The resilience layer (cache quarantine, admission control, client
retry, supervision, on-disk cache degradation) only earns its keep if
every recovery path is *testable on demand*.  This module is the chaos
harness that makes it so: a :class:`FaultPlan` is a seeded, fully
explicit schedule of failures to inject at well-defined points.  It is
wired through ``vaultc check --inject-faults SPEC`` and the
``VAULTC_FAULTS`` environment variable **for test use only** — a plan
never activates unless one of those is given.

Wire-level faults key off the **request index**: the chaos proxy
(:class:`repro.server.chaos.ChaosProxy`) numbers every daemon request
it relays, so a fault pinned to request ``R`` fires exactly once and
the client's retry of the same check travels under a fresh index.
The daemon-level resilience layer (admission control, client retry,
supervision) must recover byte-identically from every one of these —
``make daemon-chaos-smoke`` is the gate.

===================  ======================================================
``torn@R``           the reply frame is cut off halfway, then the
                     connection closes (EOF mid-frame at the client)
``garbage-frame@R``  the reply is a well-framed but undecodable payload
``oversize@R``       the reply header announces a >64MB frame, which
                     the client must reject before allocating
``disconnect@R``     the connection drops right after the request,
                     before any reply byte
``stall@R``          the peer stops responding but keeps the connection
                     open (the client's read timeout must fire)
``kill@R``           the daemon is killed mid-check (the proxy injects
                     the ``test_die`` chaos hook into the request)
===================  ======================================================

Two faults are budgets rather than pinned to a request, and one part
sets the seed:

===================  ======================================================
``flip-cache``       the session flips one byte (seeded offset) of the
                     file record immediately after writing it, so the
                     *next* load sees on-disk corruption
                     (``flip-cache@N`` arms N flips)
``enospc``           the next CAS object write (a file record's) fails
                     with ``ENOSPC``
                     (``enospc@N`` arms N writes); the store must
                     degrade to a miss, never a wrong replay
``seed=N``           seeds the offset RNG (default 0)
===================  ======================================================

``torn@0-3`` ranges and bare kinds (``torn`` = ``torn@0``) are
accepted; parts are comma-separated, e.g.::

    VAULTC_FAULTS='flip-cache,seed=7' vaultc check big.vlt --cache DIR
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

__all__ = ["FaultError", "FaultPlan", "WIRE_FAULT_KINDS"]

#: socket-level fault kinds keyed by request index, in precedence
#: order; acted out by :class:`repro.server.chaos.ChaosProxy`.
WIRE_FAULT_KINDS: Tuple[str, ...] = ("torn", "garbage-frame", "oversize",
                                     "disconnect", "stall", "kill")

#: spec name -> FaultPlan attribute for the wire kinds.
_WIRE_ATTRS = {"torn": "torn", "garbage-frame": "garbage_frame",
               "oversize": "oversize", "disconnect": "disconnect",
               "stall": "stall", "kill": "kill"}


class FaultError(ValueError):
    """A fault spec string that does not parse."""


def _parse_ids(text: str) -> Set[int]:
    """``"3"`` -> {3}; ``"0-2"`` -> {0, 1, 2}."""
    lo, dash, hi = text.partition("-")
    try:
        if dash:
            start, stop = int(lo), int(hi)
            if stop < start:
                raise ValueError
            return set(range(start, stop + 1))
        return {int(lo)}
    except ValueError:
        raise FaultError(f"bad request index {text!r} "
                         "(expected N or N-M)") from None


class FaultPlan:
    """A deterministic schedule of injected failures.

    Wire triggers are pure functions of the request index; the
    ``flip-cache`` and ``enospc`` budgets are the only mutable state.
    """

    def __init__(self,
                 cache_flips: int = 0,
                 torn: Iterable[int] = (),
                 garbage_frame: Iterable[int] = (),
                 oversize: Iterable[int] = (),
                 disconnect: Iterable[int] = (),
                 stall: Iterable[int] = (),
                 kill: Iterable[int] = (),
                 enospc: int = 0,
                 seed: int = 0):
        self.torn: FrozenSet[int] = frozenset(torn)
        self.garbage_frame: FrozenSet[int] = frozenset(garbage_frame)
        self.oversize: FrozenSet[int] = frozenset(oversize)
        self.disconnect: FrozenSet[int] = frozenset(disconnect)
        self.stall: FrozenSet[int] = frozenset(stall)
        self.kill: FrozenSet[int] = frozenset(kill)
        self.seed = seed
        self._cache_flips_left = int(cache_flips)
        self._enospc_left = int(enospc)
        self._rng = random.Random(seed)

    # -- construction --------------------------------------------------------

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse a ``--inject-faults`` / ``VAULTC_FAULTS`` spec string."""
        wire_ids: Dict[str, Set[int]] = {kind: set()
                                         for kind in WIRE_FAULT_KINDS}
        cache_flips = 0
        enospc = 0
        for raw in spec.split(","):
            part = raw.strip()
            if not part:
                continue
            if part.startswith("seed="):
                try:
                    seed = int(part[len("seed="):])
                except ValueError:
                    raise FaultError(f"bad seed in {part!r}") from None
                continue
            if part == "flip-cache":
                cache_flips += 1
                continue
            if part.startswith("flip-cache@"):
                try:
                    cache_flips += int(part[len("flip-cache@"):])
                except ValueError:
                    raise FaultError(f"bad flip count in {part!r}") from None
                continue
            if part == "enospc":
                enospc += 1
                continue
            if part.startswith("enospc@"):
                try:
                    enospc += int(part[len("enospc@"):])
                except ValueError:
                    raise FaultError(
                        f"bad enospc count in {part!r}") from None
                continue
            kind, at, where = part.partition("@")
            if kind not in WIRE_FAULT_KINDS:
                raise FaultError(
                    f"unknown fault {part!r} (kinds: "
                    f"{', '.join(WIRE_FAULT_KINDS)}, "
                    f"flip-cache, enospc, seed=N)")
            wire_ids[kind].update(_parse_ids(where) if at else {0})
        return cls(cache_flips=cache_flips,
                   torn=wire_ids["torn"],
                   garbage_frame=wire_ids["garbage-frame"],
                   oversize=wire_ids["oversize"],
                   disconnect=wire_ids["disconnect"],
                   stall=wire_ids["stall"],
                   kill=wire_ids["kill"],
                   enospc=enospc, seed=seed)

    # -- wire-side triggers --------------------------------------------------

    def wire_fault(self, request_id: int) -> Optional[str]:
        """The socket-level fault (if any) to act out for the
        ``request_id``-th relayed daemon request."""
        for kind in WIRE_FAULT_KINDS:
            if request_id in getattr(self, _WIRE_ATTRS[kind]):
                return kind
        return None

    # -- budgets -------------------------------------------------------------

    def take_cache_flip(self) -> bool:
        """Consume one ``flip-cache`` budget unit."""
        if self._cache_flips_left <= 0:
            return False
        self._cache_flips_left -= 1
        return True

    def take_enospc(self) -> bool:
        """Consume one ``enospc`` budget unit: the shared CAS fails its
        next object write with ``OSError(ENOSPC)``."""
        if self._enospc_left <= 0:
            return False
        self._enospc_left -= 1
        return True

    def flip_file_byte(self, path: str) -> int:
        """Flip one bit of one seeded byte of ``path``; returns the
        offset (deterministic for a given plan seed and call order)."""
        with open(path, "r+b") as handle:
            data = handle.read()
            if not data:
                return -1
            offset = self._rng.randrange(len(data))
            handle.seek(offset)
            handle.write(bytes([data[offset] ^ 0x40]))
        return offset

    # -- introspection -------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._cache_flips_left
                    or self.torn or self.garbage_frame or self.oversize
                    or self.disconnect or self.stall or self.kill
                    or self._enospc_left)

    def describe(self) -> str:
        parts = []
        for kind in WIRE_FAULT_KINDS:
            for rid in sorted(getattr(self, _WIRE_ATTRS[kind])):
                parts.append(f"{kind}@{rid}")
        if self._cache_flips_left:
            parts.append(f"flip-cache@{self._cache_flips_left}")
        if self._enospc_left:
            parts.append(f"enospc@{self._enospc_left}")
        parts.append(f"seed={self.seed}")
        return ",".join(parts)

    def __repr__(self) -> str:
        return f"FaultPlan({self.describe()})"
