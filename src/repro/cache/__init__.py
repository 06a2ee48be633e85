"""Tiered, content-addressed sharing of check results across sessions.

See :mod:`repro.cache.store` for the architecture.  The package's
public surface:

* :class:`SharedStore` — the tier orchestrator a
  :class:`~repro.pipeline.CheckSession` plugs in via ``shared_store=``;
  a session with ``cache_dir`` keeps its summary pack in one too;
* :class:`MemoryTier` / :class:`CASTier` — the L2/L3 backends;
* :func:`open_store` — build a store from a CLI spec string (``DIR``
  for an on-disk CAS);
* key/envelope helpers for sessions and tests.
"""

from __future__ import annotations

from typing import Optional

from ..obs import Telemetry
from .cas import CASTier, DEFAULT_MAX_BYTES
from .store import (KEY_KINDS, MemoryTier, STORE_SCHEMA, SharedStore,
                    StoreError, Tier, check_blob, decode_blob, encode_blob,
                    options_salt, pack_store_key, summary_store_key,
                    unit_store_key, valid_key)


def open_store(spec: Optional[str],
               telemetry: Optional[Telemetry] = None,
               memory_tier: Optional[MemoryTier] = None,
               max_bytes: int = DEFAULT_MAX_BYTES) -> SharedStore:
    """A :class:`SharedStore` for a CLI spec string.

    ``spec`` is a directory path (CAS tier) or ``None``/empty (no
    backing tier).  ``memory_tier`` prepends a shared in-memory tier —
    the daemon passes its process-wide one here.
    """
    tiers = []
    if memory_tier is not None:
        tiers.append(memory_tier)
    if spec:
        tiers.append(CASTier(spec, max_bytes=max_bytes))
    return SharedStore(tiers, telemetry)


__all__ = [
    "CASTier",
    "DEFAULT_MAX_BYTES",
    "KEY_KINDS",
    "MemoryTier",
    "STORE_SCHEMA",
    "SharedStore",
    "StoreError",
    "Tier",
    "check_blob",
    "decode_blob",
    "encode_blob",
    "open_store",
    "options_salt",
    "pack_store_key",
    "summary_store_key",
    "unit_store_key",
    "valid_key",
]
