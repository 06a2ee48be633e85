"""Content-addressed sharing of check results across sessions.

See :mod:`repro.cache.store` for the architecture.  The package's
public surface:

* :class:`SharedStore` — one store tier behind envelope checks and
  accounting, which a :class:`~repro.pipeline.CheckSession` plugs in
  via ``shared_store=``; a session with ``cache_dir`` keeps its
  summary pack in one too;
* :class:`CASTier` — the on-disk tier;
* :func:`open_store` — the store over one ``--shared-cache DIR``;
* key/envelope helpers for sessions and tests.
"""

from __future__ import annotations

from typing import Optional

from ..obs import Telemetry
from .cas import CASTier, DEFAULT_MAX_BYTES
from .store import (KEY_KINDS, STORE_SCHEMA, SharedStore, StoreError, Tier,
                    check_blob, decode_blob, encode_blob, options_salt,
                    pack_store_key, summary_store_key, unit_store_key,
                    valid_key)


def open_store(directory: str,
               telemetry: Optional[Telemetry] = None) -> SharedStore:
    """A :class:`SharedStore` over the CAS directory ``directory``."""
    return SharedStore(CASTier(directory), telemetry)


__all__ = [
    "CASTier",
    "DEFAULT_MAX_BYTES",
    "KEY_KINDS",
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
