"""The on-disk result store behind ``--cache DIR``.

See :mod:`repro.cache.store` for the architecture.  The package's
public surface:

* :class:`SharedStore` — one store tier behind envelope checks and
  accounting; a :class:`~repro.pipeline.CheckSession` with
  ``cache_dir`` keeps its file records in one;
* :class:`CASTier` — the on-disk tier;
* key/envelope helpers for sessions and tests.
"""

from __future__ import annotations

from .cas import CASTier, DEFAULT_MAX_BYTES
from .store import (KEY_KINDS, RETIRED_KINDS, STORE_SCHEMA, SharedStore,
                    StoreError, Tier, check_blob, decode_blob, encode_blob,
                    options_salt, record_key, valid_key)

__all__ = [
    "CASTier",
    "DEFAULT_MAX_BYTES",
    "KEY_KINDS",
    "RETIRED_KINDS",
    "STORE_SCHEMA",
    "SharedStore",
    "StoreError",
    "Tier",
    "check_blob",
    "decode_blob",
    "encode_blob",
    "options_salt",
    "record_key",
    "valid_key",
]
