"""The on-disk result store behind ``--cache DIR``.

See :mod:`repro.cache.store` for the architecture.  The package's
public surface:

* :class:`RecordStore` — a crash-safe directory of file records; a
  :class:`~repro.pipeline.CheckSession` with ``cache_dir`` loads and
  saves its records through one;
* key/envelope helpers for sessions and tests.
"""

from __future__ import annotations

from .store import (DEFAULT_MAX_BYTES, KEY_KINDS, RETIRED_KINDS,
                    STORE_SCHEMA, RecordStore, StoreError, check_blob,
                    decode_blob, encode_blob, options_salt, record_key,
                    valid_key)

__all__ = [
    "DEFAULT_MAX_BYTES",
    "KEY_KINDS",
    "RETIRED_KINDS",
    "STORE_SCHEMA",
    "RecordStore",
    "StoreError",
    "check_blob",
    "decode_blob",
    "encode_blob",
    "options_salt",
    "record_key",
    "valid_key",
]
