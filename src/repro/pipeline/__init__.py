"""The incremental checking pipeline.

:class:`CheckSession` is the entry point: a long-lived object whose
``check(source)`` behaves exactly like :func:`repro.check_source` but
caches per-function summaries, parsed declaration chunks, and
elaborated contexts between calls, and quarantines corrupt on-disk
caches.  See ``docs/CHECKER.md`` ("Performance" and "Failure modes and
recovery") for the cache key derivation, the determinism guarantee and
the recovery paths.  :class:`FaultPlan` is the deterministic chaos
harness that makes every recovery path testable.
"""

from .chunks import Chunk, ChunkError, Split, split_chunks
from .faults import FaultError, FaultPlan
from .fingerprint import (cache_checksum, dependency_renderings,
                          function_fingerprint, scan_names)
from .session import CheckRecord, CheckSession, SessionStats

__all__ = [
    "CheckRecord",
    "CheckSession",
    "Chunk",
    "ChunkError",
    "FaultError",
    "FaultPlan",
    "SessionStats",
    "Split",
    "cache_checksum",
    "dependency_renderings",
    "function_fingerprint",
    "scan_names",
    "split_chunks",
]
