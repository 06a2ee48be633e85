"""The on-disk result store behind ``--cache DIR``.

A session with ``cache_dir`` keeps one *file record* per compiled file
in a :class:`RecordStore`, a content-addressed directory, so a later
process starts from what an earlier one learned::

    session  each file's summary map, and its functions' held
             results in the file's context entry (in-process, private)
    store    RecordStore  crash-safe on-disk record store, sharded by
                          key prefix

A record is one object, ``<digest>-f``, keyed by :func:`record_key`
over the diagnostic-relevant session options and the file name.  It
holds:

* ``sha`` — the SHA-256 of the source it was written for;
* ``diags`` — that unit's complete diagnostic stream (stdlib, context
  and per-function, already merged in serial order);
* ``functions`` — the unit's function count;
* ``summaries`` — the position-free summaries of the unit's functions
  (lines from each function's first line, no file name), by function
  fingerprint.

A session loads a file's record once, on its first check of that
file name.  When ``sha`` matches the source, the stream replays
without parsing: a *second cold process* on unchanged code runs at
warm speed.  Otherwise the summaries become the file's summary map,
so only the functions an edit touched are re-checked.  After a check
of a source other than the one it last loaded or wrote, the session
saves the file's record; its size is that of one file.  The key is
one last-write-wins slot per file: processes that check different
files never overwrite each other, and a writer that loses a race on
one file costs a later miss, never a wrong answer (the sha and the
fingerprints inside pin every entry).

Layout: ``<root>/<key[:2]>/<key>`` — one file per record, sharded by
the first two hex digits of the key so no directory grows past ~1/256
of the store.  Every save goes to a unique temp file
(``.tmp.<pid>.<seq>``), is ``fsync``'d, then lands with an atomic
``os.replace``, so a concurrent writer or a crash mid-write can never
leave a torn record under a final name.  Many processes share one
directory with no locks; the GC may delete a record another process
is about to read, which that process observes as an ordinary miss.

Every record travels in a checksummed envelope (:func:`encode_blob`):
a magic line, the hex SHA-256 of the body, then the pickled body.
:func:`check_blob` verifies the envelope *without unpickling*.  A
record that fails its checksum or will not unpickle is moved to
``<root>/corrupt/`` under a unique name (the newest
:data:`CORRUPT_KEEP` are kept for post-mortems) and reads as a miss,
never a wrong replay.

Eviction: the store tracks an approximate byte total (one full scan at
the first save, then its own writes).  When the estimate passes
``max_bytes``, a collection rescans and deletes oldest-first (by mtime
— loads freshen it, making this LRU) down to ``GC_TARGET_RATIO`` of
the budget, so collections amortize instead of thrashing at the
boundary.

Earlier store schemas wrote three other kinds: ``-s`` (one function's
summary), ``-u`` (one unit's stream) and ``-p`` (a session's whole
summary map).  They are never read or written again, but they stay
well-formed object names (:data:`RETIRED_KINDS`), so the GC and
``vaultc cache stats`` still count them and a directory an older
vaultc filled can be collected.

Accounting: the counters ``hits``, ``misses``, ``puts``, ``errors``,
``corrupt`` and ``evictions`` are plain attributes, mirrored by the
``cache.shared.cas.*`` metrics.  Every failure degrades to a miss: a
failed read or write is counted in ``errors`` and the first few are
reported as ``shared_cache_error`` events; a corrupt record is
counted in ``corrupt`` and reported as ``shared_cache_corrupt``.

Trust model: the store carries pickles, so its directory is in your
own trust domain — your own disk, your own per-user daemon.  Hostile
writers to a store directory are out of scope.
"""

from __future__ import annotations

import itertools
import os
import pickle
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.checker import MAX_LOOP_ITERATIONS
from ..obs import Telemetry
from ..pipeline.fingerprint import cache_checksum

#: bump when the envelope or the pickled record shapes change
#: incompatibly, or when a record's diagnostics would read differently
#: (5: key numbers restart per function check); old records then
#: simply miss (their keys embed it too).
STORE_SCHEMA = 5

#: default size budget for one store directory.
DEFAULT_MAX_BYTES = 512 << 20

#: a collection shrinks the store to this fraction of ``max_bytes``.
GC_TARGET_RATIO = 0.8

#: quarantined corrupt records kept for post-mortems (newest first).
CORRUPT_KEEP = 8

#: temp and quarantine name suffixes, unique across the process's
#: stores and threads.
_SEQ = itertools.count(1)

_MAGIC = b"vaultc-blob1\n"
_HEX_LEN = 64
_SHARD_LEN = 2

#: keys are "<64 hex>-<kind>"; anything else is rejected before it can
#: reach a file path.  ``f`` (a file record) is the one kind written.
KEY_KINDS = ("f",)

#: kinds earlier schemas wrote; objects to the GC, never read.
RETIRED_KINDS = ("s", "u", "p")

#: the store's counters, each mirrored by ``cache.shared.cas.<name>``.
_COUNTERS = ("hits", "misses", "puts", "errors", "corrupt", "evictions")


class StoreError(Exception):
    """A blob failed its envelope check or would not unpickle."""


def valid_key(key: object, kinds: Sequence[str] = KEY_KINDS) -> bool:
    """Whether ``key`` is a well-formed store key of one of ``kinds``
    (and therefore safe to use as a file name)."""
    if not isinstance(key, str) or len(key) != _HEX_LEN + 2:
        return False
    body, sep, kind = key[:_HEX_LEN], key[_HEX_LEN], key[_HEX_LEN + 1:]
    if sep != "-" or kind not in kinds:
        return False
    return all(c in "0123456789abcdef" for c in body)


def encode_blob(obj: object) -> bytes:
    """Wrap ``obj`` in the checksummed on-disk envelope."""
    body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return _MAGIC + cache_checksum(body).encode("ascii") + b"\n" + body


def check_blob(blob: bytes) -> bytes:
    """Verify the envelope and return the body bytes **without
    unpickling** (integrity check safe on untrusted bytes)."""
    if not blob.startswith(_MAGIC):
        raise StoreError("bad blob magic")
    start = len(_MAGIC)
    digest = blob[start:start + _HEX_LEN]
    if blob[start + _HEX_LEN:start + _HEX_LEN + 1] != b"\n":
        raise StoreError("malformed blob envelope")
    body = blob[start + _HEX_LEN + 1:]
    if cache_checksum(body).encode("ascii") != digest:
        raise StoreError("blob checksum mismatch (torn write or bit rot)")
    return body


def decode_blob(blob: bytes) -> object:
    """Verify and unpickle one blob (:class:`StoreError` on anything
    short of a clean round trip)."""
    body = check_blob(blob)
    try:
        return pickle.loads(body)
    except Exception as exc:                         # noqa: BLE001
        raise StoreError(f"blob body failed to unpickle: "
                         f"{type(exc).__name__}: {exc}") from None


# -- keys ---------------------------------------------------------------------

def record_key(options_salt: str, filename: str) -> str:
    """Store key for one file's record: a slot per file name, salted
    with the session options that change diagnostics without changing
    content (``stdlib``, ``units``, and the checker's join and loop
    settings) and the schema version."""
    return cache_checksum(
        f"file\x00{STORE_SCHEMA}\x00{options_salt}\x00{filename}"
        .encode("utf-8", "surrogateescape")) + "-f"


def options_salt(stdlib: bool, units: Optional[Sequence[str]]) -> str:
    """The diagnostic-relevant session options, rendered stably.  A
    session always checks with the join abstraction and
    :data:`~repro.core.checker.MAX_LOOP_ITERATIONS`; the salt names
    both, so a change of the bound re-keys every record."""
    units_part = ",".join(units) if units is not None else "<all>"
    return (f"stdlib={stdlib!r};units={units_part};"
            f"join=True;loops={MAX_LOOP_ITERATIONS}")


# -- the store ----------------------------------------------------------------

class RecordStore:
    """A crash-safe, size-bounded directory of file records shared by
    any number of processes."""

    def __init__(self, root: str, telemetry: Optional[Telemetry] = None,
                 max_bytes: int = DEFAULT_MAX_BYTES):
        self.root = root
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.max_bytes = max_bytes
        self.hits = self.misses = self.puts = 0
        self.errors = self.corrupt = self.evictions = 0
        self._reported_errors = 0
        #: approximate store size; ``None`` until the first full scan.
        self._bytes: Optional[int] = None
        for name in _COUNTERS:
            self.telemetry.metrics.counter(f"cache.shared.cas.{name}")

    def path(self, key: str) -> str:
        """The file that holds (or would hold) one record."""
        return os.path.join(self.root, key[:_SHARD_LEN], key)

    def load(self, key: str) -> object:
        """The record under ``key``, or ``None``: a missing record, a
        failed read and a corrupt record (quarantined) are all
        misses."""
        record = None
        started = time.perf_counter()
        if valid_key(key):
            path = self.path(key)
            try:
                with open(path, "rb") as handle:
                    record = decode_blob(handle.read())
            except FileNotFoundError:
                pass
            except OSError as exc:
                self._error("get", exc)
            except StoreError as exc:
                self._quarantine(key, exc)
            else:
                try:
                    # Freshen mtime so the GC's oldest-first order is
                    # LRU.  Best-effort: a read-only store still reads.
                    os.utime(path)
                except OSError:
                    pass
        self._observe_latency(time.perf_counter() - started)
        self._count("misses" if record is None else "hits")
        return record

    def save(self, key: str, record: object) -> bool:
        """Write ``record`` under ``key`` through a unique temp file,
        ``fsync`` and an atomic rename, then collect if the store is
        over budget.  ``False`` when the key is invalid or the write
        failed (counted and reported; the record is then a miss)."""
        if not valid_key(key):
            return False
        blob = encode_blob(record)
        started = time.perf_counter()
        self._ensure_scanned()
        path = self.path(key)
        tmp = f"{path}.tmp.{os.getpid()}.{next(_SEQ)}"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            self._error("put", exc)
            return False
        self._observe_latency(time.perf_counter() - started)
        self._count("puts")
        self._bytes += len(blob)
        if self._bytes > self.max_bytes:
            self.gc()
        return True

    # -- size accounting and GC ----------------------------------------------

    def _ensure_scanned(self) -> None:
        if self._bytes is None:
            self._bytes = sum(size for _p, _m, size in self._objects())

    def _shard_files(self):
        """Every ``(name, path)`` in the shard directories."""
        try:
            shards = os.listdir(self.root)
        except OSError:
            return
        for shard in shards:
            if len(shard) != _SHARD_LEN:
                continue                  # corrupt/, stray files
            shard_path = os.path.join(self.root, shard)
            try:
                names = os.listdir(shard_path)
            except OSError:
                continue
            for name in names:
                yield name, os.path.join(shard_path, name)

    def _objects(self) -> List[Tuple[str, float, int]]:
        """Every stored object, retired kinds too, as
        ``(path, mtime, size)``."""
        out: List[Tuple[str, float, int]] = []
        for name, path in self._shard_files():
            if not valid_key(name, KEY_KINDS + RETIRED_KINDS):
                continue                  # temp files, junk
            try:
                st = os.stat(path)
            except OSError:
                continue
            out.append((path, st.st_mtime, st.st_size))
        return out

    def gc(self, force: bool = False) -> Dict[str, object]:
        """Collect down to ``GC_TARGET_RATIO`` of ``max_bytes``,
        deleting least-recently-used objects first.  ``force`` runs
        even when the store is under budget (the CLI's ``cache gc``)
        and also sweeps temp files older than an hour (crashed
        writers)."""
        objects = self._objects()
        total = sum(size for _p, _m, size in objects)
        deleted = freed = 0
        if force:
            cutoff = time.time() - 3600.0
            for name, path in self._shard_files():
                if ".tmp." not in name:
                    continue
                try:
                    st = os.stat(path)
                    if st.st_mtime < cutoff:
                        os.unlink(path)
                        freed += st.st_size
                except OSError:
                    continue
        budget = self.max_bytes
        if total > budget * GC_TARGET_RATIO and (force or total > budget):
            target = int(budget * GC_TARGET_RATIO)
            for path, _mtime, size in sorted(objects, key=lambda o: o[1]):
                if total <= target:
                    break
                try:
                    os.unlink(path)
                except OSError:
                    continue
                total -= size
                freed += size
                deleted += 1
        self._count("evictions", deleted)
        self._bytes = total
        return {"scanned": len(objects), "deleted": deleted,
                "bytes_freed": freed, "bytes_remaining": total,
                "max_bytes": budget}

    def stats_snapshot(self) -> Dict[str, object]:
        """Traffic and occupancy in one flat row (the daemon ``stats``
        op and ``vaultc cache stats``)."""
        self._ensure_scanned()
        snap: Dict[str, object] = {name: getattr(self, name)
                                   for name in _COUNTERS}
        total = self.hits + self.misses
        snap.update(schema=STORE_SCHEMA, root=self.root, bytes=self._bytes,
                    max_bytes=self.max_bytes,
                    hit_rate=(self.hits / total) if total else None)
        return snap

    # -- internals -----------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        setattr(self, name, getattr(self, name) + n)
        self.telemetry.metrics.counter(f"cache.shared.cas.{name}").inc(n)

    def _observe_latency(self, seconds: float) -> None:
        self.telemetry.metrics.histogram(
            "cache.shared.cas.latency").observe(seconds)

    def _error(self, op: str, exc: BaseException) -> None:
        self._count("errors")
        # Report the first few failures, then go quiet — a full disk
        # must not flood the event log per check.
        if self._reported_errors < 3:
            self._reported_errors += 1
            self.telemetry.events.emit(
                "shared_cache_error",
                f"cache tier 'cas' failed during {op}: {exc}",
                tier="cas", op=op, error=f"{type(exc).__name__}: {exc}")

    def _quarantine(self, key: str, exc: BaseException) -> None:
        """Move a corrupt record to ``corrupt/`` under a unique name so
        it is never served again, keeping the newest
        :data:`CORRUPT_KEEP` quarantined files."""
        self._count("corrupt")
        path = self.path(key)
        qdir = os.path.join(self.root, "corrupt")
        try:
            os.makedirs(qdir, exist_ok=True)
            os.replace(path, os.path.join(
                qdir, f"{key}.corrupt.{os.getpid()}.{next(_SEQ)}"))
        except OSError:
            # Fall back to plain deletion; the goal is that the bad
            # record never gets served again.
            try:
                os.unlink(path)
            except OSError:
                pass
        else:
            stamped: List[Tuple[float, str]] = []
            for name in os.listdir(qdir):
                try:
                    stamped.append((os.stat(os.path.join(qdir, name))
                                    .st_mtime, os.path.join(qdir, name)))
                except OSError:
                    continue
            for _mtime, old in sorted(stamped, reverse=True)[CORRUPT_KEEP:]:
                try:
                    os.unlink(old)
                except OSError:
                    pass
        self.telemetry.events.emit(
            "shared_cache_corrupt",
            f"cache tier 'cas' served a corrupt blob for "
            f"{key[:16]}…; discarded",
            tier="cas", key=key, error=f"{type(exc).__name__}: {exc}")
