"""The on-disk content-addressed store tier.

Layout: ``<root>/<key[:2]>/<key>`` — one file per blob, sharded by the
first two hex digits of the key so no directory grows past ~1/256 of
the store.  Every write goes to a unique temp file
(``.tmp.<pid>.<seq>``), is ``fsync``'d, then lands with an atomic
``os.replace`` — a concurrent writer or a crash mid-write can never
leave a torn object under a final name, and the envelope checksum
(:func:`repro.cache.store.check_blob`) catches anything the filesystem
does behind our back.  A failed object write is counted in
``io_errors`` and returned to the :class:`~repro.cache.SharedStore`,
which reports it.

Concurrency model: many processes share one store directory with no
locks.  Puts are last-write-wins.  A file record (``-f``) is one slot
per file name and options salt: two processes checking different files
write different objects, and the loser of a race on one file costs a
later miss.  GC may delete an object another process is about to
read, which that process observes as an ordinary miss.

Objects of the kinds earlier schemas wrote
(:data:`~repro.cache.store.RETIRED_KINDS`) are never read or written,
but the GC and :meth:`CASTier.stats_snapshot` count them, so a
directory an older vaultc filled is still collected.

Eviction: the tier tracks an approximate byte total (one full scan at
first use, then incremental accounting of its own writes).  When the
estimate passes ``max_bytes``, a collection rescans and deletes
oldest-first (by mtime — reads freshen mtime, making this LRU) down to
``GC_TARGET_RATIO`` of the budget, so collections amortize instead of
thrashing at the boundary.

Corrupt objects are moved to ``<root>/corrupt/`` with a unique suffix
(bounded retention, newest :data:`CORRUPT_KEEP` kept), so repeated
corruption keeps the newest post-mortems without growing the store.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from .store import KEY_KINDS, RETIRED_KINDS, Tier, valid_key

#: default size budget for one store directory.
DEFAULT_MAX_BYTES = 512 << 20

#: a collection shrinks the store to this fraction of ``max_bytes``.
GC_TARGET_RATIO = 0.8

#: quarantined corrupt blobs kept for post-mortems (newest first).
CORRUPT_KEEP = 8

_SHARD_LEN = 2


class CASTier(Tier):
    """A crash-safe, size-bounded CAS directory shared by any number
    of processes."""

    name = "cas"

    def __init__(self, root: str, max_bytes: int = DEFAULT_MAX_BYTES,
                 fsync: bool = True, fault_plan=None):
        self.root = root
        self.max_bytes = max_bytes
        self.fsync = fsync
        self.evictions = 0
        self.quarantines = 0
        self.io_errors = 0
        self._seq = 0
        #: chaos harness (tests only): a :class:`~repro.pipeline.faults.
        #: FaultPlan` whose ``enospc`` budget makes object writes fail
        #: as a full disk would — the store must degrade to misses.
        self.fault_plan = fault_plan
        #: approximate store size; ``None`` until the first full scan.
        self._bytes: Optional[int] = None

    # -- paths ----------------------------------------------------------------

    def path(self, key: str) -> str:
        """The file that holds (or would hold) one object."""
        return os.path.join(self.root, key[:_SHARD_LEN], key)

    # -- tier interface -------------------------------------------------------

    def get_many(self, keys: Sequence[str]) -> Dict[str, bytes]:
        out: Dict[str, bytes] = {}
        now = time.time()
        for key in keys:
            if not valid_key(key):
                continue
            path = self.path(key)
            try:
                with open(path, "rb") as handle:
                    out[key] = handle.read()
            except FileNotFoundError:
                continue
            except OSError:
                self.io_errors += 1
                continue
            try:
                # Freshen mtime so the GC's oldest-first order is LRU,
                # not FIFO.  Best-effort: a read-only store still reads.
                os.utime(path, (now, now))
            except OSError:
                pass
        return out

    def put_many(self, blobs: Dict[str, bytes]) -> Optional[OSError]:
        self._ensure_scanned()
        os.makedirs(self.root, exist_ok=True)
        written = 0
        error: Optional[OSError] = None
        for key, blob in blobs.items():
            if not valid_key(key):
                continue
            shard = os.path.join(self.root, key[:_SHARD_LEN])
            path = os.path.join(shard, key)
            self._seq += 1
            tmp = f"{path}.tmp.{os.getpid()}.{self._seq}"
            try:
                if self.fault_plan is not None \
                        and self.fault_plan.take_enospc():
                    import errno
                    raise OSError(errno.ENOSPC,
                                  "injected ENOSPC (chaos harness)")
                os.makedirs(shard, exist_ok=True)
                with open(tmp, "wb") as handle:
                    handle.write(blob)
                    if self.fsync:
                        handle.flush()
                        os.fsync(handle.fileno())
                os.replace(tmp, path)
            except OSError as exc:
                self.io_errors += 1
                if error is None:
                    error = exc
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                continue
            written += len(blob)
        if self._bytes is not None:
            self._bytes += written
            if self._bytes > self.max_bytes:
                self.gc()
        return error

    def discard(self, key: str) -> None:
        """Quarantine one (corrupt) object out of the store."""
        if not valid_key(key):
            return
        path = self.path(key)
        qdir = os.path.join(self.root, "corrupt")
        self._seq += 1
        target = os.path.join(qdir,
                              f"{key}.corrupt.{os.getpid()}.{self._seq}")
        try:
            os.makedirs(qdir, exist_ok=True)
            os.replace(path, target)
            self.quarantines += 1
        except OSError:
            # Fall back to plain deletion; the goal is that the bad
            # blob never gets served again.
            try:
                os.unlink(path)
                self.quarantines += 1
            except OSError:
                pass
            return
        _prune_quarantine(qdir, CORRUPT_KEEP)

    # -- size accounting and GC ----------------------------------------------

    def _ensure_scanned(self) -> None:
        if self._bytes is None:
            self._bytes = sum(size for _p, _m, size in self._objects())

    def _objects(self) -> List[Tuple[str, float, int]]:
        """Every stored object as ``(path, mtime, size)``."""
        out: List[Tuple[str, float, int]] = []
        try:
            shards = os.listdir(self.root)
        except OSError:
            return out
        for shard in shards:
            if len(shard) != _SHARD_LEN:
                continue                  # corrupt/, stray files
            shard_path = os.path.join(self.root, shard)
            try:
                names = os.listdir(shard_path)
            except OSError:
                continue
            for name in names:
                if not valid_key(name, KEY_KINDS + RETIRED_KINDS):
                    continue              # temp files, junk
                path = os.path.join(shard_path, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                out.append((path, st.st_mtime, st.st_size))
        return out

    def gc(self, force: bool = False,
           max_bytes: Optional[int] = None) -> Dict[str, object]:
        """Collect down to ``GC_TARGET_RATIO`` of the byte budget,
        deleting least-recently-used objects first.  ``force`` runs
        even when the estimate is under budget (the CLI's ``cache gc``)
        and also sweeps leftover temp files from crashed writers."""
        budget = self.max_bytes if max_bytes is None else max_bytes
        objects = self._objects()
        total = sum(size for _p, _m, size in objects)
        deleted = 0
        freed = 0
        if force:
            freed += self._sweep_tmp()
        if total > budget * GC_TARGET_RATIO and (force or
                                                 total > budget):
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
                self.evictions += 1
        self._bytes = total
        return {"scanned": len(objects), "deleted": deleted,
                "bytes_freed": freed, "bytes_remaining": total,
                "max_bytes": budget}

    def _sweep_tmp(self) -> int:
        """Remove temp files older than an hour (crashed writers)."""
        freed = 0
        cutoff = time.time() - 3600.0
        try:
            shards = os.listdir(self.root)
        except OSError:
            return 0
        for shard in shards:
            if len(shard) != _SHARD_LEN:
                continue
            shard_path = os.path.join(self.root, shard)
            try:
                names = os.listdir(shard_path)
            except OSError:
                continue
            for name in names:
                if ".tmp." not in name:
                    continue
                path = os.path.join(shard_path, name)
                try:
                    st = os.stat(path)
                    if st.st_mtime < cutoff:
                        os.unlink(path)
                        freed += st.st_size
                except OSError:
                    continue
        return freed

    def stats_snapshot(self) -> Dict[str, object]:
        self._ensure_scanned()
        return {"root": self.root, "bytes": self._bytes,
                "max_bytes": self.max_bytes, "evictions": self.evictions,
                "quarantines": self.quarantines,
                "io_errors": self.io_errors}


def _prune_quarantine(qdir: str, keep: int) -> None:
    """Bound the corrupt/ directory to the ``keep`` newest files."""
    try:
        names = os.listdir(qdir)
    except OSError:
        return
    stamped: List[Tuple[float, str]] = []
    for name in names:
        path = os.path.join(qdir, name)
        try:
            stamped.append((os.stat(path).st_mtime, path))
        except OSError:
            continue
    stamped.sort(reverse=True)
    for _mtime, path in stamped[keep:]:
        try:
            os.unlink(path)
        except OSError:
            pass
