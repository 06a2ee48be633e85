"""The on-disk result store behind ``--cache DIR``.

A session with ``cache_dir`` keeps one *file record* per compiled file
in a content-addressed directory, so a later process starts from what
an earlier one learned::

    session  CheckSession._summaries / fn_results   (in-process, private)
    store    CASTier  crash-safe on-disk object store, sharded by key
                      prefix (repro.cache.cas)

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

A session fetches a file's record once, on its first check of that
file name.  When ``sha`` matches the source, the stream replays
without parsing: a *second cold process* on unchanged code runs at
warm speed.  Otherwise the summaries seed the session's summary cache,
so only the functions an edit touched are re-checked.  After a check
of a source other than the one it last loaded or wrote, the session
writes the file's record; its size is that of one file.  The key is
one last-write-wins slot per file: processes that check different
files never overwrite each other, and a writer that loses a race on
one file costs a later miss, never a wrong answer (the sha and the
fingerprints inside pin every entry).

Earlier store schemas wrote three other kinds: ``-s`` (one function's
summary), ``-u`` (one unit's stream) and ``-p`` (a session's whole
summary map).  They are never read or written again, but they stay
well-formed object names (:data:`RETIRED_KINDS`), so the GC and
``vaultc cache stats`` still count them and a directory an older
vaultc filled can be collected.

Every blob travels in a checksummed envelope (:func:`encode_blob`):
a magic line, the hex SHA-256 of the body, then the pickled body.
:func:`check_blob` verifies the envelope *without unpickling*;
corruption anywhere becomes a discard/quarantine, never a wrong
replay.

Trust model: the store carries pickles, so its directory is in your
own trust domain — your own disk, your own per-user daemon.  Hostile
writers to a store directory are out of scope.
"""

from __future__ import annotations

import pickle
import time
from typing import Dict, Iterable, List, Optional, Sequence

from ..obs import Telemetry
from ..pipeline.fingerprint import cache_checksum

#: bump when the envelope or the pickled record shapes change
#: incompatibly; old blobs then simply miss (their keys embed it too).
STORE_SCHEMA = 4

_MAGIC = b"vaultc-blob1\n"
_HEX_LEN = 64

#: keys are "<64 hex>-<kind>"; anything else is rejected before it can
#: reach a file path.  ``f`` (a file record) is the one kind written.
KEY_KINDS = ("f",)

#: kinds earlier schemas wrote; objects to the GC, never read.
RETIRED_KINDS = ("s", "u", "p")


class StoreError(Exception):
    """A blob failed to decode or a tier failed structurally."""


def valid_key(key: object, kinds: Sequence[str] = KEY_KINDS) -> bool:
    """Whether ``key`` is a well-formed store key of one of ``kinds``
    (and therefore safe to use as a CAS file name)."""
    if not isinstance(key, str) or len(key) != _HEX_LEN + 2:
        return False
    body, sep, kind = key[:_HEX_LEN], key[_HEX_LEN], key[_HEX_LEN + 1:]
    if sep != "-" or kind not in kinds:
        return False
    return all(c in "0123456789abcdef" for c in body)


def encode_blob(obj: object) -> bytes:
    """Wrap ``obj`` in the checksummed wire/disk envelope."""
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
    content (``stdlib``, ``units``, ``join_abstraction``,
    ``max_loop_iterations``) and the schema version."""
    return cache_checksum(
        f"file\x00{STORE_SCHEMA}\x00{options_salt}\x00{filename}"
        .encode("utf-8", "surrogateescape")) + "-f"


def options_salt(stdlib: bool, units: Optional[Sequence[str]],
                 join_abstraction: bool, max_loop_iterations: int) -> str:
    """The diagnostic-relevant session options, rendered stably."""
    units_part = ",".join(units) if units is not None else "<all>"
    return (f"stdlib={stdlib!r};units={units_part};"
            f"join={join_abstraction!r};loops={max_loop_iterations}")


# -- tiers --------------------------------------------------------------------

class Tier:
    """One storage backend: the :class:`~repro.cache.CASTier`, or a
    test's fake.  Tiers move opaque (already enveloped) blobs; all
    decoding, verification and accounting happens in
    :class:`SharedStore`."""

    #: short name used in metrics (``cache.shared.<name>.*``) and docs.
    name = "tier"
    #: objects the tier's own collection deleted so far.
    evictions = 0

    def get_many(self, keys: Sequence[str]) -> Dict[str, bytes]:
        raise NotImplementedError

    def put_many(self, blobs: Dict[str, bytes]) -> Optional[Exception]:
        """Store every blob.  A tier that absorbs a per-object write
        failure (and goes on with the rest) returns the first one, so
        the store can report it; ``None`` means all stored."""
        raise NotImplementedError

    def discard(self, key: str) -> None:
        """Drop one (corrupt) object; best-effort."""

    def stats_snapshot(self) -> Dict[str, object]:
        return {}


class _TierCounts:
    """Store-side traffic counters for the store's tier (plain ints,
    mirrored by the ``cache.shared.<tier>.*`` metrics)."""

    __slots__ = ("hits", "misses", "puts", "errors", "corrupt")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.errors = 0
        self.corrupt = 0

    def snapshot(self) -> Dict[str, int]:
        total = self.hits + self.misses
        return {"hits": self.hits, "misses": self.misses,
                "puts": self.puts, "errors": self.errors,
                "corrupt": self.corrupt,
                "hit_rate": (self.hits / total) if total else None}




class SharedStore:
    """One tier behind the envelope checks and the accounting.

    All failure modes degrade to a cache miss: a tier that raises, or
    returns a write error from ``put_many``, is counted
    (``cache.shared.<tier>.errors``), reported on the event bus
    (``shared_cache_error``, the first few only), and skipped; a blob
    that fails its checksum is discarded from the tier
    (``shared_cache_corrupt``) and treated as absent.
    """

    def __init__(self, tier: Tier, telemetry: Optional[Telemetry] = None):
        self.tier = tier
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.counts = _TierCounts()
        self._reported_errors = 0
        for leaf in ("hits", "misses", "puts", "evictions",
                     "errors", "corrupt"):
            self.telemetry.metrics.counter(f"cache.shared.{tier.name}.{leaf}")

    # -- raw blob plane -------------------------------------------------------

    def get_blobs(self, keys: Iterable[str]) -> Dict[str, bytes]:
        """Checked blobs for every key the tier holds."""
        wanted: List[str] = list(dict.fromkeys(keys))
        if not wanted:
            return {}
        name = self.tier.name
        started = time.perf_counter()
        try:
            got = self.tier.get_many(wanted)
        except Exception as exc:                     # noqa: BLE001
            self._tier_error("get", exc)
            got = {}
        self._observe_latency(time.perf_counter() - started)
        found: Dict[str, bytes] = {}
        for key, blob in got.items():
            try:
                check_blob(blob)
            except StoreError as exc:
                self._corrupt(key, exc)
                continue
            found[key] = blob
        metrics = self.telemetry.metrics
        self.counts.hits += len(found)
        self.counts.misses += len(wanted) - len(found)
        metrics.counter(f"cache.shared.{name}.hits").inc(len(found))
        metrics.counter(f"cache.shared.{name}.misses").inc(
            len(wanted) - len(found))
        return found

    def put_blobs(self, blobs: Dict[str, bytes]) -> int:
        """Write pre-enveloped blobs to the tier; returns the number
        accepted (invalid keys and envelopes are rejected up front)."""
        accepted: Dict[str, bytes] = {}
        for key, blob in blobs.items():
            if not valid_key(key):
                continue
            try:
                check_blob(blob)
            except StoreError:
                continue
            accepted[key] = blob
        if not accepted:
            return 0
        started = time.perf_counter()
        evictions = self.tier.evictions
        try:
            error = self.tier.put_many(accepted)
        except Exception as exc:                     # noqa: BLE001
            error = exc
        # A put past the byte budget runs the tier's GC.
        self.telemetry.metrics.counter(
            f"cache.shared.{self.tier.name}.evictions").inc(
                self.tier.evictions - evictions)
        if error is not None:
            self._tier_error("put", error)
        else:
            self._observe_latency(time.perf_counter() - started)
            self.counts.puts += len(accepted)
            self.telemetry.metrics.counter(
                f"cache.shared.{self.tier.name}.puts").inc(len(accepted))
        return len(accepted)

    # -- object plane (what sessions use) ------------------------------------

    def fetch(self, keys: Iterable[str]) -> Dict[str, object]:
        """Decoded objects for every key the store can serve."""
        out: Dict[str, object] = {}
        for key, blob in self.get_blobs(keys).items():
            try:
                out[key] = decode_blob(blob)
            except StoreError as exc:
                # Envelope verified but the body would not unpickle
                # (schema skew): drop it like any corrupt blob.
                self._corrupt(key, exc)
        return out

    def store(self, objects: Dict[str, object]) -> int:
        return self.put_blobs({key: encode_blob(obj)
                               for key, obj in objects.items()})

    def stats_snapshot(self) -> Dict[str, object]:
        """The tier's traffic and occupancy (the daemon ``stats`` op
        and ``vaultc cache stats`` surface)."""
        snap: Dict[str, object] = dict(self.counts.snapshot())
        snap["tier"] = self.tier.name
        snap.update(self.tier.stats_snapshot())
        return {"schema": STORE_SCHEMA, "tiers": [snap]}

    # -- internals -----------------------------------------------------------

    def _observe_latency(self, seconds: float) -> None:
        self.telemetry.metrics.histogram(
            f"cache.shared.{self.tier.name}.latency").observe(seconds)

    def _tier_error(self, op: str, exc: BaseException) -> None:
        name = self.tier.name
        self.counts.errors += 1
        self.telemetry.metrics.counter(f"cache.shared.{name}.errors").inc()
        # Report the first few failures, then go quiet — a full disk
        # must not flood the event log per check.
        if self._reported_errors < 3:
            self._reported_errors += 1
            self.telemetry.events.emit(
                "shared_cache_error",
                f"cache tier '{name}' failed during {op}: {exc}",
                tier=name, op=op, error=f"{type(exc).__name__}: {exc}")

    def _corrupt(self, key: str, exc: BaseException) -> None:
        name = self.tier.name
        self.counts.corrupt += 1
        self.telemetry.metrics.counter(f"cache.shared.{name}.corrupt").inc()
        try:
            self.tier.discard(key)
        except Exception:                            # noqa: BLE001
            pass
        self.telemetry.events.emit(
            "shared_cache_corrupt",
            f"cache tier '{name}' served a corrupt blob for "
            f"{key[:16]}…; discarded",
            tier=name, key=key, error=f"{type(exc).__name__}: {exc}")
