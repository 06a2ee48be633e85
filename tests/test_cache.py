"""The on-disk store: envelopes, keys, the record store's contract.

Covers the ``repro.cache`` package bottom-up — blob envelope and key
discipline, the :class:`RecordStore` contract (crash safety, GC,
quarantine, failure containment and accounting) — and
the integration edges: the daemon no longer serving cache blobs, and
sessions sharing one directory of file records.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro import check_source
from repro.analysis import synthesize_program
from repro.cache import (KEY_KINDS, RETIRED_KINDS, STORE_SCHEMA, RecordStore,
                         StoreError, check_blob, decode_blob, encode_blob,
                         options_salt, record_key, valid_key)
from repro.cache.store import CORRUPT_KEEP
from repro.core.checker import MAX_LOOP_ITERATIONS
from repro.pipeline import CheckSession, FaultPlan


def key_of(n: int, kind: str = "f") -> str:
    """A syntactically valid store key derived from ``n``."""
    return f"{n:064x}"[-64:] + "-" + kind


# ---------------------------------------------------------------------------
# Envelope and keys
# ---------------------------------------------------------------------------

class TestEnvelope:
    def test_round_trip(self):
        payload = {"diags": ("a", "b"), "functions": 3}
        assert decode_blob(encode_blob(payload)) == payload

    def test_check_blob_returns_body_without_unpickling(self):
        blob = encode_blob([1, 2, 3])
        body = check_blob(blob)
        assert isinstance(body, bytes)
        assert blob.endswith(body)

    def test_bad_magic_rejected(self):
        with pytest.raises(StoreError):
            check_blob(b"not-a-vaultc-blob\n" + b"x" * 100)

    def test_truncated_envelope_rejected(self):
        blob = encode_blob("hello")
        with pytest.raises(StoreError):
            check_blob(blob[:20])

    def test_flipped_bit_rejected(self):
        blob = bytearray(encode_blob({"v": 1}))
        blob[-1] ^= 0x40
        with pytest.raises(StoreError):
            check_blob(bytes(blob))

    def test_checksum_over_wrong_body_rejected(self):
        a, b = encode_blob("aaaa"), encode_blob("bbbbbb")
        # splice a's header onto b's body
        header_len = len(a) - len(check_blob(a))
        with pytest.raises(StoreError):
            check_blob(a[:header_len] + check_blob(b))


class TestKeys:
    def test_valid_keys(self):
        assert valid_key("0" * 64 + "-f")
        assert valid_key("a1b2" * 16 + "-f")
        # Retired kinds are object names to the GC, never keys to read.
        for kind in RETIRED_KINDS:
            assert not valid_key("0" * 64 + "-" + kind)
            assert valid_key("0" * 64 + "-" + kind, KEY_KINDS + RETIRED_KINDS)

    @pytest.mark.parametrize("bad", [
        None, 42, b"0" * 64 + b"-s",
        "0" * 64,                      # no kind
        "0" * 64 + "-x",               # unknown kind
        "0" * 63 + "-s",               # short digest
        "0" * 64 + "_s",               # wrong separator
        "A" * 64 + "-s",               # uppercase hex
        "../" + "0" * 61 + "-s",       # traversal attempt
        "0" * 30 + "/" + "0" * 33 + "-s",
    ])
    def test_invalid_keys(self, bad):
        assert not valid_key(bad)

    def test_record_key_depends_on_filename_and_salt(self):
        salt = options_salt(True, ["region"])
        k1 = record_key(salt, "f.vlt")
        assert valid_key(k1) and k1.endswith("-f")
        assert k1 == record_key(salt, "f.vlt")
        assert k1 != record_key(salt, "g.vlt")
        assert k1 != record_key(options_salt(False, ["region"]), "f.vlt")
        assert k1 != record_key(options_salt(True, ["region", "file"]),
                                "f.vlt")
        assert k1 != record_key(options_salt(True, None), "f.vlt")
        # the checker's settings are part of the salt, so a change of
        # the loop bound re-keys every record
        assert salt.endswith(f";join=True;loops={MAX_LOOP_ITERATIONS}")


# ---------------------------------------------------------------------------
# RecordStore: the on-disk contract
# ---------------------------------------------------------------------------

class TestCASTier:
    """:class:`RecordStore`'s on-disk contract: layout, key discipline,
    quarantine, GC and crash safety.  (The class keeps the name of the
    tier it once tested, so its tests keep their IDs.)"""

    def test_round_trip_survives_reopen(self, tmp_path):
        root = str(tmp_path / "cas")
        assert RecordStore(root).save(key_of(7), "seven")
        reader = RecordStore(root)            # fresh instance, same dir
        assert reader.load(key_of(7)) == "seven"
        assert (reader.hits, reader.misses) == (1, 0)

    def test_sharded_layout_and_no_stray_tmp(self, tmp_path):
        root = str(tmp_path / "cas")
        store = RecordStore(root)
        key = key_of(0xabc)
        store.save(key, 1)
        assert store.path(key) == os.path.join(root, key[:2], key)
        assert os.path.exists(store.path(key))
        shard = os.listdir(os.path.join(root, key[:2]))
        assert shard == [key], "no temp files may survive a clean save"

    def test_invalid_keys_never_touch_disk(self, tmp_path):
        root = str(tmp_path / "cas")
        store = RecordStore(root)
        for bad in ("../../etc/passwd-s", "zz", "not-a-key"):
            assert store.save(bad, "evil") is False
            assert store.load(bad) is None
        assert store.puts == 0 and store.misses == 3
        assert not os.path.exists(root)
        assert not os.path.exists(os.path.join(str(tmp_path), "etc"))

    def test_discard_quarantines_with_unique_names(self, tmp_path):
        root = str(tmp_path / "cas")
        store = RecordStore(root)
        key = key_of(5)
        for _ in range(3):
            store.save(key, "x")
            with open(store.path(key), "ab") as handle:
                handle.write(b"!")            # the checksum now fails
            assert store.load(key) is None
        names = os.listdir(os.path.join(root, "corrupt"))
        assert len(names) == 3, "each quarantine must keep its own copy"
        assert all(name.startswith(key + ".corrupt.") for name in names)
        assert store.corrupt == 3 and store.hits == 0
        assert store.load(key) is None

    def test_quarantine_retention_is_bounded(self, tmp_path):
        root = str(tmp_path / "cas")
        store = RecordStore(root)
        key = key_of(6)
        for _ in range(CORRUPT_KEEP + 5):
            store.save(key, "x")
            with open(store.path(key), "ab") as handle:
                handle.write(b"!")
            assert store.load(key) is None
        names = os.listdir(os.path.join(root, "corrupt"))
        assert len(names) == CORRUPT_KEEP

    def test_gc_bounds_the_store(self, tmp_path):
        root = str(tmp_path / "cas")
        store = RecordStore(root)
        record = "z" * 1000
        for n in range(40):
            store.save(key_of(n), record)
        size = len(encode_blob(record))
        report = RecordStore(root, max_bytes=size * 10).gc(force=True)
        assert report["scanned"] == 40
        assert report["deleted"] > 0
        assert report["bytes_remaining"] <= size * 10
        remaining = RecordStore(root)._objects()
        assert len(remaining) == 40 - report["deleted"]

    def test_gc_deletes_oldest_first(self, tmp_path):
        root = str(tmp_path / "cas")
        record = "z" * 100
        store = RecordStore(
            root, max_bytes=int(len(encode_blob(record)) / 0.7))
        store.save(key_of(1), record)
        old = store.path(key_of(1))
        os.utime(old, (time.time() - 9999, time.time() - 9999))
        store.save(key_of(2), record)
        store.gc(force=True)
        assert not os.path.exists(old)
        assert store.load(key_of(2)) == record

    def test_auto_gc_on_budget_overflow(self, tmp_path):
        root = str(tmp_path / "cas")
        record = "z" * 1000
        store = RecordStore(root, max_bytes=len(encode_blob(record)) * 5)
        for n in range(20):
            store.save(key_of(n), record)
        assert store.evictions > 0
        assert len(store._objects()) < 20

    def test_gc_force_sweeps_stale_tmp_files(self, tmp_path):
        root = str(tmp_path / "cas")
        store = RecordStore(root)
        store.save(key_of(1), "x")
        stale = store.path(key_of(1)) + ".tmp.999.1"
        with open(stale, "wb") as handle:
            handle.write(b"torn write")
        os.utime(stale, (time.time() - 7200, time.time() - 7200))
        store.gc(force=True)
        assert not os.path.exists(stale)
        assert store.load(key_of(1)) == "x", "real records must survive"

    def test_concurrent_writers_same_keys(self, tmp_path):
        root = str(tmp_path / "cas")
        records = {key_of(n): f"value-{n}" for n in range(30)}
        errors = []

        def hammer():
            store = RecordStore(root)
            try:
                for _ in range(5):
                    for key, record in records.items():
                        assert store.save(key, record)
            except Exception as exc:             # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        reader = RecordStore(root)
        for key, record in records.items():
            with open(reader.path(key), "rb") as handle:
                assert check_blob(handle.read()), \
                    "no torn records under final names"
            assert reader.load(key) == record
        assert reader.corrupt == 0


# ---------------------------------------------------------------------------
# RecordStore: containment and accounting
# ---------------------------------------------------------------------------

class TestSharedStore:
    """:class:`RecordStore`'s containment and accounting: corrupt
    records, failed reads and writes, counters, metrics and the stats
    row.  (The class keeps the name of the wrapper it once tested, so
    its tests keep their IDs.)"""

    def test_corrupt_blob_is_discarded_not_served(self, tmp_path):
        root = str(tmp_path / "cas")
        store = RecordStore(root)
        key = key_of(3)
        store.save(key, "x")
        with open(store.path(key), "wb") as handle:
            handle.write(b"garbage, not an envelope")
        assert store.load(key) is None
        assert (store.corrupt, store.hits, store.misses) == (1, 0, 1)
        assert not os.path.exists(store.path(key)), "corrupt record must go"
        (event,) = store.telemetry.events.by_kind("shared_cache_corrupt")
        assert event.fields["tier"] == "cas" and event.fields["key"] == key
        assert "magic" in event.fields["error"]
        (name,) = os.listdir(os.path.join(root, "corrupt"))
        assert name.startswith(key + ".corrupt."), "…into quarantine"

    def test_exploding_tier_is_contained(self, tmp_path):
        # A directory where the record should be: the read fails (not
        # as a missing file) and so does the rename over it.
        store = RecordStore(str(tmp_path / "cas"))
        key = key_of(4)
        os.makedirs(store.path(key))
        assert store.load(key) is None, "a failed read is a miss"
        assert store.save(key, "new") is False
        assert (store.errors, store.misses, store.puts) == (2, 1, 0)
        ops = [e.fields["op"] for e in
               store.telemetry.events.by_kind("shared_cache_error")]
        assert ops == ["get", "put"]
        assert store.telemetry.metrics.snapshot()[
            "cache.shared.cas.errors"]["value"] == 2
        assert not [name for name in os.listdir(os.path.dirname(
            store.path(key))) if ".tmp." in name]

    def test_stats_snapshot_shape(self, tmp_path):
        store = RecordStore(str(tmp_path / "cas"))
        store.load(key_of(8))
        store.save(key_of(9), "nine")
        snap = store.stats_snapshot()
        assert set(snap) == {"schema", "root", "bytes", "max_bytes",
                             "hits", "misses", "puts", "errors", "corrupt",
                             "evictions", "hit_rate"}
        assert snap["schema"] == STORE_SCHEMA
        assert snap["root"] == str(tmp_path / "cas")
        assert snap["misses"] == 1 and snap["hit_rate"] == 0.0
        assert snap["puts"] == 1
        assert snap["bytes"] == len(encode_blob("nine"))

    def test_evictions_metric_counts_the_tier_gc(self, tmp_path):
        store = RecordStore(str(tmp_path / "cas"), max_bytes=2000)
        for n in range(40):
            store.save(key_of(n), "z" * 100)
            store.load(key_of(n))
        store.load(key_of(99))
        metrics = store.telemetry.metrics.snapshot()
        for name in ("hits", "misses", "puts", "errors", "corrupt",
                     "evictions"):
            assert metrics[f"cache.shared.cas.{name}"]["value"] == \
                getattr(store, name), name
        assert store.evictions > 0 and store.hits == 40
        assert metrics["cache.shared.cas.latency"]["count"] == 81

    def test_cas_write_failure_is_reported_once(self, tmp_path):
        # Every failed save is counted, but only the first few per
        # store are reported.
        plan = FaultPlan.parse("enospc@5")
        store = RecordStore(str(tmp_path / "cas"), fault_plan=plan)
        for n in range(5):
            assert store.save(key_of(n), "x") is False
        assert store.errors == 5
        assert store.puts == 0
        events = store.telemetry.events.by_kind("shared_cache_error")
        assert len(events) == 3
        assert events[0].fields["op"] == "put"
        assert "ENOSPC" in events[0].fields["error"]
        assert store.load(key_of(0)) is None, "a failed write is a miss"

    def test_flip_cache_corrupts_the_record_just_saved(self, tmp_path):
        plan = FaultPlan.parse("flip-cache,seed=3")
        store = RecordStore(str(tmp_path / "cas"), fault_plan=plan)
        assert store.save(key_of(1), "flipped")
        (event,) = store.telemetry.events.by_kind("fault_injected")
        assert event.fields["fault"] == "flip-cache"
        assert event.fields["path"] == store.path(key_of(1))
        assert store.load(key_of(1)) is None and store.corrupt == 1
        assert store.save(key_of(1), "kept") and \
            store.load(key_of(1)) == "kept", "one flip per budget unit"


# ---------------------------------------------------------------------------
# The daemon serves checks, not cache blobs
# ---------------------------------------------------------------------------

@pytest.fixture()
def live_daemon(tmp_path):
    from repro.server import CheckServer
    sock = str(tmp_path / "d.sock")
    server = CheckServer(socket_path=sock)
    server.bind()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield sock, server
    finally:
        server.request_stop()
        thread.join(10)
        server.close()


class TestDaemonOps:
    def test_cache_ops_are_unknown(self, live_daemon):
        sock, _server = live_daemon
        from repro.server import DaemonClient
        with DaemonClient(sock) as client:
            for frame in ({"op": "cache_get", "keys": [key_of(1)]},
                          {"op": "cache_put", "blobs": {}}):
                reply = client.request(frame)
                assert reply["ok"] is False
                assert reply["kind"] == "bad_request"
                assert reply["error"] == f"unknown op {frame['op']!r}"
            assert client.request({"op": "ping"})["ok"], \
                "the connection survives an unknown op"

    @pytest.mark.parametrize("spec", ["daemon", "daemon:/tmp/d.sock"])
    def test_daemon_spec_option_creates_no_directory(self, spec, live_daemon,
                                                     tmp_path, monkeypatch):
        sock, _server = live_daemon
        source = synthesize_program(4, seed=2)
        monkeypatch.chdir(tmp_path)
        from repro.server import DaemonClient
        with DaemonClient(sock) as client:
            reply = client.check(source, "d.vlt",
                                 options={"shared_cache": spec})
        assert reply["render"] == check_source(source, "d.vlt").render()
        assert not (tmp_path / "daemon").exists()


# ---------------------------------------------------------------------------
# Session integration edges
# ---------------------------------------------------------------------------

class TestSessionIntegration:
    """Sessions share results through one directory of file records;
    each fresh session stands for a separate process."""

    @staticmethod
    def _dir(tmp_path) -> str:
        return str(tmp_path / "cas")

    def test_unit_replay_across_sessions(self, tmp_path):
        source = synthesize_program(8, seed=3, error_rate=0.3)
        with CheckSession(units=["region"],
                          cache_dir=self._dir(tmp_path)) as a:
            expected = a.check(source).render()
        assert a.store.puts == 1
        with CheckSession(units=["region"],
                          cache_dir=self._dir(tmp_path)) as b:
            rendered = b.check(source).render()
        assert rendered == expected
        assert b.stats.shared_unit_hits == 1
        assert b.last.functions_checked == 0
        assert (b.last.chunks_parsed, b.last.whole_parse) == (0, False)
        assert b.store.puts == 0, "a replay writes nothing"

    def test_summary_reuse_after_edit(self, tmp_path):
        source = synthesize_program(8, seed=3)
        with CheckSession(units=["region"],
                          cache_dir=self._dir(tmp_path)) as a:
            a.check(source)
        edited = source.replace(
            "int worker_3(int input) {\n    tracked",
            "int worker_3(int input) {\n    // edited\n    tracked", 1)
        assert edited != source
        with CheckSession(units=["region"],
                          cache_dir=self._dir(tmp_path)) as b:
            b.check(edited)
        assert b.stats.shared_unit_hits == 0, "edited unit can't replay"
        assert b.last.functions_replayed >= 7, \
            "unedited functions must come from the file's record"
        assert b.last.functions_checked <= 1

    def test_different_options_do_not_cross_contaminate(self, tmp_path):
        source = synthesize_program(6, seed=4, error_rate=0.3)
        with CheckSession(units=["region"],
                          cache_dir=self._dir(tmp_path)) as a:
            a.check(source)
        with CheckSession(units=["region", "file"],
                          cache_dir=self._dir(tmp_path)) as b:
            b.check(source)
        assert b.stats.shared_unit_hits == 0, \
            "different units → different diagnostics → other key"
        assert b.last.functions_replayed == 0
        with CheckSession(stdlib=False,
                          cache_dir=self._dir(tmp_path)) as c:
            c.check(source)
        assert c.stats.shared_unit_hits == 0, "no stdlib → other key"
        assert c.last.functions_replayed == 0

    def test_sessions_on_different_files_keep_both_records(self, tmp_path):
        # Two processes started together, each checking its own file.
        # A summary pack was one slot per directory, so the last
        # writer's map replaced the other's; records are per file.
        sources = {name: synthesize_program(6, seed=seed, error_rate=0.3)
                   for name, seed in (("a.vlt", 5), ("b.vlt", 6))}
        writers = [CheckSession(units=["region"],
                                cache_dir=self._dir(tmp_path))
                   for _ in sources]
        for writer, (name, source) in zip(writers, sources.items()):
            writer.check(source, name)
        for name, source in sources.items():
            with CheckSession(units=["region"],
                              cache_dir=self._dir(tmp_path)) as reader:
                assert reader.check(source, name).render() == \
                    check_source(source, name, units=["region"]).render()
            assert reader.last.functions_checked == 0, name
            assert reader.stats.shared_unit_hits == 1, name

    def test_one_record_per_file_across_revisions(self, tmp_path):
        source = synthesize_program(8, seed=7, error_rate=0.2)
        for n in range(5):
            revision = source.replace(
                "int worker_2(int input) {\n",
                "int worker_2(int input) {\n" + "    // r\n" * n, 1)
            with CheckSession(units=["region"],
                              cache_dir=self._dir(tmp_path)) as session:
                session.check(revision, "unit.vlt")
            assert session.last.functions_checked == \
                (8 if n == 0 else 1)
        objects = RecordStore(self._dir(tmp_path))._objects()
        assert [os.path.basename(path) for path, _m, _s in objects] == \
            [os.path.basename(session.record_path("unit.vlt"))]

    def test_a_warm_session_loads_each_record_once(self, tmp_path):
        source = synthesize_program(4, seed=8)
        with CheckSession(units=["region"],
                          cache_dir=self._dir(tmp_path)) as a:
            a.check(source, "w.vlt")
        with CheckSession(units=["region"],
                          cache_dir=self._dir(tmp_path)) as b:
            for _ in range(3):
                b.check(source, "w.vlt")
            assert b.store.hits + b.store.misses == 1
            assert b.store.puts == 0

    def test_unreadable_record_is_a_counted_miss(self, tmp_path):
        # A directory at the record's path: the load fails (counted and
        # reported as a get), the save over it fails too, and the
        # check is cold and correct.
        source = synthesize_program(5, seed=10, error_rate=0.3)
        with CheckSession(units=["region"],
                          cache_dir=self._dir(tmp_path)) as session:
            os.makedirs(session.record_path("d.vlt"))
            got = session.check(source, "d.vlt")
        assert got.diagnostics == check_source(
            source, "d.vlt", units=["region"]).diagnostics
        assert session.last.functions_checked == 5
        assert session.store.errors == 2
        assert session.telemetry.metrics.snapshot()[
            "cache.shared.cas.errors"]["value"] == 2
        assert [e.fields["op"] for e in session.telemetry.events.by_kind(
            "shared_cache_error")] == ["get", "put"]

    def test_no_cache_dir_means_no_store(self):
        with CheckSession(units=["region"]) as session:
            session.check(synthesize_program(3, seed=9), "n.vlt")
        assert session.store is None and session.record_path() is None
        assert not [name for name in session.telemetry.metrics.snapshot()
                    if name.startswith("cache.shared.")]
