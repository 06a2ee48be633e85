"""The on-disk store: envelopes, the CAS tier, the store's accounting.

Covers the ``repro.cache`` package bottom-up — blob envelope and key
discipline, the CAS tier's contract (crash safety and GC), the
:class:`SharedStore` checks and containment around its one tier — and
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
from repro.cache import (KEY_KINDS, RETIRED_KINDS, CASTier, SharedStore,
                         StoreError, Tier, check_blob, decode_blob,
                         encode_blob, options_salt, record_key, valid_key)
from repro.cache.cas import CORRUPT_KEEP
from repro.pipeline import CheckSession, FaultPlan


def key_of(n: int, kind: str = "f") -> str:
    """A syntactically valid store key derived from ``n``."""
    return f"{n:064x}"[-64:] + "-" + kind


def blob_of(obj: object) -> bytes:
    return encode_blob(obj)


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
        salt = options_salt(True, ["region"], True, 2)
        k1 = record_key(salt, "f.vlt")
        assert valid_key(k1) and k1.endswith("-f")
        assert k1 == record_key(salt, "f.vlt")
        assert k1 != record_key(salt, "g.vlt")
        assert k1 != record_key(options_salt(False, ["region"], True, 2),
                                "f.vlt")
        assert k1 != record_key(options_salt(True, ["region"], True, 3),
                                "f.vlt")


# ---------------------------------------------------------------------------
# CASTier
# ---------------------------------------------------------------------------

class TestCASTier:
    def test_round_trip_survives_reopen(self, tmp_path):
        root = str(tmp_path / "cas")
        writer = CASTier(root)
        writer.put_many({key_of(7): blob_of("seven")})
        reader = CASTier(root)                # fresh instance, same dir
        got = reader.get_many([key_of(7)])
        assert decode_blob(got[key_of(7)]) == "seven"

    def test_sharded_layout_and_no_stray_tmp(self, tmp_path):
        root = str(tmp_path / "cas")
        tier = CASTier(root)
        key = key_of(0xabc)
        tier.put_many({key: blob_of(1)})
        assert os.path.exists(os.path.join(root, key[:2], key))
        shard = os.listdir(os.path.join(root, key[:2]))
        assert shard == [key], "no temp files may survive a clean put"

    def test_invalid_keys_never_touch_disk(self, tmp_path):
        root = str(tmp_path / "cas")
        tier = CASTier(root)
        tier.put_many({"../../etc/passwd-s": b"evil", "zz": b"junk"})
        assert tier.get_many(["../../etc/passwd-s", "zz"]) == {}
        assert not os.path.exists(os.path.join(str(tmp_path), "etc"))

    def test_discard_quarantines_with_unique_names(self, tmp_path):
        root = str(tmp_path / "cas")
        tier = CASTier(root)
        key = key_of(5)
        for _ in range(3):
            tier.put_many({key: blob_of("x")})
            tier.discard(key)
        qdir = os.path.join(root, "corrupt")
        names = os.listdir(qdir)
        assert len(names) == 3, "each quarantine must keep its own copy"
        assert all(name.startswith(key + ".corrupt.") for name in names)
        assert tier.quarantines == 3
        assert tier.get_many([key]) == {}

    def test_quarantine_retention_is_bounded(self, tmp_path):
        root = str(tmp_path / "cas")
        tier = CASTier(root)
        key = key_of(6)
        for _ in range(CORRUPT_KEEP + 5):
            tier.put_many({key: blob_of("x")})
            tier.discard(key)
        names = os.listdir(os.path.join(root, "corrupt"))
        assert len(names) == CORRUPT_KEEP

    def test_gc_bounds_the_store(self, tmp_path):
        root = str(tmp_path / "cas")
        tier = CASTier(root, max_bytes=10_000_000, fsync=False)
        blob = blob_of("z" * 1000)
        for n in range(40):
            tier.put_many({key_of(n): blob})
        report = tier.gc(force=True, max_bytes=len(blob) * 10)
        assert report["scanned"] == 40
        assert report["deleted"] > 0
        assert report["bytes_remaining"] <= len(blob) * 10
        remaining = CASTier(root)._objects()
        assert len(remaining) == 40 - report["deleted"]

    def test_gc_deletes_oldest_first(self, tmp_path):
        root = str(tmp_path / "cas")
        tier = CASTier(root, fsync=False)
        blob = blob_of("z" * 100)
        tier.put_many({key_of(1): blob})
        old = os.path.join(root, key_of(1)[:2], key_of(1))
        os.utime(old, (time.time() - 9999, time.time() - 9999))
        tier.put_many({key_of(2): blob})
        tier.gc(force=True, max_bytes=int(len(blob) / 0.7))
        assert not os.path.exists(old)
        assert tier.get_many([key_of(2)])

    def test_auto_gc_on_budget_overflow(self, tmp_path):
        root = str(tmp_path / "cas")
        blob = blob_of("z" * 1000)
        tier = CASTier(root, max_bytes=len(blob) * 5, fsync=False)
        for n in range(20):
            tier.put_many({key_of(n): blob})
        assert tier.evictions > 0
        assert len(tier._objects()) < 20

    def test_gc_force_sweeps_stale_tmp_files(self, tmp_path):
        root = str(tmp_path / "cas")
        tier = CASTier(root, fsync=False)
        tier.put_many({key_of(1): blob_of("x")})
        shard = os.path.join(root, key_of(1)[:2])
        stale = os.path.join(shard, key_of(1) + ".tmp.999.1")
        with open(stale, "wb") as handle:
            handle.write(b"torn write")
        os.utime(stale, (time.time() - 7200, time.time() - 7200))
        tier.gc(force=True)
        assert not os.path.exists(stale)
        assert tier.get_many([key_of(1)]), "real objects must survive"

    def test_concurrent_writers_same_keys(self, tmp_path):
        root = str(tmp_path / "cas")
        blobs = {key_of(n): blob_of(f"value-{n}") for n in range(30)}
        errors = []

        def hammer():
            tier = CASTier(root, fsync=False)
            try:
                for _ in range(5):
                    tier.put_many(blobs)
            except Exception as exc:             # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        reader = CASTier(root)
        got = reader.get_many(list(blobs))
        assert len(got) == 30
        for key, blob in got.items():
            assert check_blob(blob), "no torn objects under final names"
            assert got[key] == blobs[key]


# ---------------------------------------------------------------------------
# SharedStore orchestration
# ---------------------------------------------------------------------------

class _ExplodingTier(Tier):
    name = "exploding"

    def get_many(self, keys):
        raise OSError("tier on fire")

    def put_many(self, blobs):
        raise OSError("tier on fire")


class TestSharedStore:
    def test_corrupt_blob_is_discarded_not_served(self, tmp_path):
        slow = CASTier(str(tmp_path / "cas"), fsync=False)
        slow.put_many({key_of(3): b"garbage, not an envelope"})
        store = SharedStore(slow)
        assert store.fetch([key_of(3)]) == {}
        assert store.counts.corrupt == 1
        assert slow.get_many([key_of(3)]) == {}, "corrupt blob must go"
        qdir = os.path.join(str(tmp_path / "cas"), "corrupt")
        assert os.listdir(qdir), "…into quarantine"

    def test_exploding_tier_is_contained(self):
        store = SharedStore(_ExplodingTier())
        assert store.fetch([key_of(4)]) == {}, "a failed get is a miss"
        assert store.store({key_of(5): "new"}) == 1
        assert store.counts.errors == 2
        assert store.counts.misses == 1 and store.counts.puts == 0
        ops = [e.fields["op"] for e in
               store.telemetry.events.by_kind("shared_cache_error")]
        assert ops == ["get", "put"]

    def test_put_blobs_rejects_bad_keys_and_envelopes(self, tmp_path):
        tier = CASTier(str(tmp_path / "cas"), fsync=False)
        store = SharedStore(tier)
        stored = store.put_blobs({
            "not-a-key": blob_of("x"),
            key_of(6): b"not an envelope",
            key_of(7): blob_of("good"),
        })
        assert stored == 1
        assert list(tier.get_many([key_of(6), key_of(7)])) == [key_of(7)]
        assert tier.stats_snapshot()["bytes"] == len(blob_of("good"))

    def test_stats_snapshot_shape(self, tmp_path):
        store = SharedStore(CASTier(str(tmp_path / "cas")))
        store.fetch([key_of(8)])
        snap = store.stats_snapshot()
        assert [t["tier"] for t in snap["tiers"]] == ["cas"]
        row = snap["tiers"][0]
        assert {"hits", "misses", "puts", "errors", "corrupt",
                "root", "bytes"} <= set(row)
        assert row["misses"] == 1 and row["hit_rate"] == 0.0

    def test_evictions_metric_counts_the_tier_gc(self, tmp_path):
        tier = CASTier(str(tmp_path / "cas"), max_bytes=2000, fsync=False)
        store = SharedStore(tier)
        for n in range(40):
            store.store({key_of(n): "z" * 100})
        metric = store.telemetry.metrics.snapshot()[
            "cache.shared.cas.evictions"]["value"]
        assert metric == tier.evictions > 0

    def test_cas_write_failure_is_reported_once(self, tmp_path):
        # A failed CAS write is absorbed by the tier (the other blobs
        # still land) and surfaced to the orchestrator, which counts
        # every failure but reports only the first few per tier.
        plan = FaultPlan.parse("enospc@5")
        store = SharedStore(CASTier(str(tmp_path / "cas"), fsync=False,
                                    fault_plan=plan))
        for n in range(5):
            assert store.store({key_of(n): "x"}) == 1
        assert store.counts.errors == 5
        assert store.counts.puts == 0
        events = store.telemetry.events.by_kind("shared_cache_error")
        assert len(events) == 3
        assert events[0].fields["op"] == "put"
        assert "ENOSPC" in events[0].fields["error"]
        assert store.fetch([key_of(0)]) == {}, "a failed write is a miss"


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
        assert a.store.counts.puts == 1
        with CheckSession(units=["region"],
                          cache_dir=self._dir(tmp_path)) as b:
            rendered = b.check(source).render()
        assert rendered == expected
        assert b.stats.shared_unit_hits == 1
        assert b.stats.functions_checked == 0
        assert b.stats.chunk_parses == b.stats.whole_parses == 0
        assert b.store.counts.puts == 0, "a replay writes nothing"

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
        assert b.stats.functions_replayed >= 7, \
            "unedited functions must come from the file's record"
        assert b.stats.functions_checked <= 1

    def test_different_options_do_not_cross_contaminate(self, tmp_path):
        source = synthesize_program(6, seed=4, error_rate=0.3)
        with CheckSession(units=["region"],
                          cache_dir=self._dir(tmp_path)) as a:
            a.check(source)
        with CheckSession(units=["region"],
                          cache_dir=self._dir(tmp_path),
                          max_loop_iterations=5) as b:
            b.check(source)
        assert b.stats.shared_unit_hits == 0, \
            "different loop bound → different diagnostics → other key"
        assert b.stats.functions_replayed == 0

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
            assert reader.stats.functions_checked == 0, name
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
            assert session.stats.functions_checked == (8 if n == 0 else 1)
        objects = CASTier(self._dir(tmp_path))._objects()
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
            assert b.store.counts.hits + b.store.counts.misses == 1
            assert b.store.counts.puts == 0

    def test_no_cache_dir_means_no_store(self):
        with CheckSession(units=["region"]) as session:
            session.check(synthesize_program(3, seed=9), "n.vlt")
        assert session.store is None and session.record_path() is None
        assert not [name for name in session.telemetry.metrics.snapshot()
                    if name.startswith("cache.shared.")]
