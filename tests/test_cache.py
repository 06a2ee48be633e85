"""The tiered shared store: envelopes, tiers, orchestration, wire ops.

Covers the ``repro.cache`` package bottom-up — blob envelope and key
discipline, each tier's contract (memory LRU bounds, CAS crash safety
and GC, remote breaker behaviour), the :class:`SharedStore`
fall-through/promotion/containment logic — and the integration edges:
the daemon's ``cache_get``/``cache_put`` validation, the session's
chaos gating, and the quarantine retention bound.
"""

from __future__ import annotations

import base64
import os
import threading
import time

import pytest

from repro.analysis import synthesize_program
from repro.cache import (CASTier, MemoryTier, RemoteTier, SharedStore,
                         StoreError, Tier, check_blob, decode_blob,
                         encode_blob, is_remote_spec, open_store,
                         options_salt, summary_store_key, unit_store_key,
                         valid_key)
from repro.cache.cas import CORRUPT_KEEP
from repro.pipeline import CheckSession, FaultPlan
from repro.pipeline.session import _QUARANTINE_KEEP


def key_of(n: int, kind: str = "s") -> str:
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
        assert valid_key("0" * 64 + "-s")
        assert valid_key("a1b2" * 16 + "-u")

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

    def test_summary_key_depends_on_fingerprint_and_salt(self):
        salt = options_salt(True, None, True, 2)
        k1 = summary_store_key("fp1", salt)
        assert valid_key(k1) and k1.endswith("-s")
        assert k1 == summary_store_key("fp1", salt)
        assert k1 != summary_store_key("fp2", salt)
        assert k1 != summary_store_key("fp1",
                                       options_salt(True, None, True, 3))

    def test_unit_key_depends_on_source_filename_and_salt(self):
        salt = options_salt(True, ["region"], True, 2)
        k1 = unit_store_key("src", "f.vlt", salt)
        assert valid_key(k1) and k1.endswith("-u")
        assert k1 == unit_store_key("src", "f.vlt", salt)
        assert k1 != unit_store_key("src2", "f.vlt", salt)
        assert k1 != unit_store_key("src", "g.vlt", salt)
        assert k1 != unit_store_key("src", "f.vlt",
                                    options_salt(False, ["region"], True, 2))

    def test_is_remote_spec(self):
        assert is_remote_spec("daemon")
        assert is_remote_spec("daemon:/tmp/x.sock")
        assert not is_remote_spec("/tmp/cache")
        assert not is_remote_spec("")
        assert not is_remote_spec(None)


# ---------------------------------------------------------------------------
# MemoryTier
# ---------------------------------------------------------------------------

class TestMemoryTier:
    def test_round_trip_and_miss(self):
        tier = MemoryTier()
        tier.put_many({key_of(1): b"one", key_of(2): b"two"})
        got = tier.get_many([key_of(1), key_of(2), key_of(3)])
        assert got == {key_of(1): b"one", key_of(2): b"two"}

    def test_entry_bound_evicts_lru(self):
        tier = MemoryTier(max_entries=3)
        for n in range(3):
            tier.put_many({key_of(n): b"x"})
        tier.get_many([key_of(0)])            # freshen 0
        tier.put_many({key_of(9): b"x"})      # evicts 1, the LRU
        assert tier.get_many([key_of(1)]) == {}
        assert key_of(0) in tier.get_many([key_of(0)])
        assert tier.evictions == 1

    def test_byte_bound_evicts(self):
        tier = MemoryTier(max_bytes=100)
        tier.put_many({key_of(n): b"y" * 40 for n in range(4)})
        assert len(tier) < 4
        assert tier.evictions >= 2
        snap = tier.stats_snapshot()
        assert snap["bytes"] <= 100

    def test_overwrite_does_not_leak_bytes(self):
        tier = MemoryTier()
        tier.put_many({key_of(1): b"a" * 50})
        tier.put_many({key_of(1): b"b" * 10})
        assert tier.stats_snapshot()["bytes"] == 10

    def test_discard(self):
        tier = MemoryTier()
        tier.put_many({key_of(1): b"one"})
        tier.discard(key_of(1))
        assert tier.get_many([key_of(1)]) == {}
        assert tier.stats_snapshot()["bytes"] == 0


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
    def test_fall_through_and_promotion(self, tmp_path):
        fast = MemoryTier()
        slow = CASTier(str(tmp_path / "cas"), fsync=False)
        slow.put_many({key_of(1): blob_of("deep")})
        store = SharedStore([fast, slow])
        assert store.fetch([key_of(1)]) == {key_of(1): "deep"}
        assert fast.get_many([key_of(1)]), \
            "a slow-tier hit must be promoted into the fast tier"
        assert store.counts["memory"].misses == 1
        assert store.counts["cas"].hits == 1

    def test_write_through_all_tiers(self, tmp_path):
        fast = MemoryTier()
        slow = CASTier(str(tmp_path / "cas"), fsync=False)
        store = SharedStore([fast, slow])
        assert store.store({key_of(2): "obj"}) == 1
        assert fast.get_many([key_of(2)])
        assert slow.get_many([key_of(2)])

    def test_corrupt_blob_is_discarded_not_served(self, tmp_path):
        slow = CASTier(str(tmp_path / "cas"), fsync=False)
        slow.put_many({key_of(3): b"garbage, not an envelope"})
        store = SharedStore([slow])
        assert store.fetch([key_of(3)]) == {}
        assert store.counts["cas"].corrupt == 1
        assert slow.get_many([key_of(3)]) == {}, "corrupt blob must go"
        qdir = os.path.join(str(tmp_path / "cas"), "corrupt")
        assert os.listdir(qdir), "…into quarantine"

    def test_exploding_tier_is_contained(self):
        backing = MemoryTier()
        backing.put_many({key_of(4): blob_of("ok")})
        store = SharedStore([_ExplodingTier(), backing])
        assert store.fetch([key_of(4)]) == {key_of(4): "ok"}
        assert store.store({key_of(5): "new"}) == 1
        assert store.counts["exploding"].errors >= 2
        assert backing.get_many([key_of(5)])

    def test_put_blobs_rejects_bad_keys_and_envelopes(self):
        tier = MemoryTier()
        store = SharedStore([tier])
        stored = store.put_blobs({
            "not-a-key": blob_of("x"),
            key_of(6): b"not an envelope",
            key_of(7): blob_of("good"),
        })
        assert stored == 1
        assert list(tier.get_many([key_of(7)])) == [key_of(7)]
        assert len(tier) == 1

    def test_stats_snapshot_shape(self, tmp_path):
        store = SharedStore([MemoryTier(),
                             CASTier(str(tmp_path / "cas"))])
        snap = store.stats_snapshot()
        assert [t["tier"] for t in snap["tiers"]] == ["memory", "cas"]
        for t in snap["tiers"]:
            assert {"hits", "misses", "puts", "errors",
                    "corrupt"} <= set(t)

    def test_open_store_specs(self, tmp_path):
        cas = open_store(str(tmp_path / "d"))
        assert [t.name for t in cas.tiers] == ["cas"]
        remote = open_store("daemon:/tmp/nope.sock",
                            memory_tier=MemoryTier())
        assert [t.name for t in remote.tiers] == ["memory", "remote"]
        assert remote.tiers[1].socket_path == "/tmp/nope.sock"
        empty = open_store(None)
        assert empty.tiers == ()


# ---------------------------------------------------------------------------
# RemoteTier and the daemon's wire ops
# ---------------------------------------------------------------------------

@pytest.fixture()
def live_daemon(tmp_path):
    from repro.server import CheckServer
    sock = str(tmp_path / "d.sock")
    server = CheckServer(socket_path=sock,
                         shared_cache_dir=str(tmp_path / "cas"))
    server.bind()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield sock, server
    finally:
        server.request_stop()
        thread.join(10)
        server.close()


class TestRemoteTier:
    def test_round_trip_through_daemon(self, live_daemon):
        sock, _server = live_daemon
        writer = RemoteTier(sock)
        writer.put_many({key_of(1): blob_of("over the wire")})
        writer.close()
        reader = RemoteTier(sock)
        got = reader.get_many([key_of(1), key_of(2)])
        assert decode_blob(got[key_of(1)]) == "over the wire"
        assert key_of(2) not in got
        reader.close()

    def test_dead_daemon_breaker(self, tmp_path):
        tier = RemoteTier(str(tmp_path / "nothing.sock"),
                          retry_seconds=60.0)
        with pytest.raises(StoreError):
            tier.get_many([key_of(1)])
        assert tier.broken
        # During backoff: silent misses, no second exception.
        assert tier.get_many([key_of(1)]) == {}
        tier.put_many({key_of(1): blob_of("x")})

    def test_orchestrator_counts_remote_failure_once(self, tmp_path):
        store = SharedStore([RemoteTier(str(tmp_path / "nothing.sock"),
                                        retry_seconds=60.0)])
        assert store.fetch([key_of(1)]) == {}
        assert store.fetch([key_of(1)]) == {}
        assert store.counts["remote"].errors == 1, \
            "the breaker must absorb repeat failures"

    def test_daemon_rejects_malformed_cache_ops(self, live_daemon):
        sock, _server = live_daemon
        from repro.server import DaemonClient
        with DaemonClient(sock) as client:
            reply = client.request({"op": "cache_get", "keys": "nope"})
            assert reply["ok"] is False
            reply = client.request({"op": "cache_put", "blobs": [1, 2]})
            assert reply["ok"] is False

    def test_daemon_drops_bad_keys_and_bad_base64(self, live_daemon):
        sock, server = live_daemon
        from repro.server import DaemonClient
        good = base64.b64encode(blob_of("fine")).decode("ascii")
        with DaemonClient(sock) as client:
            reply = client.request({"op": "cache_put", "blobs": {
                "../escape-s": good,            # invalid key
                key_of(8): "!!! not base64",    # undecodable
                key_of(9): base64.b64encode(b"junk").decode("ascii"),
                key_of(10): good,               # the only good one
            }})
        assert reply == {"ok": True, "stored": 1}
        assert server.shared_store.get_blobs([key_of(10)])
        assert server.shared_store.get_blobs([key_of(9)]) == {}


# ---------------------------------------------------------------------------
# Session integration edges
# ---------------------------------------------------------------------------

class TestSessionIntegration:
    def test_fault_plan_disables_shared_store(self):
        store = SharedStore([MemoryTier()])
        with CheckSession(fault_plan=FaultPlan.parse("flip-cache"),
                          shared_store=store) as session:
            assert session.shared_store is None, \
                "chaos sessions must not publish results"

    def test_unit_replay_across_sessions(self):
        source = synthesize_program(8, seed=3, error_rate=0.3)
        store = SharedStore([MemoryTier()])
        with CheckSession(units=["region"], shared_store=store) as a:
            expected = a.check(source).render()
        assert a.stats.shared_puts > 0
        with CheckSession(units=["region"], shared_store=store) as b:
            rendered = b.check(source).render()
        assert rendered == expected
        assert b.stats.shared_unit_hits == 1
        assert b.stats.functions_checked == 0

    def test_summary_reuse_after_edit(self):
        source = synthesize_program(8, seed=3)
        store = SharedStore([MemoryTier()])
        with CheckSession(units=["region"], shared_store=store) as a:
            a.check(source)
        edited = source.replace(
            "int worker_3(int input) {\n    tracked",
            "int worker_3(int input) {\n    // edited\n    tracked", 1)
        assert edited != source
        with CheckSession(units=["region"], shared_store=store) as b:
            b.check(edited)
        assert b.stats.shared_unit_hits == 0, "edited unit can't replay"
        assert b.stats.shared_summary_hits >= 7, \
            "unedited functions must come from the shared store"
        assert b.stats.functions_checked <= 1

    def test_different_options_do_not_cross_contaminate(self):
        source = synthesize_program(6, seed=4, error_rate=0.3)
        store = SharedStore([MemoryTier()])
        with CheckSession(units=["region"], shared_store=store) as a:
            a.check(source)
        with CheckSession(units=["region"], shared_store=store,
                          max_loop_iterations=5) as b:
            b.check(source)
        assert b.stats.shared_unit_hits == 0, \
            "different loop bound → different diagnostics → other key"

    def test_quarantine_retention_bound(self, tmp_path):
        path = str(tmp_path / "summaries.pkl")
        for n in range(_QUARANTINE_KEEP + 4):
            with open(f"{path}.corrupt.{os.getpid()}.{n}", "wb") as fh:
                fh.write(b"old post-mortem")
        with open(path + ".corrupt", "wb") as fh:    # legacy name
            fh.write(b"older still")
        CheckSession._prune_quarantines(path)
        survivors = [name for name in os.listdir(str(tmp_path))
                     if ".corrupt" in name]
        assert len(survivors) == _QUARANTINE_KEEP
