"""Chaos tests for the resilient checking pipeline.

Every recovery path the checker promises is driven here from outside
the product: a record is corrupted by flipping a byte of the file on
disk, and a full disk is an ``os.fsync`` patched to raise ``ENOSPC``.

* a corrupt file record is quarantined (original preserved under
  ``corrupt/`` with a unique ``*.corrupt.<pid>.<seq>`` name, bounded
  retention) and transparently rebuilt;
* a failed record write is reported, leaves no temp file, and the next
  run checks cold;
* a ``summaries.pkl`` left by an older ``vaultc`` is neither read nor
  deleted;
* no environment variable injects a fault into ``vaultc check``.
"""

from __future__ import annotations

import errno
import os
import pickle
import re
import subprocess
import sys
from unittest import mock

from repro import check_source
from repro.analysis import synthesize_program
from repro.cache import check_blob, encode_blob
from repro.pipeline import CheckSession, cache_checksum
from repro.testing.edits import flip_file_byte

UNITS = ["region"]


def _quarantines(session):
    """The session's ``resilience.cache_quarantines`` count."""
    return session.telemetry.metrics.counter(
        "resilience.cache_quarantines").value


def _temp_files(root):
    """The store's temp files left anywhere under ``root``."""
    return [name for _root, _dirs, names in os.walk(str(root))
            for name in names if ".tmp" in name]


def _corpus(n=24, seed=3, error_rate=0.3):
    source = synthesize_program(n, seed=seed, error_rate=error_rate)
    return source, check_source(source, units=UNITS).render()


# ---------------------------------------------------------------------------
# The seeded byte flip the edit fuzzer corrupts records with
# ---------------------------------------------------------------------------

def test_flip_file_byte_is_seeded_and_minimal(tmp_path):
    path = str(tmp_path / "blob")
    pristine = bytes(range(256)) * 4
    with open(path, "wb") as handle:
        handle.write(pristine)
    offset = flip_file_byte(path, seed=11)
    with open(path, "rb") as handle:
        data = handle.read()
    # exactly one byte changed, at the seeded offset
    diffs = [i for i in range(len(data)) if data[i] != pristine[i]]
    assert diffs == [offset]
    # the same seed picks the same offset, so the second flip restores
    # the file bit-for-bit
    assert flip_file_byte(path, seed=11) == offset
    with open(path, "rb") as handle:
        assert handle.read() == pristine


# ---------------------------------------------------------------------------
# Cache corruption: quarantine and rebuild
# ---------------------------------------------------------------------------

class TestCacheResilience:
    def _seed_cache(self, tmp_path, source):
        with CheckSession(units=UNITS, cache_dir=str(tmp_path)) as session:
            session.check(source)
        path = session.record_path()
        assert os.path.exists(path)
        return path

    def test_bit_flip_is_quarantined_and_rebuilt(self, tmp_path, capfd):
        source, expected = _corpus(n=10, seed=5)
        path = self._seed_cache(tmp_path, source)
        with open(path, "rb") as handle:
            corrupt = bytearray(handle.read())
        corrupt[len(corrupt) // 2] ^= 0x40
        with open(path, "wb") as handle:
            handle.write(bytes(corrupt))

        with CheckSession(units=UNITS, cache_dir=str(tmp_path)) as session:
            rendered = session.check(source).render()
        assert rendered == expected
        metrics = session.telemetry.metrics.snapshot()
        assert metrics["resilience.cache_quarantines"]["value"] == 1
        assert metrics["cache.shared.cas.corrupt"]["value"] == 1, \
            "record traffic is the store's cache.shared.cas.* metrics"
        (event,) = session.telemetry.events.by_kind("shared_cache_corrupt")
        assert session.record_path().endswith(event.fields["key"])
        assert event.fields["error"]
        # quarantine names are unique (``.corrupt.<pid>.<seq>``) so a
        # later corruption cannot clobber this post-mortem
        qdir = os.path.join(str(tmp_path), "corrupt")
        (quarantined,) = os.listdir(qdir)
        assert quarantined.startswith(event.fields["key"] + ".corrupt.")
        # the corrupt original is preserved for post-mortems…
        with open(os.path.join(qdir, quarantined), "rb") as handle:
            assert handle.read() == bytes(corrupt)
        # …and the rebuilt cache replays cleanly on the next run.
        with CheckSession(units=UNITS, cache_dir=str(tmp_path)) as reader:
            reader.check(source)
        assert _quarantines(reader) == 0
        assert reader.last.functions_checked == 0
        err = capfd.readouterr().err
        assert err.count("rebuilding cold") == 1

    def test_checksum_catches_payload_corruption(self, tmp_path, capfd):
        # A flip inside the pickled body keeps the envelope well-formed
        # — only the content checksum can catch it.
        source, _ = _corpus(n=6, seed=8)
        path = self._seed_cache(tmp_path, source)
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        body_at = len(blob) - len(check_blob(bytes(blob)))
        blob[body_at + (len(blob) - body_at) // 2] ^= 0x01
        with open(path, "wb") as handle:
            handle.write(bytes(blob))

        with CheckSession(units=UNITS, cache_dir=str(tmp_path)) as session:
            session.check(source)
        (event,) = session.telemetry.events.by_kind("shared_cache_corrupt")
        assert "checksum" in event.fields["error"]
        assert _quarantines(session) == 1
        capfd.readouterr()

    def test_unpicklable_pack_body_is_quarantined(self, tmp_path, capfd):
        # A sound envelope around a body that will not unpickle (e.g.
        # a class the summaries reference changed between versions).
        source, expected = _corpus(n=6, seed=4)
        path = self._seed_cache(tmp_path, source)
        good = encode_blob(None)
        magic = good[:len(good) - len(check_blob(good)) - 65]
        blob = (magic + cache_checksum(b"not a pickle").encode()
                + b"\nnot a pickle")
        assert check_blob(blob) == b"not a pickle"
        with open(path, "wb") as handle:
            handle.write(blob)
        with CheckSession(units=UNITS, cache_dir=str(tmp_path)) as session:
            assert session.check(source).render() == expected
        assert _quarantines(session) == 1
        (event,) = session.telemetry.events.by_kind("shared_cache_corrupt")
        assert "unpickle" in event.fields["error"]
        assert os.listdir(os.path.join(str(tmp_path), "corrupt"))
        assert capfd.readouterr().err.count("rebuilding cold") == 1

    def test_legacy_summaries_pickle_is_ignored(self, tmp_path):
        # An older vaultc kept its summaries in DIR/summaries.pkl (a
        # checksummed "version 3" pickle).  File records replace it: the
        # file is neither read nor deleted, and the first check is
        # cold and correct.
        source, expected = _corpus(n=5, seed=11)
        with CheckSession(units=UNITS) as warm:
            warm.check(source)
        body = pickle.dumps({"summaries": dict(warm._files["<input>"].summaries)})
        legacy = tmp_path / "summaries.pkl"
        legacy.write_bytes(pickle.dumps({
            "version": 3, "sha256": cache_checksum(body), "data": body}))
        before = legacy.read_bytes()
        with CheckSession(units=UNITS, cache_dir=str(tmp_path)) as session:
            assert session.check(source).render() == expected
        assert session.last.functions_replayed == 0
        assert _quarantines(session) == 0
        assert legacy.read_bytes() == before
        assert not (tmp_path / "corrupt").exists()

    def test_failed_pack_write_is_an_event(self, tmp_path):
        source, expected = _corpus(n=4, seed=14)
        full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        with CheckSession(units=UNITS, cache_dir=str(tmp_path)) as writer, \
                mock.patch("os.fsync", side_effect=full):
            assert writer.check(source).render() == expected
        (event,) = writer.telemetry.events.by_kind("shared_cache_error")
        assert event.fields["op"] == "put"
        assert os.strerror(errno.ENOSPC) in event.fields["error"]
        assert not os.path.exists(writer.record_path())
        assert _temp_files(tmp_path) == [], "the failed write cleaned up"
        with CheckSession(units=UNITS, cache_dir=str(tmp_path)) as reader:
            assert reader.check(source).render() == expected
        assert reader.last.functions_replayed == 0, "the next run is cold"

    def test_save_leaves_no_temp_files(self, tmp_path):
        source, _ = _corpus(n=4, seed=12)
        self._seed_cache(tmp_path, source)
        assert _temp_files(tmp_path) == []


# ---------------------------------------------------------------------------
# Session lifecycle
# ---------------------------------------------------------------------------

class TestSessionClose:
    def test_close_is_idempotent(self):
        source, _ = _corpus(n=6, seed=13)
        session = CheckSession(units=UNITS, jobs=2)
        session.check(source)
        session.close()
        session.close()                            # second close: no-op

    def test_session_usable_after_close(self):
        source, expected = _corpus(n=6, seed=15)
        with CheckSession(units=UNITS, jobs=2) as session:
            assert session.check(source).render() == expected
            session.close()
            assert session.check(source).render() == expected


# ---------------------------------------------------------------------------
# The CLI surface: a corrupt record on disk, and a hostile environment
# ---------------------------------------------------------------------------

def _vaultc_check(target, cache, env=None):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "check", str(target),
         "--cache", cache, "--profile"],
        capture_output=True, text=True,
        env={**os.environ, **(env or {}),
             "PYTHONPATH": os.path.join(os.path.dirname(__file__),
                                        os.pardir, "src")})


class TestCli:
    def test_check_with_injected_faults_exits_cleanly(self, tmp_path):
        # A record flipped between two runs is quarantined on the
        # second, which still prints the serial answer and says so in
        # --profile.
        source, _ = _corpus(n=20, seed=16, error_rate=0.0)
        target = tmp_path / "prog.vlt"
        target.write_text(source)
        cache = str(tmp_path / "cache")
        first = _vaultc_check(target, cache)
        flip_file_byte(CheckSession(cache_dir=cache).record_path(str(target)),
                       seed=0)
        second = _vaultc_check(target, cache)
        for proc in (first, second):
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == f"{target}: OK (protocols verified)\n"
        assert "cache quarantines" in second.stderr

    def test_stray_environment_changes_nothing(self, tmp_path):
        # Stray VAULTC_* variables (among them the name of a removed
        # fault hook, with a value that once flipped the record just
        # written) change nothing: the second run replays the record.
        source, _ = _corpus(n=20, seed=16, error_rate=0.0)
        target = tmp_path / "prog.vlt"
        target.write_text(source)
        cache = str(tmp_path / "cache")
        stray = {f"VAULTC_{name}": "flip-cache"
                 for name in ("FAULTS", "INJECT", "CHAOS")}
        runs = [_vaultc_check(target, cache, stray) for _ in range(2)]
        for proc in runs:
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == f"{target}: OK (protocols verified)\n"
        assert re.search(r"file record replays +1\n", runs[1].stderr)
        assert "cache quarantines" not in runs[1].stderr

    def test_only_documented_environment_variables_are_read(self):
        # Every os.environ / os.getenv read under src/repro names one
        # of the variables docs/SERVER.md documents.
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        src = os.path.join(root, "src", "repro")
        read = re.compile(r"""os\.(?:environ\.get\(|environ\[|getenv\()"""
                          r"""\s*["']([A-Za-z_][A-Za-z0-9_]*)["']""")
        names, sites = set(), 0
        for folder, _dirs, files in os.walk(src):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(folder, name)) as handle:
                        text = handle.read()
                    sites += len(re.findall(r"os\.(?:environ|getenv)\b",
                                            text))
                    names.update(read.findall(text))
        assert names == {"VAULTC_SOCKET", "XDG_RUNTIME_DIR",
                         "VAULTC_SERVER_TEST_OPS"}
        assert sites == 3, "every environment read names its variable"
        with open(os.path.join(root, "docs", "SERVER.md")) as handle:
            doc = handle.read()
        for name in names:
            assert f"`{name}`" in doc or f"`${name}" in doc, name
