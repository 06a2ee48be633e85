"""Chaos tests for the resilient checking pipeline.

Every recovery path the checker promises is driven here through the
deterministic fault harness (:mod:`repro.pipeline.faults`):

* a corrupt file record is quarantined (original preserved under
  ``corrupt/`` with a unique ``*.corrupt.<pid>.<seq>`` name, bounded
  retention) and transparently rebuilt;
* a ``summaries.pkl`` left by an older ``vaultc`` is neither read nor
  deleted;
* the fault-spec parser behind ``--inject-faults`` and
  ``VAULTC_FAULTS`` is strict and deterministic.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import pytest

from repro import check_source
from repro.analysis import synthesize_program
from repro.cache import check_blob, encode_blob
from repro.pipeline import CheckSession, FaultPlan, cache_checksum
from repro.pipeline.faults import FaultError

UNITS = ["region"]


def _quarantines(session):
    """The session's ``resilience.cache_quarantines`` count."""
    return session.telemetry.metrics.counter(
        "resilience.cache_quarantines").value


def _corpus(n=24, seed=3, error_rate=0.3):
    source = synthesize_program(n, seed=seed, error_rate=error_rate)
    return source, check_source(source, units=UNITS).render()


# ---------------------------------------------------------------------------
# The fault plan itself (pure parsing/determinism; no fork needed)
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_parse_kinds_and_ranges(self):
        plan = FaultPlan.parse("torn@0,stall@2,kill@1,disconnect@3-5")
        assert plan.torn == {0}
        assert plan.stall == {2}
        assert plan.kill == {1}
        assert plan.disconnect == {3, 4, 5}

    def test_bare_kind_means_request_zero(self):
        assert FaultPlan.parse("torn").torn == {0}

    def test_flip_cache_and_seed(self):
        plan = FaultPlan.parse("flip-cache@2,seed=7")
        assert plan.seed == 7
        assert plan.take_cache_flip() and plan.take_cache_flip()
        assert not plan.take_cache_flip()      # budget of 2 exhausted

    def test_wire_fault_precedence_is_stable(self):
        plan = FaultPlan.parse("torn@4,stall@4")
        assert plan.wire_fault(4) == "torn"
        assert plan.wire_fault(5) is None

    def test_describe_parse_round_trip(self):
        spec = "torn@1,stall@2,flip-cache,enospc@2,seed=9"
        assert FaultPlan.parse(FaultPlan.parse(spec).describe()).describe() \
            == FaultPlan.parse(spec).describe()

    # crash/hang/poison were worker-pool faults; the pool is gone and
    # a spec naming them is an error, not a silent no-op.
    @pytest.mark.parametrize("bad", ["explode@1", "crash@x", "crash@3-1",
                                     "poison:", "seed=maybe",
                                     "flip-cache@many", "torn@x",
                                     "torn@3-1", "crash@0", "hang"])
    def test_bad_specs_raise_fault_error(self, bad):
        with pytest.raises(FaultError):
            FaultPlan.parse(bad)

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan.parse("")
        assert FaultPlan.parse("torn@0")
        assert FaultPlan.parse("flip-cache")

    def test_flip_file_byte_is_seeded_and_minimal(self, tmp_path):
        path = str(tmp_path / "blob")
        with open(path, "wb") as handle:
            handle.write(bytes(range(256)) * 4)
        pristine = bytes(range(256)) * 4
        offset = FaultPlan(seed=11).flip_file_byte(path)
        with open(path, "rb") as handle:
            data = handle.read()
        # exactly one byte changed, at the seeded offset
        diffs = [i for i in range(len(data)) if data[i] != pristine[i]]
        assert diffs == [offset]
        # a fresh plan with the same seed picks the same offset, so the
        # second flip restores the file bit-for-bit
        assert FaultPlan(seed=11).flip_file_byte(path) == offset
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

    def test_flip_cache_fault_round_trips(self, tmp_path, capfd):
        source, expected = _corpus(n=8, seed=9)
        plan = FaultPlan.parse("flip-cache,seed=1")
        with CheckSession(units=UNITS, cache_dir=str(tmp_path),
                          fault_plan=plan) as writer:
            writer.check(source)
        (event,) = writer.telemetry.events.by_kind("fault_injected")
        assert event.fields["fault"] == "flip-cache"
        assert event.fields["path"] == writer.record_path()
        with CheckSession(units=UNITS, cache_dir=str(tmp_path)) as reader:
            assert reader.check(source).render() == expected
        assert _quarantines(reader) == 1
        capfd.readouterr()

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
        plan = FaultPlan.parse("enospc")
        with CheckSession(units=UNITS, cache_dir=str(tmp_path),
                          fault_plan=plan) as writer:
            assert writer.check(source).render() == expected
        (event,) = writer.telemetry.events.by_kind("shared_cache_error")
        assert event.fields["op"] == "put"
        assert not os.path.exists(writer.record_path())
        with CheckSession(units=UNITS, cache_dir=str(tmp_path)) as reader:
            assert reader.check(source).render() == expected
        assert reader.last.functions_replayed == 0, "the next run is cold"

    def test_save_leaves_no_temp_files(self, tmp_path):
        source, _ = _corpus(n=4, seed=12)
        self._seed_cache(tmp_path, source)
        leftovers = [name for _root, _dirs, names in os.walk(str(tmp_path))
                     for name in names if ".tmp" in name]
        assert leftovers == []


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
# The CLI surface (--inject-faults and the --profile rows)
# ---------------------------------------------------------------------------

class TestCli:
    def test_check_with_injected_faults_exits_cleanly(self, tmp_path):
        # The flipped cache is quarantined on the second run, which
        # still prints the serial answer and says so in --profile.
        source, _ = _corpus(n=20, seed=16, error_rate=0.0)
        target = tmp_path / "prog.vlt"
        target.write_text(source)
        cache = str(tmp_path / "cache")
        env = {**os.environ,
               "PYTHONPATH": os.path.join(os.path.dirname(__file__),
                                          os.pardir, "src")}
        runs = [subprocess.run(
            [sys.executable, "-m", "repro.cli", "check", str(target),
             "--cache", cache, "--profile", *extra],
            capture_output=True, text=True, env=env)
            for extra in (["--inject-faults", "flip-cache"], [])]
        for proc in runs:
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == f"{target}: OK (protocols verified)\n"
        assert "cache quarantines" in runs[1].stderr

    def test_bad_fault_spec_is_a_usage_error(self, tmp_path):
        target = tmp_path / "prog.vlt"
        target.write_text("int main() { return 0; }\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "check", str(target),
             "--inject-faults", "explode@1"],
            capture_output=True, text=True,
            env={**os.environ,
                 "PYTHONPATH": os.path.join(os.path.dirname(__file__),
                                            os.pardir, "src")})
        assert proc.returncode != 0
        assert "bad fault spec" in proc.stderr
