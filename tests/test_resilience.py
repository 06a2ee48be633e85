"""Chaos tests for the resilient checking pipeline.

Every recovery path the checker promises is driven here through the
deterministic fault harness (:mod:`repro.pipeline.faults`):

* a corrupt on-disk summary cache is quarantined (original preserved
  under a unique ``*.corrupt.<pid>.<seq>`` name, bounded retention)
  and transparently rebuilt;
* legacy cache formats (v2, and v3 files that still carry the
  scheduler costs older versions persisted) load without a quarantine;
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
from repro.pipeline import CheckSession, FaultPlan, cache_checksum
from repro.pipeline.faults import FaultError

UNITS = ["region"]


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
    def _cache_path(self, tmp_path):
        return os.path.join(str(tmp_path), "summaries.pkl")

    def _seed_cache(self, tmp_path, source):
        with CheckSession(units=UNITS, cache_dir=str(tmp_path)) as session:
            session.check(source)
        path = self._cache_path(tmp_path)
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
        assert session.stats.cache_quarantines == 1
        (event,) = session.telemetry.events.by_kind("cache_corrupt")
        assert event.fields["path"] == path
        assert event.fields["error"]
        # quarantine names are unique (``.corrupt.<pid>.<seq>``) so a
        # later corruption cannot clobber this post-mortem
        quarantined = event.fields["quarantined"]
        assert quarantined.startswith(path + ".corrupt.")
        # the corrupt original is preserved for post-mortems…
        with open(quarantined, "rb") as handle:
            assert handle.read() == bytes(corrupt)
        # …and the rebuilt cache replays cleanly on the next run.
        with CheckSession(units=UNITS, cache_dir=str(tmp_path)) as reader:
            reader.check(source)
        assert reader.stats.cache_quarantines == 0
        assert reader.stats.functions_checked == 0
        assert "rebuilding cold" in capfd.readouterr().err

    def test_checksum_catches_payload_corruption(self, tmp_path, capfd):
        # A flip inside the pickled body keeps the envelope loadable —
        # only the content checksum can catch it.
        source, _ = _corpus(n=6, seed=8)
        path = self._seed_cache(tmp_path, source)
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        body = bytearray(payload["data"])
        body[len(body) // 2] ^= 0x01
        payload["data"] = bytes(body)
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)

        with CheckSession(units=UNITS, cache_dir=str(tmp_path)) as session:
            session.check(source)
        (event,) = session.telemetry.events.by_kind("cache_corrupt")
        assert "checksum" in event.fields["error"]
        capfd.readouterr()

    def test_flip_cache_fault_round_trips(self, tmp_path, capfd):
        source, expected = _corpus(n=8, seed=9)
        plan = FaultPlan.parse("flip-cache,seed=1")
        with CheckSession(units=UNITS, cache_dir=str(tmp_path),
                          fault_plan=plan) as writer:
            writer.check(source)
        (event,) = writer.telemetry.events.by_kind("fault_injected")
        assert event.fields["fault"] == "flip-cache"
        with CheckSession(units=UNITS, cache_dir=str(tmp_path)) as reader:
            assert reader.check(source).render() == expected
        assert reader.stats.cache_quarantines == 1
        capfd.readouterr()

    def test_unknown_version_reported_but_left_in_place(self, tmp_path):
        source, _ = _corpus(n=4, seed=10)
        path = self._seed_cache(tmp_path, source)
        with open(path, "wb") as handle:
            pickle.dump({"version": 99, "data": b""}, handle)
        with CheckSession(units=UNITS, cache_dir=str(tmp_path)) as session:
            session.check(source)
        (event,) = session.telemetry.events.by_kind("cache_incompatible")
        assert event.fields["version"] == 99
        assert not [name for name in os.listdir(os.path.dirname(path))
                    if ".corrupt" in name]

    def test_legacy_version2_payload_still_loads(self, tmp_path):
        source, _ = _corpus(n=5, seed=11)
        path = self._seed_cache(tmp_path, source)
        with open(path, "rb") as handle:
            inner = pickle.loads(pickle.load(handle)["data"])
        assert "costs" not in inner
        # Older versions persisted per-function scheduler costs beside
        # the summaries; v2 and v3 files that still carry them load,
        # and the costs are ignored.
        costs = {"worker_0": 0.001, "worker_1": 0.002}
        body = pickle.dumps({"summaries": inner["summaries"],
                             "costs": costs})
        legacy = [{"version": 2, "summaries": inner["summaries"],
                   "costs": costs},
                  {"version": 3, "sha256": cache_checksum(body),
                   "data": body}]
        for payload in legacy:
            with open(path, "wb") as handle:
                pickle.dump(payload, handle)
            with CheckSession(units=UNITS,
                              cache_dir=str(tmp_path)) as reader:
                reader.check(source)
            assert reader.stats.functions_checked == 0
            assert reader.stats.cache_quarantines == 0

    def test_save_leaves_no_temp_files(self, tmp_path):
        source, _ = _corpus(n=4, seed=12)
        self._seed_cache(tmp_path, source)
        leftovers = [name for name in os.listdir(str(tmp_path))
                     if ".tmp" in name]
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
