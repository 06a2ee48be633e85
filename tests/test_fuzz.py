"""The adversarial generator, differential harness and shrinker.

The heavy end-to-end runs (hundreds of programs) live in
``benchmarks/fuzz_smoke.py``; here we pin the machinery itself:
generator validity and intent coverage, byte-identity of all three
checking paths on a small batch, the divergence/shrink pipeline (via a
stubbed harness — the real checker has no known divergence to use),
and the ``vaultc fuzz`` CLI contract.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from conftest import needs_unix, vaultc
from repro import check_source
from repro.testing import (DifferentialHarness, DifferentialResult,
                           GenConfig, canonical_stdout, derive_seed,
                           generate_program, run_fuzz, shrink)
from repro.testing.differential import InProcessDaemon, daemon_available
from repro.testing import edits as edits_mod
from repro.testing.edits import (EDIT_KINDS, SMALL_CAP, edit_sequence,
                                 run_edit_fuzz, shrink_sequence, walk)
from repro.testing.generate import INTENTS, VIOLATION_INTENTS
from repro.testing.shrink import split_decls

pytestmark = pytest.mark.fuzz


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

class TestGenerator:
    def test_same_seed_same_bytes(self):
        for seed in (0, 1, 7, 123456, 2**31 - 1):
            assert (generate_program(seed).source
                    == generate_program(seed).source)

    def test_explicit_config_is_honoured_and_deterministic(self):
        cfg = GenConfig(n_protocols=1, n_clients=2, p_violation=0.0,
                        p_variant=0.0, near_miss=False)
        a = generate_program(42, cfg)
        b = generate_program(42, cfg)
        assert a.source == b.source
        assert len(a.protocols) == 1
        assert not a.adversarial

    def test_violation_free_programs_check_clean(self):
        cfg = GenConfig(p_violation=0.0)
        for seed in range(8):
            program = generate_program(seed, cfg)
            assert not program.adversarial
            report = check_source(program.source, filename="clean.vlt")
            assert report.ok, report.render()

    def test_forced_violations_are_rejected_with_protocol_codes(self):
        cfg = GenConfig(p_violation=1.0)
        rejected = 0
        for seed in range(8):
            program = generate_program(seed, cfg)
            report = check_source(program.source, filename="bad.vlt")
            codes = {c.value for c in report.codes()}
            assert all(c.startswith("V03") for c in codes), codes
            if not report.ok:
                rejected += 1
        assert rejected == 8, "every adversarial program must be rejected"

    def test_every_intent_is_reachable(self):
        seen = set()
        for seed in range(120):
            seen.update(generate_program(seed).intents)
            if seen == set(INTENTS):
                break
        assert seen == set(INTENTS), f"missing intents: {set(INTENTS) - seen}"

    def test_recorded_intents_are_truthful(self):
        # adversarial <=> the checker rejects, over a decent sample
        for seed in range(30):
            program = generate_program(seed)
            report = check_source(program.source, filename="t.vlt")
            if program.adversarial:
                assert not report.ok, \
                    f"seed {seed} claims violations but checked clean"
            else:
                assert report.ok, (
                    f"seed {seed} claims clean but was rejected:\n"
                    + report.render())

    def test_derive_seed_is_pinned(self):
        # the replay contract: these exact values are documented
        assert derive_seed(0, 0) == 12_289
        assert derive_seed(1, 0) == 1_012_292
        assert derive_seed(2026, 5) == (2026 * 1_000_003
                                        + 5 * 7_919 + 12_289) & 0x7FFF_FFFF


# ---------------------------------------------------------------------------
# Shrinker
# ---------------------------------------------------------------------------

class TestShrink:
    def test_split_decls_round_trips(self):
        for seed in range(10):
            source = generate_program(seed).source
            assert "".join(split_decls(source)) == source

    def test_split_decls_keeps_variant_decls_whole(self):
        source = generate_program(3).source
        for chunk in split_decls(source):
            if chunk.strip().startswith("variant"):
                assert chunk.rstrip().endswith(";")
                assert "|" in chunk

    def test_shrink_reaches_a_minimal_single_client(self):
        cfg = GenConfig(p_violation=1.0, n_clients=6, wide_fillers=3)
        program = generate_program(11, cfg)

        # The predicate pins the *family* of the failure (a V03xx
        # protocol error), the way a real divergence predicate pins
        # the divergence — a plain "not ok" could be faked by e.g.
        # deleting main's return statement.
        def still_protocol_error(src: str) -> bool:
            report = check_source(src, filename="s.vlt")
            return any(c.value.startswith("V03") for c in report.codes())

        small = shrink(program.source, still_protocol_error)
        assert still_protocol_error(small)
        assert len(small) < len(program.source)
        # exactly one client function survives, and no fillers
        assert small.count("int client_") == 1
        assert "filler_" not in small

    def test_shrink_returns_input_when_predicate_fails(self):
        source = generate_program(0).source
        assert shrink(source, lambda s: False) == source

    def test_shrink_survives_crashing_predicate(self):
        # candidates that no longer parse raise inside check_source;
        # shrink must treat that as "predicate false", not crash
        program = generate_program(5, GenConfig(p_violation=1.0))

        def fragile(src: str) -> bool:
            return not check_source(src, filename="s.vlt").ok

        small = shrink(program.source, fragile)
        assert fragile(small)


# ---------------------------------------------------------------------------
# Differential harness: byte identity across paths
# ---------------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.daemon
class TestDifferential:
    def test_all_paths_agree_on_a_small_batch(self):
        with DifferentialHarness() as harness:
            assert "serial" in harness.paths
            for index in range(4):
                program = generate_program(derive_seed(404, index))
                result = harness.check(program.source, f"b{index}.vlt")
                assert not result.divergent, result.outputs

    def test_canonical_stdout_matches_cli_format(self):
        assert canonical_stdout(True, "", 0, "x.vlt") \
            == "x.vlt: OK (protocols verified)\n"
        assert canonical_stdout(False, "boom", 2, "x.vlt") \
            == "boom\nx.vlt: 2 error(s)\n"

    @needs_unix
    def test_daemon_path_really_runs(self):
        with DifferentialHarness() as harness:
            assert "daemon" in harness.paths


class _DivergingHarness:
    """Stub harness: the daemon 'path' drops one diagnostic whenever a
    marker client is present — a synthetic checker bug for exercising
    the divergence/shrink pipeline end to end."""

    MARKER = "client_wrong_state"

    def __init__(self, *args, **kwargs):
        self.paths = ["serial", "daemon"]
        self.skipped = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def check(self, source: str, rel: str) -> DifferentialResult:
        report = check_source(source, filename=rel)
        serial = canonical_stdout(report.ok, report.render(),
                                  len(report.errors), rel)
        daemon = serial
        if self.MARKER in source and not report.ok:
            daemon = canonical_stdout(True, "", 0, rel)   # the "bug"
        return DifferentialResult(rel=rel,
                                  outputs={"serial": serial,
                                           "daemon": daemon})


class TestFuzzLoop:
    def test_report_shape_and_determinism(self):
        report = run_fuzz(3, seed=77, use_daemon=False)
        again = run_fuzz(3, seed=77, use_daemon=False)
        assert report.ok
        assert report.count == 3
        assert report.programs_ok + report.programs_rejected == 3
        assert report.to_dict() == again.to_dict()
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["seed"] == 77

    def test_divergence_is_recorded_and_shrunk(self, monkeypatch):
        import repro.testing.fuzz as fuzz_mod
        monkeypatch.setattr(fuzz_mod, "DifferentialHarness",
                            _DivergingHarness)
        # hunt a seed whose derived batch contains the marker intent
        seed = next(s for s in range(200)
                    if any(_DivergingHarness.MARKER in
                           generate_program(derive_seed(s, i)).source
                           for i in range(3)))
        report = fuzz_mod.run_fuzz(3, seed=seed, use_daemon=True)
        assert not report.ok
        record = report.divergences[0]
        assert record.paths == ["daemon"]
        assert _DivergingHarness.MARKER in record.shrunk
        assert len(record.shrunk) < len(record.source)
        # the shrunk reproducer still diverges under the same harness
        assert _DivergingHarness().check(record.shrunk, "r.vlt").divergent


# ---------------------------------------------------------------------------
# Edit sequences
# ---------------------------------------------------------------------------

#: an edit sequence holding a form-feed comment above a function whose
#: verdict a later in-place edit flips (found on the code that numbered
#: lines with ``str.splitlines``).
FORM_FEED_SEQUENCE = 1508281213
#: the edit kinds it was drawn from: a new kind re-draws every seeded
#: sequence, so the revisions are pinned to these kinds and to a digest.
FORM_FEED_KINDS = EDIT_KINDS[:12]
FORM_FEED_DIGEST = \
    "a0e20f8dad2447ceefd74a7fb5e118febe808816b1e393c678e91cec4a6fe923"


def form_feed_revisions():
    """The revisions of ``FORM_FEED_SEQUENCE`` the bug was found on."""
    saved = edits_mod.EDIT_KINDS
    edits_mod.EDIT_KINDS = FORM_FEED_KINDS
    try:
        revisions = edit_sequence(FORM_FEED_SEQUENCE)
    finally:
        edits_mod.EDIT_KINDS = saved
    digest = hashlib.sha256("\x00".join(
        f"{r.kind}\x00{r.filename}\x00{r.source}" for r in revisions)
        .encode()).hexdigest()
    assert digest == FORM_FEED_DIGEST
    return revisions


def _number_lines_as_splitlines(monkeypatch):
    """Make the session number a function's own lines as
    ``str.splitlines`` does (the bug the form-feed sequence found)."""
    from repro.pipeline import Split
    monkeypatch.setattr(Split, "lines", lambda split, first, last: "\n".join(
        split.source.splitlines()[first - 1:last]))


class TestEditSequences:
    def test_same_seed_same_revisions(self):
        for seed in (0, 3, FORM_FEED_SEQUENCE):
            assert edit_sequence(seed) == edit_sequence(seed)

    def test_every_edit_kind_is_reachable(self):
        seen = set()
        for seed in range(40):
            seen.update(rev.kind for rev in edit_sequence(seed, 12))
        assert set(EDIT_KINDS) <= seen, set(EDIT_KINDS) - seen

    def test_a_syntax_error_is_followed_by_its_repair(self):
        for seed in range(40):
            revisions = edit_sequence(seed, 12)
            for i, rev in enumerate(revisions[:-1]):
                if rev.kind == "syntax_error":
                    assert revisions[i + 1].kind == "repair"
                    assert revisions[i + 1].source == \
                        revisions[i - 1].source

    def test_small_batch_has_no_divergence(self):
        report = run_edit_fuzz(3, seed=11)
        assert report.ok, [(d.sequence_seed, d.revision, d.path)
                           for d in report.divergences]
        walks = ["session", "cache-dir"] + (
            ["daemon"] if daemon_available() else [])
        assert report.paths == walks + [f"{w}/cap{SMALL_CAP}" for w in walks]
        assert report.skipped_paths == (
            [] if daemon_available() else ["daemon"])
        assert report.revisions == 24
        # one flipped file record per sequence and walk, each caught
        assert report.record_quarantines == 6

    def test_caps_are_restored_after_the_small_cap_walk(self):
        from repro.pipeline import session as session_mod
        before = session_mod._MAX_FILES
        walk(edit_sequence(2, 3), caps=SMALL_CAP)
        assert session_mod._MAX_FILES == before

    def test_the_small_cap_walk_evicts_on_a_rename(self):
        # At a file cap of one, the renamed file's first check evicts
        # the old name's state mid-sequence.
        from repro.pipeline import CheckSession
        # The first seed whose second revision is a rename and whose
        # revisions all parse (a new edit kind re-draws every seeded
        # sequence).
        seed = next(seed for seed in range(100)
                    if edit_sequence(seed, 2)[1].kind == "rename_file"
                    and "syntax_error" not in
                    [rev.kind for rev in edit_sequence(seed, 8)])
        revisions = edit_sequence(seed, 8)
        assert revisions[1].kind == "rename_file"
        with edits_mod._caps(SMALL_CAP):
            session = CheckSession()
            for rev in revisions:
                assert session.check(rev.source, rev.filename).render() \
                    == check_source(rev.source, rev.filename).render()
        snapshot = session.telemetry.metrics.snapshot()
        assert snapshot["cache.file.evictions"]["value"] >= 1
        assert walk(revisions, seed, SMALL_CAP)[1] == []

    def test_walk_catches_a_stale_summary(self, monkeypatch):
        # Number the session's lines as str.splitlines does: a form
        # feed then shifts every later function's own text, and an
        # in-place edit near a function's end replays a stale summary.
        revisions = form_feed_revisions()
        assert "form_feed" in [rev.kind for rev in revisions]
        assert walk(revisions)[1] == []
        _number_lines_as_splitlines(monkeypatch)
        paths, divergences, _quarantines = walk(revisions,
                                                FORM_FEED_SEQUENCE)
        assert {d.path for d in divergences} == set(paths)
        first = divergences[0]
        assert first.kinds[-1] == "body_call"
        assert first.expected != first.actual

    def test_a_divergent_sequence_shrinks(self, monkeypatch):
        revisions = form_feed_revisions()
        _number_lines_as_splitlines(monkeypatch)
        shrunk = shrink_sequence(revisions, "session", FORM_FEED_SEQUENCE)
        assert len(shrunk) < len(revisions)
        assert all(rev in revisions for rev in shrunk)
        assert walk(shrunk, FORM_FEED_SEQUENCE, only="session")[1]

    def test_divergences_report_the_shrunk_kinds(self, monkeypatch):
        _number_lines_as_splitlines(monkeypatch)
        revisions = form_feed_revisions()
        monkeypatch.setattr(edits_mod, "edit_sequence",
                            lambda seed, length: revisions)
        report = run_edit_fuzz(1, seed=0)
        assert report.divergences
        for d in report.divergences:
            assert 0 < len(d.shrunk) < len(revisions)

    def test_move_function_moves_one_whole_function(self):
        import random

        def blocks(lines):
            return sorted("\n".join(lines[head:close + 1])
                          for head, close in edits_mod._functions(lines))

        moved = 0
        for seed in range(20):
            original = edit_sequence(seed, 1)[0].source.split("\n")
            if len(edits_mod._functions(original)) < 2:
                continue
            lines = list(original)
            assert edits_mod._edit(random.Random(seed), "move_function",
                                   lines)
            assert lines != original
            assert sorted(lines) == sorted(original)
            assert blocks(lines) == blocks(original)
            moved += 1
        assert moved

    @needs_unix
    def test_daemon_path_catches_a_stale_summary(self, monkeypatch,
                                                 tmp_path):
        revisions = form_feed_revisions()
        _number_lines_as_splitlines(monkeypatch)
        daemon = InProcessDaemon(str(tmp_path / "check.sock"))
        try:
            paths, divergences, _quarantines = walk(
                revisions, FORM_FEED_SEQUENCE, daemon=daemon)
        finally:
            daemon.close()
        assert "daemon" in paths
        assert "daemon" in {d.path for d in divergences}

    @needs_unix
    def test_daemon_syntax_error_matches_check_source(self, tmp_path):
        # The daemon answers a syntax error with a vault_error reply;
        # the walk maps it to the message check_source raises.
        seed = next(s for s in range(100) if "syntax_error" in
                    [rev.kind for rev in edit_sequence(s)])
        revisions = edit_sequence(seed)
        daemon = InProcessDaemon(str(tmp_path / "check.sock"))
        try:
            paths, divergences, _quarantines = walk(revisions, seed,
                                                    daemon=daemon)
        finally:
            daemon.close()
        assert "daemon" in paths and divergences == []


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestFuzzCli:
    def test_emit_is_deterministic(self):
        a = vaultc(["fuzz", "--emit", "12289"])
        b = vaultc(["fuzz", "--emit", "12289"])
        assert a.returncode == 0
        assert a.stdout == b.stdout
        assert "seed=12289" in a.stdout

    def test_small_run_reports_byte_identity(self, tmp_path):
        out = tmp_path / "report.json"
        result = vaultc(["fuzz", "--count", "4", "--seed", "5",
                         "--no-daemon", "-q",
                         "--out", str(out)])
        assert result.returncode == 0, result.stderr
        assert "byte-identical" in result.stdout
        payload = json.loads(out.read_text())
        assert payload["count"] == 4
        assert payload["divergences"] == []
