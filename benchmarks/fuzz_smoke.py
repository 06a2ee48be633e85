"""Differential-fuzzing smoke gate (the ``make fuzz-smoke`` target).

Generates a bounded batch of seeded adversarial protocol programs
(``repro.testing.generate``) and pushes every one through all three
checking paths — serial, warm cached session, live check daemon —
asserting the canonical CLI bytes agree on each
program.  Any divergence fails the gate with a shrunk reproducer and a
replay command; a passing run proves the checker's diagnostics are a
pure function of the source, however they were computed.

Also asserts the batch was *adversarial enough*: both clean and
rejected programs occurred, and every protocol-error family the
generator aims at (wrong state, leak, double consume) showed up.

Then walks ``EDIT_SEQUENCES`` seeded edit sequences
(``repro.testing.edits``): every revision, checked by one warm session,
by a fresh ``--cache DIR`` session per revision and by one in-process
check daemon, at the session's own cache caps and at caps of 8, must
render byte-identically to ``check_source`` — zero divergences, and
every edit kind exercised (``move_function`` among them, so summaries
with diagnostics replay at new lines).  A divergent sequence is
printed shrunk to the fewest revisions that still diverge.
Each ``--cache DIR`` walk also corrupts the file's record once; the
gate reports how many corrupt records were quarantined and fails if
none was.

Merges a ``fuzz`` block into ``BENCH_checker.json``.  Usable both as a
script (``python benchmarks/fuzz_smoke.py``) and as a pytest module.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.testing import run_fuzz                       # noqa: E402
from repro.testing.edits import EDIT_KINDS, run_edit_fuzz  # noqa: E402

COUNT = 200
SEED = 20260808
_REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
_BENCH_JSON = os.path.join(_REPO, "BENCH_checker.json")

#: the generator's target diagnostics; all must occur in the batch.
EXPECTED_CODES = ("V0301", "V0302", "V0303")

#: seeded edit sequences (of EDIT_LENGTH revisions) walked after the
#: program batch.
EDIT_SEQUENCES = 40
EDIT_LENGTH = 8


def test_fuzz_smoke(benchmark=None):
    start = time.perf_counter()
    report = run_fuzz(COUNT, seed=SEED)
    elapsed = time.perf_counter() - start

    for record in report.divergences:
        print(f"DIVERGENCE program seed {record.program_seed} "
              f"(paths: {', '.join(record.paths)}):")
        print(record.shrunk)
        print(f"replay: vaultc fuzz --emit {record.program_seed}")
    assert not report.divergences, (
        f"{len(report.divergences)} divergence(s): the checking paths "
        f"are not byte-identical")

    assert report.programs_ok + report.programs_rejected == COUNT
    assert report.programs_ok > 0, "batch had no clean programs"
    assert report.programs_rejected > 0, "batch had no violations"
    for code in EXPECTED_CODES:
        assert report.diagnostics.get(code, 0) > 0, (
            f"batch never produced {code}; the generator lost an "
            f"intent family")

    edit_start = time.perf_counter()
    edits = run_edit_fuzz(EDIT_SEQUENCES, seed=SEED, length=EDIT_LENGTH)
    edit_elapsed = time.perf_counter() - edit_start
    for d in edits.divergences:
        print(f"EDIT DIVERGENCE sequence seed {d.sequence_seed}, revision "
              f"{d.revision} ({' -> '.join(d.kinds)}), path {d.path}:")
        print(f"  check_source: {d.expected!r}")
        print(f"  {d.path}: {d.actual!r}")
        print(f"  shrunk to {len(d.shrunk)} revision(s): "
              f"{' -> '.join(d.shrunk)}")
        print(f"replay: repro.testing.edits.walk("
              f"edit_sequence({d.sequence_seed}, {EDIT_LENGTH}))")
    assert edits.ok, (
        f"{len(edits.divergences)} edit-sequence divergence(s): "
        f"incremental state changed an answer")
    missing = set(EDIT_KINDS) - set(edits.kinds)
    assert not missing, f"edit kinds never exercised: {sorted(missing)}"
    assert edits.record_quarantines > 0, \
        "no corrupt file record was quarantined: the flip never landed"

    result = {
        "seed": SEED,
        "programs": COUNT,
        "paths": report.paths,
        "skipped_paths": report.skipped_paths,
        "programs_ok": report.programs_ok,
        "programs_rejected": report.programs_rejected,
        "diagnostics": dict(sorted(report.diagnostics.items())),
        "divergences": 0,
        "seconds": round(elapsed, 3),
        "edit_sequences": {
            "sequences": EDIT_SEQUENCES,
            "revisions": edits.revisions,
            "paths": edits.paths,
            "skipped_paths": edits.skipped_paths,
            "kinds": edits.kinds,
            "record_quarantines": edits.record_quarantines,
            "divergences": 0,
            "seconds": round(edit_elapsed, 3),
        },
    }

    # Read-modify-write: bench_incremental.py owns the rest of the
    # file; this gate owns only the "fuzz" key.
    try:
        with open(_BENCH_JSON, "r", encoding="utf-8") as handle:
            merged = json.load(handle)
    except (OSError, ValueError):
        merged = {}
    merged["fuzz"] = result
    with open(_BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2)
        handle.write("\n")

    tally = ", ".join(f"{code} x{n}" for code, n
                      in sorted(report.diagnostics.items()))
    print("=" * 64)
    print("| fuzz smoke: differential byte-identity across paths")
    print("=" * 64)
    print(f"  {COUNT} programs (seed {SEED}) in {elapsed:.1f} s via "
          f"{'/'.join(report.paths)}")
    if report.skipped_paths:
        print(f"  paths unavailable here: {'/'.join(report.skipped_paths)}")
    print(f"  {report.programs_ok} checked clean, "
          f"{report.programs_rejected} rejected ({tally})")
    print("  divergences: 0 — all paths byte-identical      VERIFIED")
    print(f"  {EDIT_SEQUENCES} edit sequences, {edits.revisions} revisions "
          f"in {edit_elapsed:.1f} s via {', '.join(edits.paths)}")
    if edits.skipped_paths:
        print(f"  edit paths unavailable here: "
              f"{'/'.join(edits.skipped_paths)}")
    print(f"  {edits.record_quarantines} corrupt file records quarantined "
          f"and rebuilt")
    print("  divergences: 0 — every revision matches check_source  VERIFIED")
    print("=" * 64)


if __name__ == "__main__":
    test_fuzz_smoke()
    print("fuzz smoke: OK")
