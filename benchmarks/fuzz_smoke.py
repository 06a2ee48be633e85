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

Merges a ``fuzz`` block into ``BENCH_checker.json``.  Usable both as a
script (``python benchmarks/fuzz_smoke.py``) and as a pytest module.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.testing import run_fuzz                       # noqa: E402

COUNT = 200
SEED = 20260808
_REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
_BENCH_JSON = os.path.join(_REPO, "BENCH_checker.json")

#: the generator's target diagnostics; all must occur in the batch.
EXPECTED_CODES = ("V0301", "V0302", "V0303")


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
    print("=" * 64)


if __name__ == "__main__":
    test_fuzz_smoke()
    print("fuzz smoke: OK")
