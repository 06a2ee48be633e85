"""On-disk cache smoke benchmark (the ``make cache-smoke`` gate).

The scenario ``--cache DIR`` exists for: developer A checks a 640
function corpus cold; developer B (a different process, an empty L1,
a brand-new session) checks the identical corpus against the same
cache directory and must run at warm speed, replaying the file's
record.  A third session edits one function and must rebuild *only*
that function from the summaries in the record.

Ratchets (enforced, then recorded under the ``"shared_cache"`` key of
``BENCH_checker.json``):

* second cold check >= **3x** faster than the first (unit replay);
* post-edit summary hit rate >= **0.9** (one function of 640 edited;
  functions replayed over functions looked up);
* diagnostics byte-identical across every path.

Usable both as a script (``python benchmarks/bench_cache.py``) and as
a pytest module.
"""

import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.analysis import synthesize_program          # noqa: E402
from repro.pipeline import CheckSession                # noqa: E402

N_FUNCTIONS = 640
SEED = 42
ERROR_RATE = 0.1
UNITS = ["region"]

MIN_REPLAY_SPEEDUP = 3.0
MIN_SUMMARY_HIT_RATE = 0.9

_REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
_BENCH_JSON = os.path.join(_REPO, "BENCH_checker.json")


def _timed_check(source, cache_dir, **session_kw):
    """One fresh session + one check against ``cache_dir``; returns
    ``(seconds, rendered, session)``."""
    with CheckSession(units=UNITS, cache_dir=cache_dir,
                      **session_kw) as session:
        started = time.perf_counter()
        report = session.check(source, "corpus.vlt")
        elapsed = time.perf_counter() - started
    return elapsed, report.render(), session


def _measure():
    source = synthesize_program(N_FUNCTIONS, seed=SEED,
                                error_rate=ERROR_RATE)
    edited = source.replace(
        "int worker_3(int input) {\n    tracked",
        "int worker_3(int input) {\n    // edited\n    tracked", 1)
    assert edited != source

    result = {"workload": {"functions": N_FUNCTIONS, "seed": SEED,
                           "error_rate": ERROR_RATE, "units": UNITS}}
    tmp = tempfile.mkdtemp(prefix="vaultc-cache-bench-")
    try:
        cas_dir = os.path.join(tmp, "cas")

        # -- session A: cold, writing the file's record ---------------
        cold, expected, session_a = _timed_check(source, cas_dir)
        assert session_a.store.puts == 1, \
            "the cold session must write the record"

        # -- session B: cold process, warm directory ------------------
        replay, rendered, session_b = _timed_check(source, cas_dir)
        assert rendered == expected, \
            "file-record replay must be byte-identical"
        record_b = session_b.last
        assert record_b.record_replayed is not None
        assert record_b.functions_checked == 0, \
            "a whole-unit replay re-checks nothing"

        # -- session C: one function edited ---------------------------
        edit_s, _rendered_c, session_c = _timed_check(edited, cas_dir)
        record_c = session_c.last
        lookups = record_c.functions_replayed + record_c.functions_checked
        hit_rate = record_c.functions_replayed / lookups if lookups else 0.0
        assert record_c.record_replayed is None
        assert record_c.functions_checked <= max(
            1, int(N_FUNCTIONS * (1 - MIN_SUMMARY_HIT_RATE)))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result["seconds"] = {
        "cold_populate": cold,
        "cold_replay": replay,
        "edit_one_function": edit_s,
    }
    result["speedup"] = {
        "replay_vs_cold": cold / replay if replay else float("inf"),
    }
    result["summary_hit_rate_after_edit"] = hit_rate
    result["byte_identical"] = True
    return result


def test_shared_cache_smoke(benchmark=None):
    if benchmark is not None:
        result = benchmark.pedantic(_measure, rounds=1, iterations=1)
    else:
        result = _measure()

    # Read-modify-write: bench_incremental.py owns the rest of the
    # file; this gate owns only the "shared_cache" key.
    try:
        with open(_BENCH_JSON, "r", encoding="utf-8") as handle:
            merged = json.load(handle)
    except (OSError, ValueError):
        merged = {}
    merged["shared_cache"] = result
    with open(_BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2)
        handle.write("\n")

    sec = result["seconds"]
    speed = result["speedup"]
    print(f"cache-smoke: cold populate          "
          f"{sec['cold_populate'] * 1000:8.1f} ms")
    print(f"cache-smoke: cold replay (record)   "
          f"{sec['cold_replay'] * 1000:8.1f} ms  "
          f"({speed['replay_vs_cold']:.1f}x)")
    print(f"cache-smoke: edit one of {N_FUNCTIONS}      "
          f"{sec['edit_one_function'] * 1000:8.1f} ms  "
          f"(summary hit rate "
          f"{result['summary_hit_rate_after_edit']:.3f})")
    print("cache-smoke: byte-identity across all paths   OK")

    assert speed["replay_vs_cold"] >= MIN_REPLAY_SPEEDUP, \
        f"a second cold check over a warm cache must be >= " \
        f"{MIN_REPLAY_SPEEDUP}x faster (got " \
        f"{speed['replay_vs_cold']:.2f}x)"
    assert result["summary_hit_rate_after_edit"] >= \
        MIN_SUMMARY_HIT_RATE, \
        f"after one edit the summary hit rate must stay >= " \
        f"{MIN_SUMMARY_HIT_RATE} (got " \
        f"{result['summary_hit_rate_after_edit']:.3f})"


if __name__ == "__main__":
    test_shared_cache_smoke()
    print("cache-smoke: PASS")
