"""Derived experiment T3 — the incremental checking pipeline.

Times :class:`repro.pipeline.CheckSession` on the same 160-function
synthetic workload as ``bench_checker_scaling.py``:

* **baseline** — plain ``check_source`` (cold, no session), with a
  per-phase breakdown (lex/parse/elaborate/check) sourced from the
  observability tracer's spans, so the benchmark and ``--trace``
  report the same numbers;
* **cold** — first ``CheckSession.check`` (fills every cache);
* **warm** — re-checking the byte-identical source (summary replay);
* **edit** — re-checking after a one-function edit (one summary
  invalidated, 159 replayed);
* **large** — cold/warm/one-edit timings on a 640-function workload,
  the front-end ratchet corpus: the cold and single-edit budgets below
  are enforced here, and the chunk-AST counters are recorded from the
  edit re-check.

All modes must produce byte-identical diagnostic output.  The timings
are written to ``BENCH_checker.json`` at the repository root so the
performance trajectory is tracked across PRs.

Absolute wall-clock budgets are only meaningful on hardware at least
as fast as the reference box the targets were set on, so they sit
behind a calibration probe (single-thread lex of the 160-function
corpus).  A slower host **skips and flags** the absolute ratchets,
while the machine-independent ratchets (speedup ratios, chunk
re-parse counts, cache hit rates) are enforced everywhere.
"""

import gc
import json
import os
import time

from repro import check_source
from repro.analysis import synthesize_program
from repro.obs import Telemetry
from repro.pipeline import CheckSession
from repro.syntax import tokenize

from conftest import banner

N_FUNCTIONS = 160
N_FUNCTIONS_LARGE = 640
UNITS = ["region"]

#: Calibration reference: seconds a single thread needs to lex the
#: 160-function corpus on the hardware the absolute budgets were set
#: on.  Hosts slower than this (within slack) skip the wall-clock
#: ratchets and record why.  The probe times this repository's own
#: lexer, so the reference moves with it: 0.012s with a lexer that the
#: single-pass one outruns by a factor of 0.86-0.88 on one host.
CALIBRATION_REF_LEX = 0.0104
CALIBRATION_SLACK = 1.25

#: Absolute budgets, enforced only on calibrated-fast hardware.
COLD_LARGE_BUDGET = 0.30    # cold 640-function session check
EDIT_LARGE_BUDGET = 0.010   # warm single-edit re-check, 640 functions

_BENCH_JSON = os.path.join(os.path.dirname(__file__), os.pardir,
                           "BENCH_checker.json")


def _edit(source: str) -> str:
    """Change one constant inside one function body (no line shift)."""
    needle = "c.value += "
    at = source.index(needle, len(source) // 2)
    end = source.index(";", at)
    return source[:at] + "c.value += 4242" + source[end:]


def _phase_timings(source: str) -> dict:
    """Per-phase breakdown of one cold check, read off the tracer.

    The span totals are the same data ``vaultc check --trace`` writes,
    so the benchmark's phase numbers and a trace viewer's agree by
    construction.
    """
    telemetry = Telemetry(trace=True)
    CheckSession(units=UNITS, telemetry=telemetry).check(source)
    cold = telemetry.tracer.phase_totals()
    return {"lex": cold.get("lex", 0.0),
            "parse": cold.get("parse", 0.0),
            "elaborate": cold.get("elaborate", 0.0),
            "check": cold.get("check_function", 0.0),
            "fingerprint": cold.get("fingerprint", 0.0)}


def _cache_hit_rates(metrics) -> dict:
    """Per-cache-layer hit rates from a session's metrics registry."""
    snapshot = metrics.snapshot()
    rates = {}
    for layer in ("chunk_splice", "chunk_ast", "context", "held_result",
                  "summary", "stdlib_base", "unit_replay", "fingerprint_memo"):
        hits = snapshot.get(f"cache.{layer}.hits", {}).get("value", 0)
        misses = snapshot.get(f"cache.{layer}.misses", {}).get("value", 0)
        if hits + misses:
            rates[layer] = {"hits": hits, "misses": misses,
                            "rate": hits / (hits + misses)}
    return rates


def _calibrate() -> dict:
    """Single-thread lex speed vs. the reference box (best of three)."""
    probe_source = synthesize_program(N_FUNCTIONS, seed=42)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        tokenize(probe_source)
        best = min(best, time.perf_counter() - start)
    fast_enough = best <= CALIBRATION_REF_LEX * CALIBRATION_SLACK
    return {"lex_160fn_seconds": best,
            "reference_seconds": CALIBRATION_REF_LEX,
            "fast_enough": fast_enough}


_RESILIENCE_COUNTERS = ("cache_quarantines",)


def _counter(session, name):
    """One registry counter of ``session`` (0 when never recorded)."""
    snapshot = session.telemetry.metrics.snapshot()
    return snapshot.get(name, {}).get("value", 0)


def _measure():
    source = synthesize_program(N_FUNCTIONS, seed=42)
    # Recovery activity summed over every session this run creates —
    # a no-fault benchmark must report all zeros, so regressions that
    # make recovery fire spuriously show up in BENCH_checker.json.
    resilience = {name: 0 for name in _RESILIENCE_COUNTERS}

    def _tally(sess):
        for name in _RESILIENCE_COUNTERS:
            resilience[name] += _counter(sess, f"resilience.{name}")

    start = time.perf_counter()
    baseline_report = check_source(source, units=UNITS)
    baseline = time.perf_counter() - start
    assert baseline_report.ok

    phases = _phase_timings(source)

    session = CheckSession(units=UNITS)
    start = time.perf_counter()
    cold_report = session.check(source)
    cold = time.perf_counter() - start

    start = time.perf_counter()
    warm_report = session.check(source)
    warm = time.perf_counter() - start

    start = time.perf_counter()
    session.check(_edit(source))
    edit = time.perf_counter() - start
    edited_functions = list(session.stats.last_checked)
    cache_hit_rates = _cache_hit_rates(session.telemetry.metrics)

    rendered = baseline_report.render()
    assert cold_report.render() == rendered, "session must match check_source"
    assert warm_report.render() == rendered, "warm replay must be identical"

    # Large corpus: the front-end ratchet workload.  The chunk-AST
    # counters are deltas across the edit re-check only — session
    # stats are cumulative, and a cold check is all misses by
    # definition.
    large_source = synthesize_program(N_FUNCTIONS_LARGE, seed=42)
    large_session = CheckSession(units=UNITS)
    edited_large = _edit(large_source)
    # A gen-2 collection walking the session's caches (millions of
    # live tokens/AST nodes by this point in the run) costs ~100 ms if
    # it lands inside a timed window — collect *before* each timing so
    # the numbers measure the checker, not the garbage collector.
    gc.collect()
    start = time.perf_counter()
    large_report = large_session.check(large_source)
    cold_large = time.perf_counter() - start
    assert large_report.ok
    gc.collect()
    start = time.perf_counter()
    large_session.check(large_source)
    warm_large = time.perf_counter() - start
    lstats = large_session.stats
    parses0 = lstats.chunk_parses
    chunk_hits0 = _counter(large_session, "cache.chunk_ast.hits")
    gc.collect()
    start = time.perf_counter()
    large_session.check(edited_large)
    edit_large = time.perf_counter() - start
    edit_parsed = lstats.chunk_parses - parses0
    edit_reused = _counter(large_session, "cache.chunk_ast.hits") \
        - chunk_hits0
    edit_chunks = edit_parsed + edit_reused
    # Fingerprints are memoized only when a declaration moves, which
    # elaborates the context while the functions above it keep their
    # nodes: append a declaration, then add a blank line inside the
    # last function's body, which moves that declaration down.
    with_decl = edited_large + "struct spare { int a; }\n"
    large_session.check(with_decl)
    last_body = with_decl.rindex("c.value += ")
    moved = with_decl[:last_body] + "\n" + with_decl[last_body:]
    memo0 = _counter(large_session, "cache.fingerprint_memo.hits")
    large_session.check(moved)
    _tally(large_session)
    frontend = {
        "edit_chunk_ast": {
            "parsed": edit_parsed,
            "reused": edit_reused,
            "rate": edit_reused / edit_chunks if edit_chunks else 0.0,
        },
        "fingerprints_memoized":
            _counter(large_session, "cache.fingerprint_memo.hits") - memo0,
        "calibration": _calibrate(),
    }

    _tally(session)
    assert not any(resilience.values()), \
        f"recovery machinery fired during a no-fault run: {resilience}"

    return {
        "workload": {"functions": N_FUNCTIONS, "units": UNITS, "seed": 42,
                     "large_functions": N_FUNCTIONS_LARGE},
        "seconds": {
            "baseline_check_source": baseline,
            "phases": phases,
            "cold": cold,
            "warm": warm,
            "edit_one_function": edit,
            "cold_large": cold_large,
            "warm_large": warm_large,
            "edit_large": edit_large,
        },
        "speedup": {
            "warm_vs_cold": cold / warm if warm else float("inf"),
            "edit_vs_cold": cold / edit if edit else float("inf"),
            "edit_large_vs_cold_large":
                cold_large / edit_large if edit_large else float("inf"),
        },
        "cache_hit_rates": cache_hit_rates,
        "frontend": frontend,
        "resilience": resilience,
        "edit_rechecked": edited_functions,
    }


def test_incremental_pipeline(benchmark):
    result = benchmark.pedantic(_measure, rounds=1, iterations=1)

    # Preserve keys owned by other benchmarks (bench_server.py writes
    # "server", bench_cache.py writes "shared_cache", and future
    # gates get the same courtesy without a new special case here).
    try:
        with open(_BENCH_JSON, "r", encoding="utf-8") as handle:
            previous = json.load(handle)
    except (OSError, ValueError):
        previous = {}
    for key, value in previous.items():
        result.setdefault(key, value)
    # bench_smoke.py owns five rows of the "frontend" block.
    for row in ("retained_chunks", "elaborations", "rescanned_chunks",
                "unit_replay", "summaries_held"):
        if row in previous.get("frontend", {}):
            result["frontend"][row] = previous["frontend"][row]

    with open(_BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")

    sec = result["seconds"]
    speed = result["speedup"]
    phases = sec["phases"]
    frontend = result["frontend"]
    calibration = frontend["calibration"]
    rows = [
        f"baseline check_source      {sec['baseline_check_source'] * 1000:8.1f} ms",
        f"  lex {phases['lex'] * 1000:.1f} / parse {phases['parse'] * 1000:.1f}"
        f" / elaborate {phases['elaborate'] * 1000:.1f}"
        f" / check {phases['check'] * 1000:.1f} ms",
        f"session cold               {sec['cold'] * 1000:8.1f} ms",
        f"session warm (replay)      {sec['warm'] * 1000:8.1f} ms"
        f"  ({speed['warm_vs_cold']:.1f}x)",
        f"one-function edit          {sec['edit_one_function'] * 1000:8.1f} ms"
        f"  ({speed['edit_vs_cold']:.1f}x, re-checked "
        f"{result['edit_rechecked']})",
        f"640-fn cold / warm / edit  {sec['cold_large'] * 1000:8.1f} /"
        f" {sec['warm_large'] * 1000:.1f} / {sec['edit_large'] * 1000:.1f} ms",
        "cache hit rates (cold+warm+edit): " + ", ".join(
            f"{layer} {data['rate']:.0%}"
            for layer, data in sorted(result["cache_hit_rates"].items())),
        f"640-fn edit chunk AST: "
        f"{frontend['edit_chunk_ast']['parsed']} parsed / "
        f"{frontend['edit_chunk_ast']['reused']} reused "
        f"({frontend['edit_chunk_ast']['rate']:.1%})",
    ]

    # Warm replay must beat a cold check by a wide margin everywhere.
    assert speed["warm_vs_cold"] >= 5.0, \
        "warm-cache re-check should be >=5x faster than cold"
    # An edit to one function must only re-check that function.
    assert len(result["edit_rechecked"]) == 1

    # Machine-independent front-end ratchets — enforced everywhere.
    assert frontend["edit_chunk_ast"]["parsed"] == 1, \
        "a one-chunk edit must re-parse exactly one chunk"
    assert frontend["edit_chunk_ast"]["rate"] >= 0.9, \
        "a one-chunk edit must serve >=90% of chunks from the chunk-AST " \
        "cache"
    assert frontend["fingerprints_memoized"] == N_FUNCTIONS_LARGE - 1, \
        "a moved declaration must reuse the fingerprint of every function " \
        "that did not move"
    assert speed["edit_large_vs_cold_large"] >= 10.0, \
        "a one-function edit on the 640-fn corpus should be >=10x " \
        "faster than cold"

    # Absolute wall-clock budgets — only on calibrated-fast hardware.
    if calibration["fast_enough"]:
        assert sec["cold_large"] <= COLD_LARGE_BUDGET, \
            f"cold 640-fn check {sec['cold_large']:.3f}s over " \
            f"{COLD_LARGE_BUDGET}s budget"
        assert sec["edit_large"] <= EDIT_LARGE_BUDGET, \
            f"640-fn single-edit re-check {sec['edit_large']:.4f}s over " \
            f"{EDIT_LARGE_BUDGET}s budget"
        rows.append(f"absolute budgets (cold<{COLD_LARGE_BUDGET}s, "
                    f"edit<{EDIT_LARGE_BUDGET * 1000:.0f}ms)   ENFORCED")
    else:
        rows.append(
            f"absolute budgets SKIPPED: host lexes 160-fn corpus in "
            f"{calibration['lex_160fn_seconds'] * 1000:.1f} ms "
            f"(reference {calibration['reference_seconds'] * 1000:.1f} ms)")

    rows.append("serial/warm outputs byte-identical   VERIFIED")
    banner("T3: incremental pipeline", rows)
