"""A fast front-end smoke check (the ``make bench-smoke`` gate).

Runs in a few seconds and asserts the front-end ratchet — lex + parse
must stay under a pinned fraction of the whole cold check on the
160-function corpus, and a one-chunk edit must re-parse exactly one
chunk and serve >= 90% of chunks from the chunk-AST cache on the warm
re-check.  Both are measured on the same run, so they hold on any
hardware.  A fresh ``--cache DIR`` session given the same edit must
parse exactly one function body and check exactly one function: the
other 159 replay their summaries from headers alone.

The retention ratchet replays line-insert revisions of the same unit in
one session: afterwards the session must hold exactly the last
revision's chunks and one context, whatever the host's speed.  It is
recorded in ``BENCH_checker.json`` as ``frontend.retained_chunks``.

Usable both as a script (``python benchmarks/bench_smoke.py``) and as
a pytest module.
"""

import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.analysis import synthesize_program           # noqa: E402
from repro.obs import Telemetry                          # noqa: E402
from repro.pipeline import CheckSession, split_chunks    # noqa: E402

N_FUNCTIONS_FRONTEND = 160
UNITS = ["region"]

#: Ceiling on (lex + parse) / cold-check wall time.  The pre-optimised
#: front-end sat at ~0.72 on this corpus; the single-pass regex lexer
#: and inlined parser measure 0.53-0.56 on a shared 2-CPU x86-64 host
#: (the fraction is taken as the best of three runs, since scheduling
#: noise can only inflate it).  The ceiling keeps 0.11 of headroom
#: above that, as the previous 0.70 did above 0.59.
FRONTEND_FRACTION_CEILING = 0.66

#: Floor on the chunk-AST hit rate across a one-chunk-edit re-check.
CHUNK_AST_HIT_FLOOR = 0.90

#: Line-insert revisions the retention ratchet checks in one session.
RETENTION_REVISIONS = 10

_BENCH_JSON = os.path.join(os.path.dirname(__file__), os.pardir,
                           "BENCH_checker.json")


def _chunk_ast_counts(session):
    """(hits, misses) of the session's ``cache.chunk_ast`` counters."""
    snapshot = session.telemetry.metrics.snapshot()
    return tuple(snapshot.get(f"cache.chunk_ast.{name}", {}).get("value", 0)
                 for name in ("hits", "misses"))


def test_frontend_ratchet():
    source = synthesize_program(N_FUNCTIONS_FRONTEND, seed=42)

    # Front-end share of a cold check: best of three traced runs (the
    # tracer's span totals are the same data ``--trace`` reports, and
    # timing noise can only push the fraction *up*, so min is the
    # honest estimator of what the front-end actually costs).
    best_fraction = float("inf")
    for _ in range(3):
        telemetry = Telemetry(trace=True)
        session = CheckSession(units=UNITS, telemetry=telemetry)
        start = time.perf_counter()
        session.check(source)
        wall = time.perf_counter() - start
        totals = telemetry.tracer.phase_totals()
        frontend = totals.get("lex", 0.0) + totals.get("parse", 0.0)
        best_fraction = min(best_fraction, frontend / wall)
    print(f"bench-smoke: front-end fraction {best_fraction:.2f} "
          f"(ceiling {FRONTEND_FRACTION_CEILING})")
    assert best_fraction <= FRONTEND_FRACTION_CEILING, \
        f"lex+parse take {best_fraction:.0%} of a cold check " \
        f"(ceiling {FRONTEND_FRACTION_CEILING:.0%})"

    # Chunk-AST reuse across a warm one-chunk-edit re-check.  The edit
    # is what forces the session back through ``_parse`` — a
    # byte-identical warm replay is served from the context cache and
    # never consults the chunk-AST cache at all.
    session = CheckSession(units=UNITS)
    session.check(source)
    needle = "c.value += "
    at = source.index(needle, len(source) // 2)
    end = source.index(";", at)
    edited = source[:at] + "c.value += 4242" + source[end:]
    before = _chunk_ast_counts(session)
    session.check(edited)
    after = _chunk_ast_counts(session)
    hits, misses = (a - b for a, b in zip(after, before))
    rate = hits / (hits + misses) if hits + misses else 0.0
    print(f"bench-smoke: chunk AST {hits} reused / {misses} parsed "
          f"({rate:.1%}) on one-chunk edit")
    assert misses == 1, \
        f"a one-chunk edit re-parsed {misses} chunks, not 1"
    assert rate >= CHUNK_AST_HIT_FLOOR, \
        f"chunk-AST hit rate {rate:.1%} under " \
        f"{CHUNK_AST_HIT_FLOOR:.0%} on a one-chunk edit"

    # A fresh process over a warm --cache DIR (the CI-rebuild shape):
    # only the edited function's body is parsed.
    with tempfile.TemporaryDirectory(prefix="bench-smoke-") as cache_dir:
        CheckSession(units=UNITS, cache_dir=cache_dir).check(source)
        fresh = CheckSession(units=UNITS, cache_dir=cache_dir)
        fresh.check(edited)
    stats = fresh.stats
    print(f"bench-smoke: fresh --cache session parsed {stats.body_parses} "
          f"of {N_FUNCTIONS_FRONTEND} bodies, checked "
          f"{stats.functions_checked} function(s) on one-chunk edit")
    assert stats.body_parses == 1, \
        f"a fresh cached session parsed {stats.body_parses} bodies, not 1"
    assert stats.functions_checked == 1, \
        f"a fresh cached session checked {stats.functions_checked} " \
        f"functions, not 1"
    print("bench-smoke: front-end ratchet   OK")


def test_retention_ratchet():
    # Each revision inserts a blank line further down, so it re-parses
    # every chunk below the insert; none of the parses it replaces may
    # stay held.
    source = synthesize_program(N_FUNCTIONS_FRONTEND, seed=42)
    session = CheckSession(units=UNITS)
    for i in range(RETENTION_REVISIONS):
        lines = source.split("\n")
        at = i * len(lines) // RETENTION_REVISIONS
        source = "\n".join(lines[:at] + [""] + lines[at:])
        session.check(source)
    snapshot = session.telemetry.metrics.snapshot()
    retained = {
        "revisions": RETENTION_REVISIONS,
        "chunks_held": snapshot["session.chunks_held"]["value"],
        "last_revision_chunks": len(split_chunks(source)),
        "contexts_held": sum(state.ctx is not None
                             for state in session._files.values()),
    }
    print(f"bench-smoke: {retained['chunks_held']} chunks and "
          f"{retained['contexts_held']} context(s) held after "
          f"{RETENTION_REVISIONS} line inserts (last revision has "
          f"{retained['last_revision_chunks']} chunks)")
    assert retained["chunks_held"] == retained["last_revision_chunks"], \
        "the session holds chunks of revisions before the last"
    assert retained["contexts_held"] == 1, \
        "the session holds contexts of revisions before the last"

    try:
        with open(_BENCH_JSON, "r", encoding="utf-8") as handle:
            bench = json.load(handle)
    except (OSError, ValueError):
        bench = {}
    bench.setdefault("frontend", {})["retained_chunks"] = retained
    with open(_BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(bench, handle, indent=2)
        handle.write("\n")
    print("bench-smoke: retention ratchet   OK")


if __name__ == "__main__":
    test_frontend_ratchet()
    test_retention_ratchet()
    print("bench-smoke: PASS")
