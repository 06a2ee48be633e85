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

The elaboration ratchet makes body edits and inserts blank lines inside
bodies of the same unit in one session: neither changes a signature or
a declaration, so none of those checks may run ``build_context`` (the
``cache.context.misses`` counter).  The count is recorded as
``frontend.elaborations`` and must be 0.

The splice ratchet makes a one-constant body edit of a 640-function
unit in a warm session: the splitter may re-scan at most 2 chunks,
each of which the session parses (the ``cache.chunk_ast.misses``
counter), and the session may fingerprint
(the ``check.fingerprints`` counter) and flow-check one function;
every other function is served from its held result.  It is recorded as
``frontend.rescanned_chunks``.

The unit-replay ratchet re-saves the 160-function unit with one module
appended in a warm session: every function, the module's member
included, must be served from its held result (``cache.unit_replay.hits``
equals the function count) and no fingerprint computed.  It is
recorded as ``frontend.unit_replay``.

The summary ratchet makes body edits of the 160-function unit in one
session: afterwards the session must hold exactly the last revision's
summaries, one per function, not one more for each edit.  It is
recorded as ``frontend.summaries_held``.

The body-edit scaling ratchet counts the Python and C calls
(``sys.setprofile`` ``call`` and ``c_call`` events) of one warm
one-constant body edit of the 160-function unit and of the
640-function unit.  The counts are deterministic, and a body edit
should cost what it changed, not what the unit holds: the 640-function
count may be at most 1.2 times the 160-function one.  Both are
recorded as ``frontend.body_edit_events``.

The body-edit render ratchet counts the same events for the same edit
of a unit with seeded bugs (``error_rate=0.1``), over ``check`` plus
``render()`` of a session that rendered its warm check: a save renders
the functions it answered, not every diagnostic of the unit, so the
640-function count may be at most 1.2 times the 160-function one.
Both are recorded as ``frontend.body_edit_render_events``.

The same events of a warm save that inserts a blank line at line 20
of the seeded unit, rendered, are recorded without a gate as
``frontend.line_insert_events``: every chunk below the line moves and
is parsed again, so today the count grows with the unit.

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

#: Body edits (each followed by a blank line inside the same body) the
#: elaboration ratchet checks in one session.
ELABORATION_EDITS = 10

#: Body edits the summary ratchet checks in one session.
SUMMARY_EDITS = 10

#: The unit the splice ratchet edits, and its ceiling on the chunks a
#: one-constant body edit re-scans.
N_FUNCTIONS_SPLICE = 640
RESCANNED_CHUNKS_CEILING = 2

#: Ceiling on the body-edit scaling ratchet's ratio of profiler events
#: (640 functions over 160).  Work that grows with the unit (a walk
#: over every chunk or function per save) read 2.17.
BODY_EDIT_EVENTS_RATIO_CEILING = 1.2

#: The module the unit-replay ratchet appends: one member function.
MODULE = """
interface COUNTER {
    int bump(int x);
}
module Counter : COUNTER {
    int bump(int x) {
        return x + 1;
    }
}
"""

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
    record = fresh.last
    print(f"bench-smoke: fresh --cache session parsed "
          f"{record.bodies_parsed} of {N_FUNCTIONS_FRONTEND} bodies, "
          f"checked {record.functions_checked} function(s) on one-chunk "
          f"edit")
    assert record.bodies_parsed == 1, \
        f"a fresh cached session parsed {record.bodies_parsed} bodies, " \
        f"not 1"
    assert record.functions_checked == 1, \
        f"a fresh cached session checked {record.functions_checked} " \
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

    _record("retained_chunks", retained)
    print("bench-smoke: retention ratchet   OK")


def test_elaboration_ratchet():
    # A body edit and a blank line inside a body leave every signature
    # and declaration as it was: the held context serves both.
    source = synthesize_program(N_FUNCTIONS_FRONTEND, seed=42)
    session = CheckSession(units=UNITS)
    session.check(source)
    before = _context_misses(session)
    for i in range(ELABORATION_EDITS):
        at = source.index("c.value += ", i * len(source) // ELABORATION_EDITS)
        end = source.index(";", at)
        source = source[:at] + f"c.value += {4200 + i}" + source[end:]
        session.check(source)
        at = source.index("\n", at) + 1          # still in the same body
        source = source[:at] + "\n" + source[at:]
        session.check(source)
    elaborations = _context_misses(session) - before
    print(f"bench-smoke: {elaborations} elaboration(s) over "
          f"{ELABORATION_EDITS} body edits and {ELABORATION_EDITS} "
          f"in-body blank lines")
    assert elaborations == 0, \
        f"edits that keep the interface ran build_context {elaborations} " \
        f"time(s)"
    _record("elaborations", elaborations)
    print("bench-smoke: elaboration ratchet OK")


def test_splice_ratchet():
    # A body edit re-scans the edited chunk, fingerprints and checks
    # the edited function, and nothing else.
    source = synthesize_program(N_FUNCTIONS_SPLICE, seed=42)
    session = CheckSession(units=UNITS)
    session.check(source)
    edited = _one_constant(source)
    before = _counters(session)
    session.check(edited)
    after = _counters(session)
    rescanned = {
        "functions": N_FUNCTIONS_SPLICE,
        "rescanned": after["cache.chunk_ast.misses"]
        - before["cache.chunk_ast.misses"],
        "fingerprinted": after["check.fingerprints"]
        - before["check.fingerprints"],
        "checked": session.last.functions_checked,
    }
    print(f"bench-smoke: a body edit of {N_FUNCTIONS_SPLICE} functions "
          f"re-scanned {rescanned['rescanned']} chunk(s), fingerprinted "
          f"{rescanned['fingerprinted']} and checked "
          f"{rescanned['checked']} function(s)")
    assert rescanned["rescanned"] <= RESCANNED_CHUNKS_CEILING, \
        f"a body edit re-scanned {rescanned['rescanned']} chunks " \
        f"(ceiling {RESCANNED_CHUNKS_CEILING})"
    assert rescanned["fingerprinted"] == 1, \
        f"a body edit fingerprinted {rescanned['fingerprinted']} functions"
    assert rescanned["checked"] == 1, \
        f"a body edit checked {rescanned['checked']} functions"
    _record("rescanned_chunks", rescanned)
    print("bench-smoke: splice ratchet      OK")


def test_unit_replay_ratchet():
    # A re-save changes nothing: every function, module members too,
    # is served from its held result.
    source = synthesize_program(N_FUNCTIONS_FRONTEND, seed=42) + MODULE
    session = CheckSession(units=UNITS)
    session.check(source)
    functions = session.last.functions_checked
    before = _counters(session)
    session.check(source)
    after = _counters(session)
    replay = {
        "functions": functions,
        "served": after["cache.unit_replay.hits"]
        - before["cache.unit_replay.hits"],
        "fingerprinted": after["check.fingerprints"]
        - before["check.fingerprints"],
    }
    print(f"bench-smoke: a re-save of {functions} functions (one module "
          f"member) served {replay['served']}, fingerprinted "
          f"{replay['fingerprinted']}")
    assert functions == N_FUNCTIONS_FRONTEND + 1, \
        f"the unit has {functions} functions, not {N_FUNCTIONS_FRONTEND + 1}"
    assert replay["served"] == functions, \
        f"a re-save served {replay['served']} of {functions} functions"
    assert replay["fingerprinted"] == 0, \
        f"a re-save fingerprinted {replay['fingerprinted']} functions"
    _record("unit_replay", replay)
    print("bench-smoke: unit-replay ratchet OK")


def test_summary_ratchet():
    # Each body edit supersedes one function's summary; the session
    # keeps only the summaries of the revision it checked last.
    source = synthesize_program(N_FUNCTIONS_FRONTEND, seed=42)
    session = CheckSession(units=UNITS)
    session.check(source)
    for i in range(SUMMARY_EDITS):
        at = source.index("c.value += ", i * len(source) // SUMMARY_EDITS)
        end = source.index(";", at)
        source = source[:at] + f"c.value += {4200 + i}" + source[end:]
        session.check(source)
    last = CheckSession(units=UNITS)
    last.check(source)
    held = {
        "edits": SUMMARY_EDITS,
        "summaries_held": _summaries_held(session),
        "last_revision_summaries": _summaries_held(last),
    }
    print(f"bench-smoke: {held['summaries_held']} summaries held after "
          f"{SUMMARY_EDITS} body edits (last revision has "
          f"{held['last_revision_summaries']})")
    assert held["last_revision_summaries"] == N_FUNCTIONS_FRONTEND, \
        f"the last revision has {held['last_revision_summaries']} " \
        f"summaries, not {N_FUNCTIONS_FRONTEND}"
    assert held["summaries_held"] == held["last_revision_summaries"], \
        "the session holds summaries of revisions before the last"
    _record("summaries_held", held)
    print("bench-smoke: summary ratchet     OK")


def test_body_edit_scaling_ratchet():
    # The same edit as the splice ratchet's, at two unit sizes.
    events = {str(n): _body_edit_events(n)
              for n in (N_FUNCTIONS_FRONTEND, N_FUNCTIONS_SPLICE)}
    ratio = events[str(N_FUNCTIONS_SPLICE)] / events[str(N_FUNCTIONS_FRONTEND)]
    print(f"bench-smoke: a body edit makes {events[str(N_FUNCTIONS_FRONTEND)]}"
          f" calls at {N_FUNCTIONS_FRONTEND} functions and "
          f"{events[str(N_FUNCTIONS_SPLICE)]} at {N_FUNCTIONS_SPLICE} "
          f"({ratio:.2f}x)")
    assert ratio <= BODY_EDIT_EVENTS_RATIO_CEILING, \
        f"a body edit of {N_FUNCTIONS_SPLICE} functions makes {ratio:.2f}x " \
        f"the calls of {N_FUNCTIONS_FRONTEND} (ceiling " \
        f"{BODY_EDIT_EVENTS_RATIO_CEILING})"
    _record("body_edit_events", events)
    print("bench-smoke: body-edit ratchet   OK")


def test_body_edit_render_ratchet():
    # The scaling ratchet's edit on a unit with diagnostics, rendered.
    events = {str(n): _body_edit_events(n, error_rate=0.1, render=True)
              for n in (N_FUNCTIONS_FRONTEND, N_FUNCTIONS_SPLICE)}
    ratio = events[str(N_FUNCTIONS_SPLICE)] / events[str(N_FUNCTIONS_FRONTEND)]
    print(f"bench-smoke: a rendered body edit makes "
          f"{events[str(N_FUNCTIONS_FRONTEND)]} calls at "
          f"{N_FUNCTIONS_FRONTEND} functions and "
          f"{events[str(N_FUNCTIONS_SPLICE)]} at {N_FUNCTIONS_SPLICE} "
          f"({ratio:.2f}x)")
    assert ratio <= BODY_EDIT_EVENTS_RATIO_CEILING, \
        f"a rendered body edit of {N_FUNCTIONS_SPLICE} functions makes " \
        f"{ratio:.2f}x the calls of {N_FUNCTIONS_FRONTEND} (ceiling " \
        f"{BODY_EDIT_EVENTS_RATIO_CEILING})"
    _record("body_edit_render_events", events)
    print("bench-smoke: render ratchet      OK")


def test_line_insert_events():
    # Recorded, not gated: the baseline a line-insert ratchet will bound.
    events = {str(n): _body_edit_events(n, error_rate=0.1, render=True,
                                        edit=_blank_line_20)
              for n in (N_FUNCTIONS_FRONTEND, N_FUNCTIONS_SPLICE)}
    ratio = events[str(N_FUNCTIONS_SPLICE)] / events[str(N_FUNCTIONS_FRONTEND)]
    print(f"bench-smoke: a rendered blank line at line 20 makes "
          f"{events[str(N_FUNCTIONS_FRONTEND)]} calls at "
          f"{N_FUNCTIONS_FRONTEND} functions and "
          f"{events[str(N_FUNCTIONS_SPLICE)]} at {N_FUNCTIONS_SPLICE} "
          f"({ratio:.2f}x, not gated)")
    _record("line_insert_events", events)


def _one_constant(source):
    """A one-constant body edit in the middle of ``source``."""
    at = source.index("c.value += ", len(source) // 2)
    end = source.index(";", at)
    return source[:at] + "c.value += 4242" + source[end:]


def _blank_line_20(source):
    """``source`` with a blank line inserted as its line 20."""
    lines = source.split("\n")
    return "\n".join(lines[:19] + [""] + lines[19:])


def _body_edit_events(n, error_rate=0.0, render=False, edit=_one_constant):
    """The ``call`` and ``c_call`` profiler events of one warm save of
    an ``n``-function unit, a one-constant body edit unless ``edit``
    says otherwise: its ``check``, and with ``render`` its ``render()``
    too (the warm check's report is rendered as well, as an editor's
    save is)."""
    source = synthesize_program(n, seed=42, error_rate=error_rate)
    session = CheckSession(units=UNITS)
    report = session.check(source)
    if render:
        report.render()
    edited = edit(source)
    count = [0]

    def profile(frame, event, arg):
        if event == "call" or event == "c_call":
            count[0] += 1
    sys.setprofile(profile)
    try:
        report = session.check(edited)
        if render:
            report.render()
    finally:
        sys.setprofile(None)
    return count[0]


def _summaries_held(session):
    """The function summaries ``session`` holds over all its files."""
    return sum(len(state.summaries) for state in session._files.values())


def _counters(session):
    """The session's registry counters by name (0 when absent)."""
    snapshot = session.telemetry.metrics.snapshot()
    return {name: snapshot.get(name, {}).get("value", 0)
            for name in ("cache.chunk_ast.misses",
                         "check.fingerprints",
                         "cache.unit_replay.hits")}


def _context_misses(session):
    snapshot = session.telemetry.metrics.snapshot()
    return snapshot.get("cache.context.misses", {}).get("value", 0)


def _record(row, value):
    """Write ``value`` as row ``row`` of ``BENCH_checker.json``'s
    ``frontend`` block, keeping everything else in the file."""
    try:
        with open(_BENCH_JSON, "r", encoding="utf-8") as handle:
            bench = json.load(handle)
    except (OSError, ValueError):
        bench = {}
    bench.setdefault("frontend", {})[row] = value
    with open(_BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(bench, handle, indent=2)
        handle.write("\n")


if __name__ == "__main__":
    test_frontend_ratchet()
    test_retention_ratchet()
    test_elaboration_ratchet()
    test_splice_ratchet()
    test_unit_replay_ratchet()
    test_summary_ratchet()
    test_body_edit_scaling_ratchet()
    test_body_edit_render_ratchet()
    test_line_insert_events()
    print("bench-smoke: PASS")
