"""The ``make trace-smoke`` gate: --trace output must stay loadable.

Runs ``vaultc check --trace`` over the examples corpus (every ``.vlt``
under ``examples/``) plus a synthesized workload, then schema-checks
each trace file:

* every event carries the required Chrome trace-event keys
  (``name``/``ph``/``ts``/``pid``), a known phase, and a non-negative
  duration — the same validation ``chrome://tracing`` and Perfetto
  rely on to load the file at all;
* the synthesized trace has one ``check_function`` span per function,
  all on the one track of the checking process.

Exits non-zero on any violation.  Usable both as a script and as a
pytest module.
"""

import glob
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.analysis import synthesize_program            # noqa: E402
from repro.cli import main as vaultc                     # noqa: E402
from repro.obs import validate_chrome_trace              # noqa: E402

_EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")

#: synthesized workload size: small enough to keep the gate under a
#: second.
N_FUNCTIONS = 24


def _check_traced(path: str, extra_args=()) -> dict:
    """Run ``vaultc check --trace`` on ``path``; return the trace."""
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = os.path.join(tmp, "trace.json")
        rc = vaultc(["check", path, "--trace", trace_path, *extra_args])
        assert rc in (0, 1), f"vaultc check {path} exited {rc}"
        with open(trace_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    problems = validate_chrome_trace(payload)
    assert not problems, \
        f"{path}: trace schema violations: {problems}"
    events = payload["traceEvents"]
    assert any(e.get("ph") == "X" for e in events), \
        f"{path}: trace contains no spans"
    names = {e["name"] for e in events}
    for required in ("check_unit", "lex", "parse"):
        assert required in names, f"{path}: missing {required!r} span"
    return payload


def test_examples_corpus_traces():
    corpus = sorted(glob.glob(os.path.join(_EXAMPLES, "*.vlt")))
    assert corpus, f"no .vlt files under {_EXAMPLES}"
    for path in corpus:
        _check_traced(path)
        print(f"trace-smoke: {os.path.basename(path)}   OK")


def test_synthesized_trace_spans_every_function():
    with tempfile.TemporaryDirectory() as tmp:
        source_path = os.path.join(tmp, "synth.vlt")
        with open(source_path, "w", encoding="utf-8") as handle:
            handle.write(synthesize_program(N_FUNCTIONS, seed=17))
        payload = _check_traced(source_path)
    pids = {e["pid"] for e in payload["traceEvents"]}
    assert len(pids) == 1, f"expected one track, saw pids {sorted(pids)}"
    checked = [e for e in payload["traceEvents"]
               if e["name"] == "check_function"]
    assert len(checked) == N_FUNCTIONS, \
        f"expected {N_FUNCTIONS} check_function spans, saw {len(checked)}"
    print(f"trace-smoke: {N_FUNCTIONS} check_function spans on one "
          f"track   OK")


if __name__ == "__main__":
    test_examples_corpus_traces()
    test_synthesized_trace_spans_every_function()
    print("trace-smoke: PASS")
