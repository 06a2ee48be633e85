"""Tests of the end-to-end benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py``.
They check that the oracle can fail, that every failed operation
counts, that inputs are pinned and mixed as stated, that times are
scaled by the host reference, that a layer whose counters are gone
turns into an absent metric instead of a crash, that each workload
runs in a process of its own, and that ``compare.py`` reads spreads
and shifts the way its docstring says.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest
from repro.testing import canonical_stdout

import compare
import workload
import inputs
import oracle
import run


def _violating_program():
    for i in range(50):
        source = inputs.generated(inputs.derive_seed(99, i), "p.vlt")
        if len(source.expected) >= 1:
            return source
    raise AssertionError("no violating program in 50 seeds")


def _cli_stdout(source):
    from repro import check_source
    report = check_source(source.text, source.filename)
    return canonical_stdout(report.ok, report.render(), len(report.errors),
                            source.filename), 0 if report.ok else 1


def _drop_first_diagnostic(stdout):
    lines = stdout.split("\n")
    heads = [i for i, line in enumerate(lines) if ": error [" in line]
    end = heads[1] if len(heads) > 1 else len(lines) - 2
    return "\n".join(lines[:heads[0]] + lines[end:])


@pytest.mark.parametrize("make", ["generated", "synthesized"])
def test_oracle_accepts_the_checker_and_catches_tampering(make):
    if make == "generated":
        source = _violating_program()
    else:
        source = inputs.synthesized(40, 3, "u.vlt")
        assert source.expected, "seed 3 must seed at least one bug"
    stdout, code = _cli_stdout(source)
    assert oracle.verify(source.expected, source.text, source.filename,
                         stdout, code) is None
    dropped = _drop_first_diagnostic(stdout)
    flipped = 1 - code
    for bad_stdout, bad_code in ((dropped, code), (stdout, flipped)):
        result = workload.Run("cold-small", traced=False)
        result.check("tampered", source, bad_stdout, bad_code)
        metrics = result.result()["metrics"]
        assert metrics["fail_ratio"]["value"] > 0


def test_every_failed_operation_counts():
    """Failures under one label are counted one by one; only the first
    message is kept."""
    result = workload.Run("cold-small", traced=False)
    result.count("jobs 1", "exit code 0, expected 1")
    result.count("jobs 1", "flagged set differs")
    result.count("jobs 2", None)
    out = result.result()
    assert (out["attempted"], out["failed"]) == (3, 2)
    assert out["metrics"]["fail_ratio"]["value"] == pytest.approx(2 / 3)
    assert out["failures"] == ["jobs 1: exit code 0, expected 1"]


def test_times_are_scaled_by_the_nearest_host_reference():
    """Each time is scaled by the reference runs just before and just
    after it, or by the in-process reference run just before it: here
    the host runs at half speed for the first two operations, at
    nominal speed around the third, and at half speed for the fourth,
    an in-process one."""
    nominal = workload.HOST_REF_NOMINAL_S
    result = workload.Run("cold-large", traced=False)
    result.refs = [(0.0, 2 * nominal), (10.0, 2 * nominal), (20.0, nominal),
                   (30.0, nominal)]
    result.ops = [(5.0, 0.6, None), (8.0, 0.8, None), (25.0, 0.2, None),
                  (26.0, 0.5, 0.5)]
    result.lines = 9000
    result.rss_mb = [40.0]
    result.setup = [(1.0, 2.0, None), (11.0, 1.5, None), (21.0, 1.2, None)]
    metrics = {k: v["value"] for k, v in result.result()["metrics"].items()}
    assert metrics["latency_p50_ms"] == pytest.approx(275.0)
    assert metrics["setup_s"] == pytest.approx(1.0)
    assert metrics["klines_per_s"] == pytest.approx(9000 / 1.15 / 1000)
    assert metrics["peak_rss_mb"] == 40.0
    assert metrics["host_ref_ms"] == pytest.approx(1.5 * nominal * 1000)


def test_oracle_reads_seeded_bugs_from_the_text():
    text = "\n".join([
        "struct cell { int value; int extra; }",
        "int worker_0(int input) {",
        "    Region.delete(rgn);",
        "    return result;",
        "}",
        "int worker_1(int input) {",
        "    return result;",
        "}",
        "int worker_2(int input) {",
        "    Region.delete(rgn);",
        "    result = result + c.value;",
        "}",
        "int worker_3(int input) {",
        "    Region.delete(rgn);",
        "    Region.delete(rgn);",
        "}"])
    assert oracle.expected_from_text(text) == {"worker_1", "worker_2",
                                               "worker_3"}


def test_edits_keep_the_answer_known():
    editor = inputs.UnitEditor(inputs.synthesized(30, 5, "u.vlt").text,
                               "u.vlt", random.Random(1))
    from repro import check_source
    for kind in ("body", "shift", "iface", "iface", "resave"):
        source = editor.edit(kind)
        report = check_source(source.text, source.filename)
        stdout = canonical_stdout(report.ok, report.render(),
                                  len(report.errors), source.filename)
        assert oracle.verify(source.expected, source.text, source.filename,
                             stdout, 0 if report.ok else 1) is None, kind


def test_inputs_are_deterministic_and_pinned(monkeypatch, tmp_path):
    digest = inputs.inputs_sha256("cold-small", run.DEFAULT_SEED)
    assert digest == inputs.inputs_sha256("cold-small", run.DEFAULT_SEED)
    with open(workload.PINNED, encoding="utf-8") as handle:
        pinned = json.load(handle)
    assert pinned["seed"] == run.DEFAULT_SEED
    assert pinned["workloads"]["cold-small"] == digest
    assert workload.check_pinned("cold-small", run.DEFAULT_SEED,
                                 digest) is None
    assert "changed" in workload.check_pinned("cold-small", run.DEFAULT_SEED,
                                              "0" * 64)
    assert workload.check_pinned("cold-small", run.HELD_OUT_SEED,
                                 "0" * 64) is None


def test_each_run_has_the_stated_count_and_mix():
    counts = {}
    for source in inputs.stream("ci-rebuild", 3):
        counts[source.kind] = counts.get(source.kind, 0) + 1
    assert counts == {"new": 1, "body": 11, "shift": 3, "iface": 2}
    kinds = inputs.exact_mix(random.Random(1), inputs.EDIT_LOOP_MIX, 80)
    assert {k: kinds.count(k) for k in set(kinds)} == {
        "body": 48, "shift": 20, "resave": 8, "iface": 4}
    requests = inputs.DaemonLoad(3).schedule()
    assert [r.due for r in requests if r.kind == "large"] == [
        2.0, 6.0, 10.0, 14.0, 18.0]
    kinds = [r.kind for r in requests if r.kind != "large"]
    assert {k: kinds.count(k) for k in set(kinds)} == {
        "replay": 240, "edit": 120, "new": 40}


def test_the_revision_plan_is_the_same_for_every_seed():
    a = list(inputs.stream("ci-rebuild", 3))
    b = list(inputs.stream("ci-rebuild", 4))
    assert [s.kind for s in a] == [s.kind for s in b]
    assert a[0].text != b[0].text

    def shifted(sources):
        """The function each line insert went into, by position."""
        heads = []
        for before, after in zip(sources, sources[1:]):
            if after.kind == "shift":
                old, new = before.text.split("\n"), after.text.split("\n")
                line = next(i for i, pair in enumerate(zip(old, new))
                            if pair[0] != pair[1])
                heads.append(sum(1 for text in new[:line]
                                 if text.startswith("int worker_")))
        return heads

    assert shifted(a) == shifted(b)


class _StatsWithoutFrontEndCaches:
    """``SessionStats`` as it would look with relex and the token cache
    deleted."""

    def __init__(self, real):
        self._real = real

    @property
    def chunk_parses(self):
        return self._real.chunk_parses

    @property
    def functions_checked(self):
        return self._real.functions_checked


def test_missing_layer_counters_become_absent_metrics(monkeypatch, tmp_path):
    """A tiny edit loop whose session has lost its relex and token
    counters still runs, and names those metrics absent."""
    from repro import pipeline
    real_session = pipeline.CheckSession

    class Session:
        def __init__(self):
            self._real = real_session()
            self.stats = _StatsWithoutFrontEndCaches(self._real.stats)

        def check(self, source, filename):
            return self._real.check(source, filename)

    monkeypatch.setattr(pipeline, "CheckSession", Session)
    monkeypatch.setattr(inputs, "LARGE_FUNCTIONS", 12)
    monkeypatch.setitem(inputs.COUNTS, "edit-loop", 8)
    monkeypatch.setattr(workload, "REPLAYS", 1)
    monkeypatch.setattr(workload, "SETUP_REPEATS", 1)
    monkeypatch.setenv("PYTHONPATH", os.path.join(run.ROOT, "src"))
    result = workload.Run("edit-loop", traced=True)
    workload.edit_loop(result, str(tmp_path), inputs.stream("edit-loop", 5))
    out = result.result()
    assert out["failed"] == 0, out["failures"]
    layers = out["layers"]
    assert layers["pipeline.relex_splices"]["value"] is None
    assert "relex" in layers["pipeline.relex_splices"]["absent"]
    assert layers["pipeline.token_hit_ratio"]["value"] is None
    assert layers["pipeline.edit_ms.body"]["value"] > 0
    assert layers["syntax.parse_ms"]["value"] > 0
    assert layers["server.wire_ms"]["absent"].startswith("layer not exercised")


def _stub_workload(tmp_path):
    """A workload script that records its pid and a module-level flag,
    and fails for one workload."""
    script = tmp_path / "stub_workload.py"
    script.write_text(
        "import json, os, sys\n"
        "args = dict(zip(sys.argv[1::2], sys.argv[2::2]))\n"
        "if args['--workload'] == 'cold-large':\n"
        "    sys.exit(5)\n"
        "seen = 'stub_state' in sys.modules\n"
        "sys.modules['stub_state'] = sys\n"
        "json.dump({'workload': args['--workload'], 'attempted': 1,\n"
        "           'failed': 0, 'failures': [],\n"
        "           'metrics': {'latency_p50_ms': {'value': os.getpid(),\n"
        "                                          'unit': 'ms'},\n"
        "                       'n': {'value': int(seen), 'unit': 'count'}}},\n"
        "          open(args['--result'], 'w'))\n")
    return str(script)


def test_each_workload_runs_in_its_own_process(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SCRIPT", _stub_workload(tmp_path))
    env = run.bench_env()
    results = {w: run.measure(w, 1, False, env,
                                      float("inf"))
               for w in run.WORKLOADS}
    assert "error" in results["cold-large"]
    ok = [r for w, r in results.items() if w != "cold-large"]
    assert len({r["metrics"]["latency_p50_ms"]["value"] for r in ok}) == 4
    assert all(r["metrics"]["n"]["value"] == 0 for r in ok)


def test_run_refuses_without_sources(tmp_path):
    """In a directory holding only the benchmark, run.py exits non-zero
    and prints no result."""
    bench = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(run.HERE, bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, str(bench / "run.py"),
                           "--workload", "cold-small", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts():
    same = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    assert compare.verdict(same, same[::-1], "lower", 0.1, False)[0] \
        == "unchanged"
    slower = [v * 1.3 for v in same]
    assert compare.verdict(same, slower, "lower", 0.1, False)[0] == "worse"
    faster = [v * 0.8 for v in same]
    assert compare.verdict(same, faster, "lower", 0.1, False)[0] == "better"
    assert compare.verdict(same[:3], faster[:3], "lower", 0.1, False)[0] \
        == "unchanged"
    wide = [60.0, 140.0, 100.0, 70.0, 130.0]
    assert compare.verdict(wide, wide[::-1], "lower", 0.1, False)[0] \
        == "unresolved"
    assert compare.verdict([0.9, 0.91, 0.9], [0.85, 0.86, 0.85], "higher",
                           0.02, True)[0] == "worse"


def test_trace_file_is_chrome_trace_json(tmp_path):
    spans = workload.Spans(enabled=True)
    parent = spans.add("op.new", 1.0, 1.5, 0)
    spans.add("syntax.parse", 1.1, 1.2, 0, parent)
    path = tmp_path / "trace.json"
    run.write_trace(str(path), {"cold-small": {
        "events": spans.events,
        "layers": {"syntax.parse_ms": {"value": 100.0, "unit": "ms"}}}}, 1)
    trace = json.loads(path.read_text())
    complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in complete] == ["op.new", "syntax.parse"]
    assert complete[1]["args"]["parent"] == complete[0]["args"]["id"]
    assert all({"ts", "dur", "pid", "tid"} <= set(e) for e in complete)
    assert trace["otherData"]["layers"]["cold-small"]["syntax.parse_ms"]
