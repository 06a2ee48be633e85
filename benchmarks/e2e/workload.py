"""Measure one workload in this fresh process.

``run.py`` starts one such process per workload, so no process-global
state (the AST pool, the type intern table, the stdlib base context)
leaks from one workload into another::

    python workload.py --workload NAME --seed S --trace 0|1 --result FILE

It makes the workload's inputs from the seed, runs its set-up
``SETUP_REPEATS`` times, then runs the workload's fixed number of
operations, checks every answer against the oracle, and writes a JSON
result.  Between operations it runs the host reference job
(``hostref.py``) the way the operations run, in a fresh process or in
this one, and scales each time it measures by the reference's nominal
time over its measured time, so that the host's changing speed does
not show as a change of the program.
With ``--trace 1`` it runs the same inputs with spans recorded around
each call into a layer and adds the layer metrics and the spans.

The program is reached only through ``vaultc check``, ``vaultc serve``,
``CheckSession.check``, ``SessionStats``, ``DaemonClient`` and the
check reply.  Fields of ``SessionStats`` and of replies are read with
defaults: a layer a later change deletes makes its metric absent, with
the reason, instead of breaking the run.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostref  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
from repro.testing import canonical_stdout  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
HOSTREF = os.path.join(HERE, "hostref.py")
PINNED = os.path.join(HERE, "inputs_sha256.json")
SETUP_REPEATS = 3
#: the reference job's time, in a fresh process and as a call in this
#: one, on a host of nominal speed: reported times read as if measured
#: there.  The two were measured side by side on the reference host.
HOST_REF_NOMINAL_S = 0.100
IN_PROCESS_REF_NOMINAL_S = 0.022
#: fresh-process workloads: one reference run after every this many
#: operations (and after each set-up).
REF_EVERY = {"cold-small": 4, "cold-large": 1, "ci-rebuild": 1}
#: daemon-mixed: reference runs after each set-up; the load then runs
#: on the host speed they measured.
REFS_PER_SETUP = 3
#: outputs, spread over the run, compared byte for byte with in-process
#: ``check_source`` after all timing.
BYTE_SAMPLES = {"cold-small": 8, "cold-large": 1, "ci-rebuild": 1,
                "edit-loop": 1, "daemon-mixed": 6}
#: the workloads whose results report source lines per second.
KLINES_WORKLOADS = ("cold-large", "ci-rebuild")
#: fresh-process replays that give the workloads whose operations are
#: not ``check_source`` processes their front-end and checker times.
REPLAYS = 3
WITHIN_LIMIT_S = 0.250
HEALTH_PERIOD_S = 0.1
#: one-function edits per child when timing telemetry's overhead.
EDITS = 5
#: a ``health`` round trip longer than this waited behind a check.
BLOCKED_MS = 10.0
CHILD_TIMEOUT_S = 120.0

#: the layers a fresh-process replay times, in call order.
PHASES = ("interp.start", "import.cli", "stdlib.base", "syntax.lex",
          "syntax.parse", "core.elaborate", "core.check",
          "diagnostics.render", "interp.exit")
EDIT_KINDS = ("body", "shift", "iface", "resave")
SERVICE_KINDS = ("replay", "edit", "new", "large")

#: every layer metric the benchmark knows, so a traced run names each
#: one, with a value or with the reason it is absent.
LAYER_METRICS = (
    [p + "_ms" for p in PHASES]
    + ["import.repro_modules", "syntax.tokens", "core.check_share",
       "other_ms", "pipeline.split_ms"]
    + [f"pipeline.{m}.{k}" for k in EDIT_KINDS
       for m in ("edit_ms", "chunk_parses", "functions_checked",
                 "reparse_precision", "recheck_precision")]
    + ["pipeline.token_hit_ratio", "pipeline.relex_splices",
       "pipeline.cache_open_ms", "pipeline.cache_file_kb",
       "pipeline.pool_speedup", "pipeline.jobs_bound",
       "server.ready_s", "server.ping_ms"]
    + [f"server.service_ms.{k}" for k in SERVICE_KINDS]
    + ["server.wire_ms", "server.queue_ms_p90",
       "server.control_blocked_ratio", "obs.metrics_overhead.cold",
       "obs.metrics_overhead.edit", "bench.sender_late_p90_ms"])


def unit_of(name: str) -> str:
    """The unit of any metric the benchmark reports, from its name."""
    fixed = {"klines_per_s": "klines/s", "peak_rss_mb": "MB",
             "setup_s": "s", "server.ready_s": "s",
             "pipeline.cache_file_kb": "kB"}
    if name in fixed:
        return fixed[name]
    if name.endswith("_ms") or "_ms." in name or "_ms_" in name:
        return "ms"
    if any(word in name for word in ("ratio", "share", "precision",
                                      "speedup", "bound", "overhead")):
        return "ratio"
    return "count"


def median(values: Iterable) -> Optional[float]:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def p90(values: Iterable) -> Optional[float]:
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return values[0] if values else None
    return statistics.quantiles(values, n=10)[8]


def field(obj, name: str):
    """A counter or reply field, or ``None`` when the layer behind it
    is gone."""
    if isinstance(obj, dict):
        return obj.get(name)
    return getattr(obj, name, None)


# ---------------------------------------------------------------------------
# spans and results
# ---------------------------------------------------------------------------

class Spans:
    """Spans recorded around calls into each layer, kept in memory and
    written at exit as Chrome-trace events.  Each carries its name,
    start, end, parent span and operation id."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.events: List[dict] = []

    def add(self, name: str, start: float, end: float, op: int,
            parent: int = 0, tid: int = 0, **args) -> int:
        if not self.enabled:
            return 0
        span_id = len(self.events) + 1
        self.events.append({
            "name": name, "cat": name.split(".")[0], "ph": "X",
            "ts": round(start * 1e6, 1), "dur": round((end - start) * 1e6, 1),
            "pid": os.getpid(), "tid": tid,
            "args": dict(args, id=span_id, parent=parent, op=op)})
        return span_id


class Run:
    """Everything one pass of a workload measured.  Reference runs are
    kept as ``(end time, seconds)``; operations and set-ups as ``(end
    time, seconds, host factor)``, where the factor is ``None`` when the
    reference runs around them give it."""

    def __init__(self, workload: str, traced: bool):
        self.workload = workload
        self.traced = traced
        self.spans = Spans(traced)
        self.ops: List[Tuple[float, float, Optional[float]]] = []
        self.lines = 0
        self.attempted = 0
        self.failed = 0
        #: the first failure message of each label.
        self.failures: Dict[str, str] = {}
        self.setup: List[Tuple[float, float, Optional[float]]] = []
        self.refs: List[Tuple[float, float]] = []
        self.in_process_refs: List[float] = []
        #: when set, the host factor of every time in the run.
        self.fixed_factor: Optional[float] = None
        self.rss_mb: List[float] = []
        self.sample_at = frozenset()
        self.samples: List[tuple] = []
        self.metrics: Dict[str, Optional[float]] = {}
        self.layers: Dict[str, Optional[float]] = {}
        self.absent: Dict[str, str] = {}

    def count(self, label: str, failure: Optional[str]) -> None:
        """Count one answer; ``failure`` says why it is wrong."""
        self.attempted += 1
        if failure:
            self.failed += 1
            self.failures.setdefault(label, failure)

    def check(self, label: str, source: inputs.Source, stdout: str,
              code: int) -> Optional[str]:
        """Check one answer against the oracle and count it."""
        failure = oracle.verify(source.expected, source.text,
                                source.filename, stdout, code)
        self.count(label, failure)
        return failure

    def measured(self, index: int, label: str, source: inputs.Source,
                 latency: float, stdout: Optional[str],
                 factor: Optional[float] = None) -> None:
        """Add one measured, already counted operation that just ended;
        ``stdout`` is ``None`` when its answer was wrong."""
        self.ops.append((time.monotonic(), latency, factor))
        self.lines += source.lines
        if stdout is not None and index in self.sample_at:
            self.samples.append((label, source, stdout))

    def compare_samples(self) -> None:
        """Byte-compare sampled outputs with in-process ``check_source``
        (after all timing, so it warms nothing that was measured).  A
        mismatch fails an operation the oracle had passed."""
        from repro import check_source
        for label, source, stdout in self.samples:
            report = check_source(source.text, source.filename)
            if stdout != canonical_stdout(report.ok, report.render(),
                                          len(report.errors),
                                          source.filename):
                self.failed += 1
                self.failures.setdefault(
                    label, "stdout differs from in-process check_source")
        self.samples = []

    def host_factor(self, at: Optional[float] = None) -> float:
        """Nominal over measured host speed, unless ``fixed_factor`` is
        set: the scale of a time that ended at ``at``, from the
        fresh-process reference runs just before and just after it, or
        of the whole run when ``at`` is ``None``, from its fresh-process
        reference runs or, when it has none, its in-process ones."""
        if self.fixed_factor is not None:
            return self.fixed_factor
        if at is None and not self.refs and self.in_process_refs:
            return IN_PROCESS_REF_NOMINAL_S / median(self.in_process_refs)
        if not self.refs:
            raise RuntimeError(f"{self.workload} ran no host reference job")
        if at is None:
            near = [seconds for _, seconds in self.refs]
        else:
            near = [seconds for end, seconds in self.refs if end <= at][-1:] \
                + [seconds for end, seconds in self.refs if end > at][:1]
        return HOST_REF_NOMINAL_S / statistics.median(near)

    def normalized(self, timed: List[Tuple[float, float, Optional[float]]]
                   ) -> List[float]:
        """Each ``(end time, seconds, factor)`` as seconds on a nominal
        host."""
        return [seconds * (self.host_factor(end) if factor is None
                           else factor)
                for end, seconds, factor in timed]

    def in_process_reference(self) -> float:
        """Run the reference job's work in this thread; the host factor
        for the operation that follows it here."""
        start = time.monotonic()
        hostref.main()
        end = time.monotonic()
        self.in_process_refs.append(end - start)
        self.spans.add("bench.host_ref", start, end, -1)
        return IN_PROCESS_REF_NOMINAL_S / (end - start)

    def result(self) -> dict:
        latencies = self.normalized(self.ops)
        metrics = {
            "latency_p50_ms": median(latencies) * 1000 if latencies else None,
            "peak_rss_mb": median(self.rss_mb),
            "setup_s": median(self.normalized(self.setup)),
            "fail_ratio": self.failed / max(1, self.attempted),
            "n": len(latencies),
        }
        if self.workload in KLINES_WORKLOADS and latencies:
            metrics["klines_per_s"] = self.lines / sum(latencies) / 1000
        if len(latencies) >= 100:
            metrics["latency_p90_ms"] = p90(latencies) * 1000
        metrics.update(self.metrics)
        if self.refs:
            metrics["host_ref_ms"] = median(s for _, s in self.refs) * 1000
        if self.in_process_refs:
            metrics["host_ref_in_process_ms"] = \
                median(self.in_process_refs) * 1000
        out = {"workload": self.workload,
               "attempted": self.attempted,
               "failed": self.failed,
               "failures": [f"{label}: {why}" for label, why
                            in list(self.failures.items())[:10]],
               "metrics": {k: {"value": v, "unit": unit_of(k)}
                           for k, v in metrics.items() if v is not None}}
        if self.traced:
            out["layers"] = {}
            for name in LAYER_METRICS:
                value = self.layers.get(name)
                if value is not None and unit_of(name) in ("ms", "s"):
                    value *= self.host_factor()
                entry = {"value": value, "unit": unit_of(name)}
                if value is None:
                    entry["absent"] = self.absent.get(
                        name, f"layer not exercised by {self.workload}")
                out["layers"][name] = entry
            out["events"] = self.spans.events
        return out


# ---------------------------------------------------------------------------
# fresh processes
# ---------------------------------------------------------------------------

class Child:
    """A finished child process; ``hwm_kb`` is its peak RSS, when it
    reported one (``hwm/sitecustomize.py``)."""

    def __init__(self, start, end, code, stdout, stderr, hwm_kb):
        self.start, self.end, self.code = start, end, code
        self.stdout, self.stderr, self.hwm_kb = stdout, stderr, hwm_kb

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def report(self) -> dict:
        """The traced child's timing record (last line of stderr)."""
        try:
            return json.loads(self.stderr.strip().rsplit("\n", 1)[-1])
        except (ValueError, IndexError):
            return {}

    def span_seconds(self, name: str) -> Optional[float]:
        """The median length of the child's spans called ``name``."""
        return median(end - start for n, start, end
                      in self.report().get("spans", []) if n == name)


def _reap(proc: subprocess.Popen, timeout: float) -> None:
    """Wait for ``proc``, killing it after ``timeout``.  A pidfd wakes
    this process as soon as the child exits; ``Popen.wait`` with a
    timeout would poll."""
    try:
        fd = os.pidfd_open(proc.pid)
    except (AttributeError, OSError):
        fd = None
    if fd is not None:
        try:
            if not select.select([fd], [], [], timeout)[0]:
                proc.kill()
        finally:
            os.close(fd)
    proc.wait()


def spawn(argv: List[str], cwd: str) -> Child:
    hwm = os.path.join(cwd, ".hwm")
    if os.path.exists(hwm):
        os.unlink(hwm)
    env = dict(os.environ, VAULTC_BENCH_HWM=hwm)
    with open(os.path.join(cwd, ".stdout"), "w+b") as out, \
            open(os.path.join(cwd, ".stderr"), "w+b") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err,
                                env=env)
        _reap(proc, CHILD_TIMEOUT_S)
        end = time.monotonic()
        out.seek(0)
        err.seek(0)
        hwm_kb = None
        if os.path.exists(hwm):
            with open(hwm, encoding="ascii") as handle:
                hwm_kb = int(handle.read())
        return Child(start, end, proc.returncode,
                     out.read().decode("utf-8", "replace"),
                     err.read().decode("utf-8", "replace"), hwm_kb)


def host_reference(run: Run, rundir: str) -> None:
    """One run of the host reference job, timed like an operation."""
    child = spawn([sys.executable, HOSTREF], rundir)
    if child.code != 0:
        raise RuntimeError(f"the host reference job exited with {child.code}")
    run.refs.append((child.end, child.seconds))
    run.spans.add("bench.host_ref", child.start, child.end, -1)


def write(rundir: str, source: inputs.Source) -> None:
    with open(os.path.join(rundir, source.filename), "w",
              encoding="utf-8") as handle:
        handle.write(source.text)


def cli(rundir: str, source: inputs.Source, flags: List[str]) -> Child:
    write(rundir, source)
    return spawn([sys.executable, "-m", "repro.cli", "check", *flags,
                  source.filename], rundir)


def traced_child(rundir: str, source: inputs.Source, mode: str,
                 flags: List[str]) -> Child:
    write(rundir, source)
    return spawn([sys.executable, CHILD, mode, source.filename, *flags],
                 rundir)


def child_layers(child: Child, run: Run, op: int, parent: int
                 ) -> Dict[str, float]:
    """Layer times (ms) and counts of one traced child, added as spans
    under ``parent``.  ``interp.start`` runs from spawn to the child's
    first line and ``interp.exit`` from its last output to the parent
    seeing it exit."""
    record = child.report()
    layers: Dict[str, float] = {}
    if "main" not in record:
        return layers
    parts = [["interp.start", child.start, record["main"]]]
    parts += record.get("spans", [])
    parts.append(["interp.exit", parts[-1][2], child.end])
    for name, start, end in parts:
        layers[name] = layers.get(name, 0.0) + (end - start) * 1000
        run.spans.add(name, start, end, op, parent)
    layers.update(record.get("counts", {}))
    run.absent.update(record.get("absent", {}))
    return layers


def phase_metrics(run: Run, records: List[Dict[str, float]],
                  totals_ms: List[float]) -> None:
    """The start-up, front-end and checker layer metrics from
    fresh-process replays; ``other_ms`` is the median of what the named
    layers leave of each replay."""
    if not records:
        return
    for name in PHASES:
        run.layers[name + "_ms"] = median(r.get(name) for r in records)
    for name in ("import.repro_modules", "syntax.tokens"):
        run.layers[name] = median(r.get(name) for r in records)
    run.layers["core.check_share"] = median(
        r.get("core.check", 0.0) / total
        for r, total in zip(records, totals_ms) if total)
    run.layers["other_ms"] = median(
        total - sum(r.get(name, 0.0) for name in PHASES)
        for r, total in zip(records, totals_ms))


def replay_phases(run: Run, rundir: str, sources: List[inputs.Source]) -> None:
    """Fresh-process ``check_source`` replays of ``sources``, each
    followed by a fresh-process reference run to scale it by."""
    records, totals = [], []
    for source in sources:
        child = traced_child(rundir, source, "phases", [])
        run.check(f"replay {source.filename}", source, child.stdout,
                  child.code)
        op = run.spans.add("replay", child.start, child.end, -1)
        records.append(child_layers(child, run, -1, op))
        totals.append(child.seconds * 1000)
        host_reference(run, rundir)
    phase_metrics(run, records, totals)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def fresh_process(run: Run, rundir: str, sources: inputs.Hashed,
                  flags: List[str], before_setup=None) -> inputs.Source:
    """One fresh process per operation.  The set-up is one process on
    the first input, after ``before_setup``; the first input is
    returned."""
    first = next(sources)
    host_reference(run, rundir)
    for rep in range(SETUP_REPEATS):
        if before_setup:
            before_setup()
        child = cli(rundir, first, flags)
        run.check(f"set-up {rep}", first, child.stdout, child.code)
        run.setup.append((child.end, child.seconds, None))
        host_reference(run, rundir)
    n = inputs.COUNTS[run.workload]
    run.sample_at = inputs.sample_indices(n, BYTE_SAMPLES[run.workload])
    every = REF_EVERY[run.workload]
    # ci-rebuild's traced children replay its CheckSession path.
    mode = "session" if "--cache" in flags else "phases"
    records, totals = [], []
    for index, source in enumerate(sources):
        if run.traced:
            child = traced_child(rundir, source, mode, flags)
        else:
            child = cli(rundir, source, flags)
        label = f"op {index} {source.filename}"
        failure = run.check(label, source, child.stdout, child.code)
        run.measured(index, label, source, child.seconds,
                     None if failure else child.stdout)
        if child.hwm_kb is not None:
            run.rss_mb.append(child.hwm_kb / 1024)
        if run.traced:
            op = run.spans.add(f"op.{source.kind}", child.start, child.end,
                               index, kind=source.kind, lines=source.lines)
            records.append(child_layers(child, run, index, op))
            totals.append(child.seconds * 1000)
        if index % every == every - 1:
            host_reference(run, rundir)
    run.compare_samples()
    if run.traced and mode == "phases":
        phase_metrics(run, records, totals)
    elif run.traced:
        run.layers["pipeline.cache_open_ms"] = median(
            r.get("pipeline.session_open") for r in records)
    return first


def cold_small(run: Run, rundir: str, sources: inputs.Hashed) -> None:
    fresh_process(run, rundir, sources, [])


def cold_large(run: Run, rundir: str, sources: inputs.Hashed) -> None:
    fresh_process(run, rundir, sources, [])


def ci_rebuild(run: Run, rundir: str, sources: inputs.Hashed) -> None:
    """Each set-up fills an empty cache with revision 0; the measured
    processes then check revisions 1, 2, ... against that cache."""
    cache = os.path.join(rundir, "cache")

    def empty_cache() -> None:
        shutil.rmtree(cache, ignore_errors=True)
        os.makedirs(cache)

    first = fresh_process(run, rundir, sources,
                          ["--jobs", "auto", "--cache", cache], empty_cache)
    if not run.traced:
        return
    run.layers["pipeline.cache_file_kb"] = sum(
        os.path.getsize(os.path.join(base, name))
        for base, _, names in os.walk(cache) for name in names) / 1024
    replay_phases(run, rundir, [first] * REPLAYS)
    times: Dict[str, List[Optional[float]]] = {"1": [], "2": []}
    for _ in range(2):
        for jobs, spent in times.items():
            child = traced_child(rundir, first, "session", ["--jobs", jobs])
            run.check(f"jobs {jobs} #{len(spent)}", first, child.stdout,
                      child.code)
            spent.append(child.span_seconds("pipeline.check"))
    serial, parallel = median(times["1"]), median(times["2"])
    if serial and parallel:
        run.layers["pipeline.pool_speedup"] = serial / parallel
    share = run.layers.get("core.check_share")
    if share is not None:
        run.layers["pipeline.jobs_bound"] = 1 / ((1 - share) + share / 2)


def session_counters(session) -> Dict[str, Optional[int]]:
    stats = field(session, "stats")
    return {name: field(stats, name)
            for name in ("chunk_parses", "functions_checked", "token_hits",
                         "token_misses", "relex_splices")}


def edit_loop(run: Run, rundir: str, sources: inputs.Hashed) -> None:
    """What ``vaultc watch`` does on each save, in this process: one
    ``CheckSession`` checks and renders each revision."""
    from repro.pipeline import CheckSession
    try:
        from repro.pipeline import split_chunks
    except ImportError:
        split_chunks = None
        run.absent["pipeline.split_ms"] = "repro.pipeline.split_chunks is gone"
    first = next(sources)
    # Set-up: the session's first, cold check, in fresh children and
    # last in this process, in the session the loop then uses.  Each
    # runs the in-process reference just before it.
    for rep in range(SETUP_REPEATS - 1):
        child = traced_child(rundir, first, "session", ["--ref"])
        run.check(f"set-up child {rep}", first, child.stdout, child.code)
        ref = child.span_seconds("bench.host_ref")
        run.in_process_refs.append(ref)
        run.setup.append((child.end, sum(
            child.span_seconds(name) or 0.0 for name in (
                "pipeline.session_open", "pipeline.check",
                "diagnostics.render")), IN_PROCESS_REF_NOMINAL_S / ref))
    filename = first.filename
    factor = run.in_process_reference()
    start = time.monotonic()
    session = CheckSession()
    report = session.check(first.text, filename)
    rendered = report.render()
    end = time.monotonic()
    run.setup.append((end, end - start, factor))
    run.check("set-up", first, canonical_stdout(
        report.ok, rendered, len(report.errors), filename),
        0 if report.ok else 1)

    run.sample_at = inputs.sample_indices(inputs.COUNTS["edit-loop"],
                                          BYTE_SAMPLES["edit-loop"])
    per_kind: Dict[str, List[dict]] = collections.defaultdict(list)
    previous = None
    splits: List[float] = []
    for index, source in enumerate(sources):
        changed_chunks = None
        if run.traced and split_chunks is not None:
            if previous is None:
                previous = collections.Counter(
                    c.text for c in split_chunks(first.text))
            t0 = time.monotonic()
            chunks = split_chunks(source.text)
            splits.append((time.monotonic() - t0) * 1000)
            current = collections.Counter(c.text for c in chunks)
            changed_chunks = sum((current - previous).values())
            previous = current
        before = session_counters(session)
        factor = run.in_process_reference()
        start = time.monotonic()
        report = session.check(source.text, filename)
        rendered = report.render()
        end = time.monotonic()
        after = session_counters(session)
        stdout = canonical_stdout(report.ok, rendered, len(report.errors),
                                  filename)
        label = f"revision {index + 1} ({source.kind})"
        failure = run.check(label, source, stdout, 0 if report.ok else 1)
        run.measured(index, label, source, end - start,
                     None if failure else stdout, factor)
        if run.traced:
            delta = {k: after[k] - before[k] if None not in (after[k],
                                                             before[k])
                     else None for k in after}
            delta.update(ms=(end - start) * 1000,
                         changed_functions=source.changed_functions,
                         changed_chunks=changed_chunks)
            per_kind[source.kind].append(delta)
            run.spans.add(f"op.{source.kind}", start, end, index,
                          **{k: v for k, v in delta.items() if v is not None})
    run.rss_mb.append(peak_rss_mb(os.getpid()))
    run.compare_samples()
    if run.traced:
        edit_layers(run, per_kind, splits)
        replay_phases(run, rundir, [first] * REPLAYS)


def edit_layers(run: Run, per_kind: Dict[str, List[dict]],
                splits: List[float]) -> None:
    """Per-edit-kind pipeline metrics from the traced edit loop."""
    if splits:
        run.layers["pipeline.split_ms"] = median(splits)
    totals: Dict[str, int] = collections.Counter()
    for kind, ops in per_kind.items():
        run.layers[f"pipeline.edit_ms.{kind}"] = median(o["ms"] for o in ops)
        for name in ("chunk_parses", "functions_checked"):
            run.layers[f"pipeline.{name}.{kind}"] = median(
                o[name] for o in ops)
            run.absent[f"pipeline.{name}.{kind}"] = \
                f"SessionStats has no {name} counter"
        for name, changed, work in (
                ("reparse_precision", "changed_chunks", "chunk_parses"),
                ("recheck_precision", "changed_functions",
                 "functions_checked")):
            metric = f"pipeline.{name}.{kind}"
            pairs = [(o[changed], o[work]) for o in ops
                     if o[changed] is not None and o[work] is not None]
            spent = sum(w for _, w in pairs)
            if spent:
                run.layers[metric] = sum(c for c, _ in pairs) / spent
            else:
                run.absent[metric] = (
                    f"no {work.replace('_', ' ')} on {kind} edits" if pairs
                    else f"no {work} or {changed} count")
        for name in ("token_hits", "token_misses", "relex_splices"):
            for o in ops:
                if o[name] is not None:
                    totals[name] += o[name]
    looked_up = totals["token_hits"] + totals["token_misses"]
    if looked_up:
        run.layers["pipeline.token_hit_ratio"] = \
            totals["token_hits"] / looked_up
    else:
        run.absent["pipeline.token_hit_ratio"] = \
            "SessionStats has no token cache counters"
    if "relex_splices" in totals:
        run.layers["pipeline.relex_splices"] = totals["relex_splices"]
    else:
        run.absent["pipeline.relex_splices"] = \
            "SessionStats has no relex counter"


def peak_rss_mb(pid: int) -> Optional[float]:
    """``VmHWM`` of a live process, in MB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


class Daemon:
    """A ``vaultc serve`` subprocess on a socket in ``rundir``."""

    def __init__(self, rundir: str, name: str):
        from repro.server import DaemonClient, DaemonUnavailable
        self.client_class = DaemonClient
        self.unavailable = DaemonUnavailable
        # Relative to the checkout, so a deep checkout cannot overflow
        # the 108-byte AF_UNIX path limit.
        self.socket = os.path.relpath(os.path.join(rundir, name + ".sock"))
        self.log = open(os.path.join(rundir, name + ".log"), "wb")
        self.start = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--socket",
             self.socket, "--idle-timeout", "60"],
            stdout=self.log, stderr=subprocess.STDOUT)
        self.ready_s = self._wait_ready()

    def connect(self):
        return self.client_class(self.socket, read_timeout=60.0)

    def _wait_ready(self) -> float:
        give_up = self.start + 30.0
        while time.monotonic() < give_up and self.proc.poll() is None:
            try:
                with self.connect() as client:
                    client.ping()
                return time.monotonic() - self.start
            except self.unavailable:
                time.sleep(0.005)
        self.stop()
        raise RuntimeError("the daemon never answered ping")

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                with self.connect() as client:
                    client.shutdown()
            except self.unavailable:
                self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def check_reply(run: Run, label: str, source: inputs.Source,
                reply: dict) -> Optional[str]:
    """Count one check reply; return the CLI stdout it stands for, or
    ``None`` when the answer is wrong."""
    if not reply.get("ok"):
        run.count(label, f"daemon replied {reply.get('kind', 'error')}: "
                         f"{reply.get('error', '')}"[:200])
        return None
    ok = bool(reply.get("check_ok"))
    stdout = canonical_stdout(ok, reply.get("render", ""),
                              reply.get("errors", -1), source.filename)
    failure = run.check(label, source, stdout, 0 if ok else 1)
    return None if failure else stdout


def daemon_mixed(run: Run, rundir: str, sources: inputs.Hashed) -> None:
    """``vaultc serve`` under an open loop.  The set-up spawns the
    daemon, waits for its first ping and primes the eight open files;
    the last of the ``SETUP_REPEATS`` daemons takes the load.

    Requests overlap, so no reference job runs during the load: the
    reference runs after the set-ups measure the host once, and the
    whole run uses that measure."""
    files = sources.take(inputs.DAEMON_FILES)
    requests = list(sources)
    ready: List[float] = []
    daemon = None
    try:
        for rep in range(SETUP_REPEATS):
            daemon = Daemon(rundir, f"daemon{rep}")
            with daemon.connect() as client:
                for source in files:
                    check_reply(run, f"prime {rep} {source.filename}", source,
                                client.check(source.text, source.filename))
            end = time.monotonic()
            run.setup.append((end, end - daemon.start, None))
            ready.append(daemon.ready_s)
            if rep < SETUP_REPEATS - 1:
                daemon.stop()
            for _ in range(REFS_PER_SETUP):
                host_reference(run, rundir)
        run.fixed_factor = run.host_factor()
        if run.traced:
            run.layers["server.ready_s"] = median(ready)
            with daemon.connect() as client:
                pings = []
                for _ in range(20):
                    t0 = time.monotonic()
                    client.ping()
                    pings.append((time.monotonic() - t0) * 1000)
            run.layers["server.ping_ms"] = median(pings)
        drive_daemon(run, daemon, requests)
        run.rss_mb.append(peak_rss_mb(daemon.proc.pid))
    finally:
        if daemon is not None:
            daemon.stop()
    run.compare_samples()
    if run.traced:
        metrics_overhead(run, rundir, files[0])
        replay_phases(run, rundir, [r for r in requests
                                    if r.kind == "large"][:REPLAYS])


def drive_daemon(run: Run, daemon: Daemon, requests: List[inputs.Source]
                 ) -> None:
    """Connection A (this thread) sends each check when it is due, or
    as soon as its previous reply arrives if that is later; connection
    B (one more thread) sends ``health`` every ``HEALTH_PERIOD_S``.

    The schedule runs on the nominal host's clock: on a host that runs
    the reference job twice as slowly, requests come half as often, so
    the daemon is as busy as on the nominal host rather than swamped,
    and each time is scaled back like every other."""
    factor = run.host_factor()
    stretch = 1 / factor
    t_zero = time.monotonic() + 0.05
    health: List[tuple] = []

    def control() -> None:
        with daemon.connect() as client:
            for k in range(int(inputs.DAEMON_SECONDS / HEALTH_PERIOD_S)):
                due = t_zero + k * HEALTH_PERIOD_S * stretch
                pause = due - time.monotonic()
                if pause > 0:
                    time.sleep(pause)
                try:
                    ok = bool(client.health().get("ok"))
                except daemon.unavailable:
                    ok = False
                health.append((due, time.monotonic(), ok))

    run.sample_at = inputs.sample_indices(len(requests),
                                          BYTE_SAMPLES["daemon-mixed"])
    thread = threading.Thread(target=control, name="health")
    thread.start()
    # (kind, due, sent, done, sent-while-idle, reply seconds, ok)
    checks: List[tuple] = []
    done = t_zero
    try:
        with daemon.connect() as client:
            for index, source in enumerate(requests):
                due = t_zero + source.due * stretch
                pause = due - time.monotonic()
                if pause > 0:
                    time.sleep(pause)
                idle = done <= due
                sent = time.monotonic()
                try:
                    reply = client.check(source.text, source.filename)
                except daemon.unavailable as exc:
                    reply = {"ok": False, "kind": "no reply",
                             "error": str(exc)}
                done = time.monotonic()
                label = f"request {index} {source.kind} {source.filename}"
                stdout = check_reply(run, label, source, reply)
                run.measured(index, label, source, done - due, stdout)
                service = field(reply, "seconds")
                checks.append((source.kind, due, sent, done, idle, service,
                               stdout is not None))
                if run.traced:
                    op = run.spans.add(f"op.{source.kind}", due, done, index,
                                       tid=1, kind=source.kind)
                    if sent > due:
                        run.spans.add("bench.queue", due, sent, index, op, 1)
                    if service is not None:
                        run.spans.add("server.service", done - service, done,
                                      index, op, 1)
    finally:
        thread.join()
    for k, (due, end, ok) in enumerate(health):
        run.count(f"health {k}", None if ok else "health probe failed")
        run.spans.add("server.health", due, end, -1, tid=2)
    # The overall median falls between request kinds whose latencies
    # differ several-fold, so each kind reports its own median and the
    # workload's latency_p50_ms is their geometric mean.
    kind_p50 = {kind: median((c[3] - c[1]) * factor * 1000 for c in checks
                             if c[0] == kind) for kind in SERVICE_KINDS}
    for kind, value in kind_p50.items():
        run.metrics[f"latency_p50_ms.{kind}"] = value
    run.metrics["latency_p50_ms"] = math.exp(statistics.fmean(
        math.log(v) for v in kind_p50.values() if v))
    control_ms = [(end - due) * factor * 1000 for due, end, _ in health]
    run.metrics["control_p90_ms"] = p90(control_ms)
    run.metrics["within_limit_ratio"] = sum(
        1 for c in checks
        if c[6] and (c[3] - c[1]) * factor <= WITHIN_LIMIT_S
    ) / max(1, len(checks))
    if not run.traced:
        return
    for kind in SERVICE_KINDS:
        run.layers[f"server.service_ms.{kind}"] = median(
            c[5] * 1000 for c in checks if c[0] == kind and c[5] is not None)
    run.layers["server.wire_ms"] = median(
        (c[3] - c[2] - c[5]) * 1000 for c in checks if c[5] is not None)
    run.layers["server.queue_ms_p90"] = p90(
        (c[2] - c[1]) * 1000 for c in checks)
    run.layers["server.control_blocked_ratio"] = sum(
        1 for ms in control_ms if ms > BLOCKED_MS) / max(1, len(control_ms))
    run.layers["bench.sender_late_p90_ms"] = p90(
        (c[2] - c[1]) * 1000 for c in checks if c[4])
    if all(c[5] is None for c in checks):
        for name in [f"server.service_ms.{k}" for k in SERVICE_KINDS] \
                + ["server.wire_ms"]:
            run.absent[name] = "check replies carry no seconds field"


def metrics_overhead(run: Run, rundir: str, source: inputs.Source) -> None:
    """Cold and one-edit checks with ``Telemetry(metrics=True)``, which
    ``vaultc serve`` runs with, against the default: fresh children,
    alternating, each checking one file and then ``EDITS`` successive
    one-function edits of it."""
    editor = inputs.UnitEditor(source.text, source.filename, random.Random(1))
    edits = []
    for k in range(EDITS):
        edited = editor.edit("body")
        edited.filename = f"edit_{k}.vlt"
        write(rundir, edited)
        edits += ["--edit", edited.filename]
    times = collections.defaultdict(list)
    for rep in range(2):
        for flags in ([], ["--metrics"]):
            child = traced_child(rundir, source, "session", flags + edits)
            run.check(f"metrics overhead {rep}{''.join(flags)}", source,
                      child.stdout, child.code)
            for name in ("pipeline.check", "pipeline.edit"):
                times[(bool(flags), name)].append(child.span_seconds(name))
    for label, name in (("cold", "pipeline.check"), ("edit", "pipeline.edit")):
        plain = median(times[(False, name)])
        metered = median(times[(True, name)])
        if plain and metered:
            run.layers[f"obs.metrics_overhead.{label}"] = metered / plain


RUNNERS = {"cold-small": cold_small, "cold-large": cold_large,
           "ci-rebuild": ci_rebuild, "edit-loop": edit_loop,
           "daemon-mixed": daemon_mixed}


def check_pinned(workload: str, seed: int, digest: str) -> Optional[str]:
    """Why the inputs differ from the pinned ones, if they do."""
    with open(PINNED, encoding="utf-8") as handle:
        pinned = json.load(handle)
    want = pinned["workloads"].get(workload)
    if seed != pinned["seed"] or want is None or digest == want:
        return None
    return (f"the inputs of {workload} for seed {seed} changed (sha256 "
            f"{digest}, pinned {want}): a change to repro.testing or "
            f"repro.analysis altered what the benchmark measures.  "
            f"Re-pin with `run.py --pin` only if that is intended.")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    # Unwind on a stop request, so a running daemon is shut down.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    rundir = os.path.join(BUILD, f"run-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    run = Run(args.workload, bool(args.trace))
    sources = inputs.stream(args.workload, args.seed)
    try:
        RUNNERS[args.workload](run, rundir, sources)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    problem = check_pinned(args.workload, args.seed,
                           sources.digest.hexdigest())
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 3
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(run.result(), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
