"""End-to-end benchmark of the Vault checker.

::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed S]
                                  [--trace 0|1|FILE] [--out FILE]
    python3 benchmarks/e2e/run.py --pin

Runs each workload (all five without ``--workload``) in a fresh
process of its own (``workload.py``), prints every end-to-end metric by
name and unit, one row per workload, and checks every answer against
the oracle (``oracle.py``).  Each workload runs a fixed number of
operations, so its run length is set by the benchmark and is the same
on every commit.  ``--seconds`` is accepted, because benchmark runners
pass ``BENCHMARK.json``'s ``run_seconds`` to every command, and
otherwise ignored.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics named in ``BENCHMARK.json``, or with ``--trace`` its
per-layer metrics.

``--trace 1`` (or ``--trace FILE``) runs the workload a second time
with spans recorded around the calls into each layer, and writes them
as Chrome-trace JSON with every layer metric, measured or marked
absent with the reason, under ``otherData``.  The default file is
``.bench_build/e2e/trace-<workload>-<seed>.json``.

``--pin`` records the default seed's input digests in
``inputs_sha256.json``; a run on that seed refuses to report when the
inputs no longer match.

Everything the benchmark writes stays under ``.bench_build/`` of the
checkout, including the bytecode cache its processes share.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

from compare import EXTRA_BOUNDS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
SCRIPT = os.path.join(HERE, "workload.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

#: every workload; ``BENCHMARK.json`` gates those whose metrics repeat
#: within their bounds, which daemon-mixed's latency does not.
WORKLOADS = ("cold-small", "cold-large", "ci-rebuild", "edit-loop",
             "daemon-mixed")
#: the seed the inputs are pinned for; claims are confirmed on
#: HELD_OUT_SEED, which no change should be tuned on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
#: one workload's run (both passes when tracing) must end within this.
RUN_BUDGET_S = 170.0


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as handle:
        return json.load(handle)


def bench_env() -> Dict[str, str]:
    """The environment of every process the benchmark starts: the
    checkout's sources, the peak-memory report (``hwm/``), a bytecode
    cache inside the checkout, a fixed hash seed, and no inherited
    daemon or fault settings."""
    env = dict(os.environ)
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP", "VAULTC_SOCKET",
                 "VAULTC_FAULTS", "VAULTC_SERVER_TEST_OPS",
                 "VAULTC_BENCH_HWM"):
        env.pop(name, None)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(PYTHONPATH=os.pathsep.join([SRC, os.path.join(HERE, "hwm")]),
               PYTHONHASHSEED="0", TMPDIR=tmp,
               XDG_RUNTIME_DIR=tmp,
               PYTHONPYCACHEPREFIX=os.path.join(BUILD, "pycache"))
    return env


def build(env: Dict[str, str]) -> None:
    """Compile the sources into the bytecode cache, so no measured
    process compiles; a new cache also gets the standard library
    modules the program and the host reference job import."""
    script = "import compileall, sys\n" \
             "ok = compileall.compile_dir(sys.argv[1], quiet=1)\n"
    fresh = not os.path.isdir(env["PYTHONPYCACHEPREFIX"])
    if fresh:
        script += "import repro.cli, repro.pipeline, repro.server, " \
                  "repro.testing\n"
    script += "sys.exit(not ok)\n"
    subprocess.run([sys.executable, "-c", script, SRC], cwd=ROOT, env=env,
                   check=True, stdout=subprocess.DEVNULL, timeout=600)
    if fresh:
        subprocess.run([sys.executable, os.path.join(HERE, "hostref.py")],
                       cwd=ROOT, env=env, check=True, timeout=60)


def run_workload(workload: str, seed: int, traced: bool,
                 env: Dict[str, str], timeout: float) -> dict:
    """One workload process; its result, or ``{"error": ...}``."""
    result = os.path.join(BUILD, f"result-{os.getpid()}-{workload}.json")
    command = [sys.executable, SCRIPT, "--workload", workload,
               "--seed", str(seed), "--trace", str(int(traced)),
               "--result", result]
    # Its own session, so a timeout can stop the daemon it started too.
    proc = subprocess.Popen(command, cwd=ROOT, env=env,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, timeout))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if sys.exc_info()[0] is not subprocess.TimeoutExpired:
            raise
        return {"error": f"{workload} did not finish in {timeout:.0f} s"}
    if code != 0:
        return {"error": f"{workload} process exited with {code}",
                "code": code}
    with open(result, encoding="utf-8") as handle:
        out = json.load(handle)
    os.unlink(result)
    return out


def measure(workload: str, seed: int, tracing: bool,
            env: Dict[str, str], deadline: float) -> dict:
    """Untraced and, when tracing, traced results of one workload."""
    plain = run_workload(workload, seed, False, env,
                         deadline - time.monotonic())
    if not tracing or "error" in plain:
        return plain
    traced = run_workload(workload, seed, True, env,
                          deadline - time.monotonic())
    if "error" in traced:
        return traced
    base = plain["metrics"].get("latency_p50_ms", {}).get("value")
    with_spans = traced["metrics"].get("latency_p50_ms", {}).get("value")
    traced["layers"]["bench.trace_overhead"] = {
        "value": with_spans / base, "unit": "ratio"} if base and with_spans \
        else {"value": None, "unit": "ratio",
              "absent": "a pass measured no operation"}
    plain["layers"] = traced["layers"]
    plain["events"] = traced["events"]
    plain["attempted"] += traced["attempted"]
    plain["failed"] += traced["failed"]
    plain["failures"] += traced["failures"]
    return plain


def fmt(value: Optional[float]) -> str:
    if value is None:
        return "absent"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}"


def print_rows(results: Dict[str, dict], names: List[str]) -> None:
    for workload, result in results.items():
        if "error" in result:
            print(f"{workload:<13} error: {result['error']}")
            continue
        metrics = result["metrics"]
        # After BENCHMARK.json's metrics, those of some workloads only.
        cells = [f"{name}={fmt(metrics[name]['value'])} {metrics[name]['unit']}"
                 for name in names + list(EXTRA_BOUNDS)
                 + ["n", "host_ref_ms", "host_ref_in_process_ms"]
                 if name in metrics]
        print(f"{workload:<13} " + "  ".join(cells))
        for failure in result["failures"]:
            print(f"{'':<13} FAILED {failure}")


def print_layers(results: Dict[str, dict]) -> None:
    for workload, result in results.items():
        print(f"\n{workload} layers:")
        for name, entry in result.get("layers", {}).items():
            if entry["value"] is not None:
                print(f"  {name:<34} {fmt(entry['value'])} {entry['unit']}")
            elif not entry["absent"].startswith("layer not exercised"):
                print(f"  {name:<34} absent: {entry['absent']}")


def write_trace(path: str, results: Dict[str, dict], seed: int) -> None:
    events = []
    for workload, result in results.items():
        pids = {e["pid"] for e in result.get("events", [])}
        events += [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                    "args": {"name": workload}} for pid in pids]
        events += result.get("events", [])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": {"seed": seed, "layers": {
                       w: r.get("layers", {}) for w, r in results.items()}}},
                  handle)


def summary(results: Dict[str, dict], names: List[str], tracing: bool
            ) -> dict:
    """The last line: one workload's metrics by name, or every
    workload's as ``workload/name``."""
    single = len(results) == 1
    metrics = {}
    for workload, result in results.items():
        table = result.get("layers", {}) if tracing \
            else result.get("metrics", {})
        for name in names:
            entry = table.get(name, {"value": None,
                                     "unit": "", "absent": "not measured"})
            metrics[name if single else f"{workload}/{name}"] = entry
    failed = sum(r["failed"] for r in results.values())
    return {"correct": failed == 0,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": failed, "metrics": metrics}


def pin(workloads: List[str]) -> int:
    sys.path[:0] = [SRC, HERE]
    import inputs
    digests = {w: inputs.inputs_sha256(w, DEFAULT_SEED) for w in workloads}
    with open(os.path.join(HERE, "inputs_sha256.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"seed": DEFAULT_SEED, "workloads": digests}, handle,
                  indent=2)
        handle.write("\n")
    print(json.dumps(digests, indent=2))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    # A stop request unwinds like Ctrl-C, so the workload processes (and
    # any daemon they started) are stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = load_spec()
    workloads = list(WORKLOADS)
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the Vault checker.")
    parser.add_argument("--workload", choices=workloads, default=None,
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="ignored: each workload runs a fixed number "
                             "of operations")
    parser.add_argument("--trace", default="0", metavar="0|1|FILE",
                        help="1 or a file: also run traced and report "
                             "per-layer metrics")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write every result as JSON (compare.py "
                             "input)")
    parser.add_argument("--pin", action="store_true",
                        help="record the default seed's input digests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no Vault sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.pin:
        return pin(workloads)
    tracing = args.trace != "0"
    names = [m["name"] for m in
             spec["per_layer" if tracing else "end_to_end"]]
    if args.workload:
        workloads = [args.workload]
    deadline = time.monotonic() + RUN_BUDGET_S * len(workloads)
    env = bench_env()
    build(env)
    results = {}
    for workload in workloads:
        results[workload] = measure(workload, args.seed, tracing, env,
                                    deadline)
        if results[workload].get("code") == 3:
            return 3
    print_rows(results, [m["name"] for m in spec["end_to_end"]])
    if any("error" in r for r in results.values()):
        return 1
    if tracing:
        print_layers(results)
        path = args.trace if args.trace != "1" else os.path.join(
            BUILD, f"trace-{args.workload or 'all'}-{args.seed}.json")
        write_trace(path, results, args.seed)
        print(f"\ntrace: {os.path.relpath(path)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "workloads": {w: {k: v for k, v in r.items()
                                         if k != "events"}
                                     for w, r in results.items()}},
                      handle, indent=1)
    print(json.dumps(summary(results, names, tracing)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
