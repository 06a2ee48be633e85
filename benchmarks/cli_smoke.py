"""The ``make cli-smoke`` gate: a fresh ``vaultc check`` process must
answer exactly as in-process ``main()`` does.

A ``check`` process runs with the cyclic GC off and leaves through
``os._exit`` once its output is flushed (see ``repro.cli.run``).  This
runs every ``.vlt`` under ``examples/`` plus one synthesized
160-function unit through ``python -m repro.cli check`` in a fresh
interpreter, and asserts that its stdout and exit code are byte for
byte those of ``main(["check", FILE])`` in this process.

Exits non-zero on any mismatch.  Usable both as a script and as a
pytest module.

Run as a script, it then records (and gates nothing on) the start-up
cost of a fresh process in the ``startup`` block of
``BENCH_checker.json``: the median wall time of fresh
``python -c "import repro.cli"`` runs, next to that of a bare
interpreter, and how many ``repro`` modules the import loads.
"""

import contextlib
import glob
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "src")
sys.path.insert(0, _SRC)

from repro.analysis import synthesize_program            # noqa: E402
from repro.cli import main as vaultc                     # noqa: E402

_EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")
_BENCH_JSON = os.path.join(os.path.dirname(__file__), os.pardir,
                           "BENCH_checker.json")

#: synthesized unit size: the fast-exit path over a heap of real size.
N_FUNCTIONS = 160

#: timed fresh interpreters per start-up figure
STARTUP_RUNS = 5


def _in_process(path: str) -> "tuple[int, bytes]":
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = vaultc(["check", path])
    return code, out.getvalue().encode("utf-8")


def _fresh_process(path: str) -> "tuple[int, bytes]":
    # Block-buffered stdout, as a user's pipe has: only the explicit
    # flush before os._exit gets it out.
    env = {**os.environ, "PYTHONPATH": _SRC, "PYTHONUNBUFFERED": ""}
    proc = subprocess.run([sys.executable, "-m", "repro.cli", "check", path],
                          stdout=subprocess.PIPE, env=env, timeout=120)
    return proc.returncode, proc.stdout


def _assert_same(path: str) -> None:
    expected = _in_process(path)
    got = _fresh_process(path)
    assert got == expected, (
        f"{path}: fresh process gave exit {got[0]} and "
        f"{len(got[1])} bytes, in-process main() exit {expected[0]} and "
        f"{len(expected[1])} bytes")
    print(f"cli-smoke: {os.path.basename(path)} (exit {got[0]})   OK")


def test_examples_match_in_process():
    corpus = sorted(glob.glob(os.path.join(_EXAMPLES, "*.vlt")))
    assert corpus, f"no .vlt files under {_EXAMPLES}"
    for path in corpus:
        _assert_same(path)


def test_synthesized_unit_matches_in_process():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "synth.vlt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(synthesize_program(N_FUNCTIONS, seed=42,
                                            error_rate=0.1))
        _assert_same(path)


def _run_ms(code: str, env: dict) -> float:
    # No timeout: with one, subprocess polls the child in sleeps of up
    # to 50 ms, which would round every time up to that grain.
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return (time.perf_counter() - start) * 1000


def record_startup() -> dict:
    """Time fresh ``import repro.cli`` processes and merge the
    ``startup`` block into ``BENCH_checker.json``.

    The processes read and write a bytecode cache of their own, warmed
    by one untimed run, as an installed ``vaultc`` has one.
    """
    with tempfile.TemporaryDirectory() as pycache:
        env = {**os.environ, "PYTHONPATH": _SRC,
               "PYTHONPYCACHEPREFIX": pycache}
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        modules = int(subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; print(sum(1 for m in sys.modules "
             "if m == 'repro' or m.startswith('repro.')))"],
            env=env, check=True, timeout=60, capture_output=True,
            text=True).stdout)
        # Alternate the two, so that a drift in host speed hits both.
        imports, bare = [], []
        for _ in range(STARTUP_RUNS):
            imports.append(_run_ms("import repro.cli", env))
            bare.append(_run_ms("pass", env))
    block = {
        "runs": STARTUP_RUNS,
        "import_cli_wall_ms": round(statistics.median(imports), 1),
        "bare_interpreter_wall_ms": round(statistics.median(bare), 1),
        "repro_modules": modules,
        "python": platform.python_version(),
    }
    # Read-modify-write: the other gates own the rest of the file.
    try:
        with open(_BENCH_JSON, "r", encoding="utf-8") as handle:
            merged = json.load(handle)
    except (OSError, ValueError):
        merged = {}
    merged["startup"] = block
    with open(_BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2)
        handle.write("\n")
    return block


if __name__ == "__main__":
    test_examples_match_in_process()
    test_synthesized_unit_matches_in_process()
    print("cli-smoke: PASS")
    startup = record_startup()
    print(f"cli-smoke: fresh `import repro.cli` "
          f"{startup['import_cli_wall_ms']} ms (bare interpreter "
          f"{startup['bare_interpreter_wall_ms']} ms, median of "
          f"{startup['runs']}), {startup['repro_modules']} repro modules")
