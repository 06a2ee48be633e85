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
"""

import contextlib
import glob
import io
import os
import subprocess
import sys
import tempfile

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "src")
sys.path.insert(0, _SRC)

from repro.analysis import synthesize_program            # noqa: E402
from repro.cli import main as vaultc                     # noqa: E402

_EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")

#: synthesized unit size: the fast-exit path over a heap of real size.
N_FUNCTIONS = 160


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


if __name__ == "__main__":
    test_examples_match_in_process()
    test_synthesized_unit_matches_in_process()
    print("cli-smoke: PASS")
