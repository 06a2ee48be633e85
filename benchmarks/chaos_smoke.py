"""A fast resilience smoke check (the ``make chaos-smoke`` gate).

Corrupts a file record (the one object per file ``--cache DIR`` keeps)
and asserts quarantine-and-rebuild: the damaged object is moved under
``DIR/corrupt/`` for post-mortems, the check still prints the serial
answer, and the rebuilt record replays on the next run.

Usable both as a script (``python benchmarks/chaos_smoke.py``) and as
a pytest module.
"""

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro import check_source                           # noqa: E402
from repro.analysis import synthesize_program            # noqa: E402
from repro.pipeline import CheckSession                  # noqa: E402

UNITS = ["region"]


def _quarantines(session):
    return session.telemetry.metrics.counter(
        "resilience.cache_quarantines").value


def test_corrupt_cache_is_quarantined():
    source = synthesize_program(20, seed=17)
    expected = check_source(source, units=UNITS).render()
    with tempfile.TemporaryDirectory() as cache_dir:
        with CheckSession(units=UNITS, cache_dir=cache_dir) as writer:
            writer.check(source)
        path = writer.record_path()
        with open(path, "r+b") as handle:
            data = handle.read()
            handle.seek(len(data) // 2)
            handle.write(bytes([data[len(data) // 2] ^ 0x40]))

        with CheckSession(units=UNITS, cache_dir=cache_dir) as victim:
            rendered = victim.check(source).render()
        assert rendered == expected
        assert _quarantines(victim) == 1
        quarantined = os.listdir(os.path.join(cache_dir, "corrupt"))
        assert [name.startswith(os.path.basename(path) + ".corrupt.")
                for name in quarantined] == [True], \
            "the corrupt record must be preserved for post-mortems"

        with CheckSession(units=UNITS, cache_dir=cache_dir) as reader:
            reader.check(source)
        assert _quarantines(reader) == 0
        assert reader.last.functions_checked == 0, \
            "the rebuilt record must replay on the next run"
    print("chaos-smoke: file record quarantine + rebuild    OK")


if __name__ == "__main__":
    test_corrupt_cache_is_quarantined()
    print("chaos-smoke: PASS")
