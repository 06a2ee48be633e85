"""Peak memory of each process the end-to-end benchmark measures.

``site`` imports this module at the start-up of every Python process
whose ``PYTHONPATH`` names this directory.  When ``VAULTC_BENCH_HWM``
names a file, the process writes its peak resident set size
(``VmHWM``, in kB) there at exit.  ``wait4``'s ``ru_maxrss`` cannot
stand in for it: the kernel folds the memory image a child replaces at
exec, which is its parent's, into the child's ``ru_maxrss``, so a small
child reports its parent's peak.
"""

import atexit
import os

_PATH = os.environ.pop("VAULTC_BENCH_HWM", None)


def _write_hwm() -> None:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                with open(_PATH, "w", encoding="ascii") as out:
                    out.write(line.split()[1])
                return


if _PATH:
    atexit.register(_write_hwm)
