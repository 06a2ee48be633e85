"""Seeded inputs for the end-to-end workloads.

Every input is a pure function of the run's ``--seed``: programs come
from :func:`repro.testing.generate_program` and
:func:`repro.analysis.synthesize_program` with seeds drawn through
:func:`repro.testing.derive_seed`, and edits come from a
``random.Random`` seeded the same way.  Only the revision plan of
ci-rebuild and edit-loop, the order of edit kinds and the insert
points, is fixed (``PLAN_SEED``).

Each workload has a fixed number of operations (``COUNTS``, and
``DAEMON_SECONDS`` of schedule for daemon-mixed), so two commits measure
the same inputs.  :class:`Hashed` hashes the inputs in the order the
program receives them; the digest of every input of a run on the default
seed is pinned in ``inputs_sha256.json``, so a change to the generators
cannot silently change what the benchmark measures.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional

from repro.analysis import synthesize_program
from repro.testing import derive_seed, generate_program

from oracle import expected_from_intents, expected_from_text

#: per-workload salt, so two workloads never share a program seed.
_SALT = {"cold-small": 1, "cold-large": 2, "ci-rebuild": 3,
         "edit-loop": 4, "daemon-mixed": 5}

#: measured operations per workload; each also has set-up inputs (the
#: warm-up program, revision 0, or daemon-mixed's open files).
COUNTS = {"cold-small": 100, "cold-large": 12, "ci-rebuild": 16,
          "edit-loop": 80}
LARGE_FUNCTIONS = 640
FILE_FUNCTIONS = 160
ERROR_RATE = 0.1

#: edit kinds, in percent of a run's revisions.
CI_MIX = {"body": 70, "shift": 20, "iface": 10}
EDIT_LOOP_MIX = {"body": 60, "shift": 25, "resave": 10, "iface": 5}
#: the seed of the revision plan, the order of edit kinds and the
#: functions lines are inserted into, which is the same for every run.
#: A session's memory grows with the chunks each edit re-parses, so a
#: plan drawn from the run's seed spread edit-loop's peak memory 8% over
#: ten seeds; with this plan it spreads under 1%.
PLAN_SEED = 0

#: daemon-mixed, connection A: 20 checks/s for 20 s (60% unchanged
#: re-checks of the 8 open files, 30% one-function edits of them, 10%
#: new generated programs), plus a new 640-function unit every 4 s
#: starting at 2 s.
DAEMON_SECONDS = 20.0
DAEMON_RATE = 20.0
DAEMON_MIX = {"replay": 60, "edit": 30, "new": 10}
DAEMON_FILES = 8
LARGE_PERIOD_S = 4.0
LARGE_OFFSET_S = 2.0


@dataclass
class Source:
    """One input the program receives, with its known answer."""

    filename: str
    text: str
    expected: FrozenSet[str]
    kind: str = "new"
    #: functions whose text or dependencies the edit changed.
    changed_functions: int = 0
    #: daemon-mixed: seconds after the load starts that it is due.
    due: Optional[float] = None

    @property
    def lines(self) -> int:
        return self.text.count("\n") + 1


def base_seed(workload: str, seed: int) -> int:
    return derive_seed(seed, 1000 + _SALT[workload])


def generated(seed: int, filename: str, tag: str = "") -> Source:
    """A generated program; a ``tag`` goes into every client's name."""
    program = generate_program(seed)
    text = program.source
    if tag:
        text = text.replace("client_", f"client_{tag}_")
    return Source(filename, text, expected_from_intents(text, program.intents))


def synthesized(n_functions: int, seed: int, filename: str,
                tag: str = "") -> Source:
    """A synthesized region unit; a ``tag`` goes into every function's
    name."""
    text = synthesize_program(n_functions, seed=seed, error_rate=ERROR_RATE)
    if tag:
        text = text.replace("int worker_", f"int worker_{tag}_")
    return Source(filename, text, expected_from_text(text))


def exact_mix(rng: random.Random, mix: Dict[str, int], n: int) -> List[str]:
    """``n`` kinds in the percentages of ``mix`` (largest remainder
    rounding), in a seeded random order, so every seed sees the same
    mix."""
    counts = {kind: n * pct // 100 for kind, pct in mix.items()}
    by_remainder = sorted(mix, key=lambda k: (n * mix[k]) % 100, reverse=True)
    for kind in by_remainder[:n - sum(counts.values())]:
        counts[kind] += 1
    kinds = [kind for kind, count in counts.items() for _ in range(count)]
    rng.shuffle(kinds)
    return kinds


_VALUE_LINE = re.compile(r"^    c\.value \+= (\d+);$")
_NEW_CELL = "    R:cell c = new(rgn) cell {"
_STRUCT = re.compile(r"^struct cell \{.*\}$")


class UnitEditor:
    """Revisions of a synthesized region unit, one edit at a time.

    * ``body`` changes one constant in place (one function changes);
    * ``shift`` inserts one statement into a function, moving every
      later line; insert points walk the unit in strata so a few
      shifts cover it evenly;
    * ``iface`` renames a padding field of ``struct cell`` and its
      initialiser in every constructor, which every function depends
      on; the name is new each time so no earlier result applies;
    * ``resave`` changes nothing.

    ``place``, when given, picks the function each ``shift`` inserts
    into; ``rng`` picks everything else.
    """

    STRATA = 5

    def __init__(self, text: str, filename: str, rng: random.Random,
                 place: Optional[random.Random] = None):
        self.lines = text.split("\n")
        self.filename = filename
        self.rng = rng
        self.place = place or rng
        self.pad = 0
        self.shifts = 0
        self.n_functions = sum(1 for line in self.lines
                               if line.startswith("int worker_"))

    def _heads(self) -> List[int]:
        return [i for i, line in enumerate(self.lines)
                if line.startswith("int worker_")]

    def _body(self, head: int) -> range:
        end = self.lines.index("}", head)
        return range(head + 1, end)

    def edit(self, kind: str) -> Source:
        rng = self.rng
        changed = 0
        if kind == "body":
            head = rng.choice(self._heads())
            spots = [i for i in self._body(head)
                     if _VALUE_LINE.match(self.lines[i])]
            spot = rng.choice(spots)
            old = int(_VALUE_LINE.match(self.lines[spot]).group(1))
            new = rng.choice([v for v in range(1, 10) if v != old])
            self.lines[spot] = f"    c.value += {new};"
            changed = 1
        elif kind == "shift":
            heads = self._heads()
            stratum = self.shifts % self.STRATA
            self.shifts += 1
            lo = len(heads) * stratum // self.STRATA
            hi = len(heads) * (stratum + 1) // self.STRATA
            head = heads[self.place.randrange(lo, hi)]
            spot = next(i for i in self._body(head)
                        if self.lines[i].startswith(_NEW_CELL))
            self.lines.insert(spot + 1, f"    c.value += {rng.randint(1, 9)};")
            changed = 1
        elif kind == "iface":
            old, self.pad = f"pad{self.pad}", self.pad + 1
            new = f"pad{self.pad}"
            for i, line in enumerate(self.lines):
                if _STRUCT.match(line):
                    self.lines[i] = ("struct cell { int value; int extra; "
                                     f"int {new}; }}")
                elif line.startswith(_NEW_CELL):
                    if old + " = 0;" in line:
                        self.lines[i] = line.replace(old + " = 0;",
                                                     new + " = 0;")
                    else:
                        self.lines[i] = line.replace("extra = 0;",
                                                     f"extra = 0; {new} = 0;")
            changed = self.n_functions
        elif kind != "resave":
            raise ValueError(f"unknown edit kind {kind!r}")
        text = "\n".join(self.lines)
        return Source(self.filename, text, expected_from_text(text),
                      kind=kind, changed_functions=changed)


def cold_small(seed: int) -> Iterator[Source]:
    """The warm-up program, then ``COUNTS["cold-small"]`` programs."""
    base = base_seed("cold-small", seed)
    for i in range(COUNTS["cold-small"] + 1):
        yield generated(derive_seed(base, i), f"small_{i}.vlt")


def cold_large(seed: int) -> Iterator[Source]:
    """The warm-up unit, then ``COUNTS["cold-large"]`` units."""
    base = base_seed("cold-large", seed)
    for i in range(COUNTS["cold-large"] + 1):
        yield synthesized(LARGE_FUNCTIONS, derive_seed(base, i),
                          f"large_{i}.vlt")


def revisions(workload: str, seed: int, mix: Dict[str, int]
              ) -> Iterator[Source]:
    """Revision 0 (a fresh 640-function unit), then
    ``COUNTS[workload]`` edits in the percentages of ``mix``.  The seed
    picks the unit and the constants; the plan (``PLAN_SEED``) picks
    the order of the kinds and the insert points."""
    base = base_seed(workload, seed)
    first = synthesized(LARGE_FUNCTIONS, derive_seed(base, 0), "unit.vlt")
    yield first
    plan = random.Random(PLAN_SEED)
    kinds = exact_mix(plan, mix, COUNTS[workload])
    editor = UnitEditor(first.text, first.filename,
                        random.Random(derive_seed(base, 1)), place=plan)
    for kind in kinds:
        yield editor.edit(kind)


def ci_rebuild(seed: int) -> Iterator[Source]:
    return revisions("ci-rebuild", seed, CI_MIX)


def edit_loop(seed: int) -> Iterator[Source]:
    return revisions("edit-loop", seed, EDIT_LOOP_MIX)


class DaemonLoad:
    """The open files and the request schedule for daemon-mixed.

    One daemon session sees every file, so each file's functions carry
    the file's tag in their names.  A session reuses a declaration's
    parse for an identical declaration at the same line of another
    file, naming the wrong file in its diagnostics (see the README);
    distinct names keep the benchmark's answers clear of it.
    """

    def __init__(self, seed: int):
        self.base = base_seed("daemon-mixed", seed)
        self.files = [synthesized(FILE_FUNCTIONS,
                                  derive_seed(self.base, 10 + f),
                                  f"open_{f}.vlt", tag=f"o{f}")
                      for f in range(DAEMON_FILES)]

    def large(self, n: int) -> Source:
        source = synthesized(LARGE_FUNCTIONS, derive_seed(self.base, 5000 + n),
                             f"large_{n}.vlt", tag=f"l{n}")
        source.kind = "large"
        return source

    def schedule(self) -> List[Source]:
        """Every request of the load, in due order."""
        rng = random.Random(derive_seed(self.base, 1))
        editors = [UnitEditor(f.text, f.filename, rng) for f in self.files]
        current = list(self.files)
        n_checks = int(DAEMON_SECONDS * DAEMON_RATE)
        kinds = exact_mix(random.Random(derive_seed(self.base, 2)),
                          DAEMON_MIX, n_checks)
        requests: List[Source] = []
        large_due = LARGE_OFFSET_S
        n_large = n_new = 0
        for i, kind in enumerate(kinds):
            due = i / DAEMON_RATE
            while large_due <= due:
                requests.append(self.large(n_large))
                requests[-1].due = large_due
                n_large += 1
                large_due += LARGE_PERIOD_S
            if kind == "new":
                source = generated(derive_seed(self.base, 1000 + n_new),
                                   f"new_{n_new}.vlt", tag=f"n{n_new}")
                n_new += 1
            else:
                f = rng.randrange(DAEMON_FILES)
                if kind == "edit":
                    current[f] = editors[f].edit("body")
                source = Source(current[f].filename, current[f].text,
                                current[f].expected)
            source.kind = kind
            source.due = due
            requests.append(source)
        return requests


def daemon_mixed(seed: int) -> Iterator[Source]:
    """The open files, then every scheduled request."""
    load = DaemonLoad(seed)
    yield from load.files
    yield from load.schedule()


STREAMS = {"cold-small": cold_small, "cold-large": cold_large,
           "ci-rebuild": ci_rebuild, "edit-loop": edit_loop,
           "daemon-mixed": daemon_mixed}


class Hashed:
    """A workload's inputs in the order the program receives them,
    hashed as they are taken: each file name and text."""

    def __init__(self, sources: Iterable[Source]):
        self._sources = iter(sources)
        self.digest = hashlib.sha256()

    def __iter__(self) -> "Hashed":
        return self

    def __next__(self) -> Source:
        source = next(self._sources)
        self.digest.update(source.filename.encode())
        self.digest.update(b"\0")
        self.digest.update(source.text.encode())
        self.digest.update(b"\0")
        return source

    def take(self, n: int) -> List[Source]:
        return [next(self) for _ in range(n)]


def stream(workload: str, seed: int) -> Hashed:
    return Hashed(STREAMS[workload](seed))


def inputs_sha256(workload: str, seed: int) -> str:
    """Digest of every input a run of ``workload`` measures."""
    inputs = stream(workload, seed)
    for _ in inputs:
        pass
    return inputs.digest.hexdigest()


def sample_indices(n: int, count: int) -> FrozenSet[int]:
    """``count`` operation indices spread evenly over ``n``."""
    return frozenset(int(k * n / count) for k in range(min(n, count)))
