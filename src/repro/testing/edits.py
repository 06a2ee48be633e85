"""Edit-sequence differential fuzzing: incremental state must never
change an answer.

The plain fuzz loop (:mod:`repro.testing.fuzz`) re-checks the *same*
program in a warm session; no path ever edits.  This module walks a
seeded *sequence of revisions* of one unit the way an editor or a CI
rebuild would, and asserts that every revision renders byte-identically
to a from-scratch :func:`repro.check_source`, whatever the session saw
before.  The invariant is the paper's modularity (§3): a function's
verdict depends only on its own text and the declarations it sees.

Each sequence is walked three ways:

``session``
    one :class:`~repro.pipeline.CheckSession` checks every revision
    (what ``vaultc watch`` does);
``cache-dir``
    a fresh ``CheckSession(cache_dir=DIR)`` per revision over one
    shared ``DIR`` (what a CI rebuild running ``vaultc check --cache
    DIR`` does): the file's record replays an unchanged revision, and
    its position-free summaries replay every function an edit left
    alone, wherever it now sits.  Once per sequence, at a seeded
    revision, one byte of the file's record is flipped and the
    revision checked again: that session must quarantine the record
    and still answer like ``check_source``;
``daemon``
    every revision is sent to one in-process check daemon, which
    lives for the whole :func:`run_edit_fuzz` call, so its warm
    session carries state from sequence to sequence
    (what ``vaultc check --daemon`` does).  Without ``AF_UNIX`` the
    path is skipped and the report says so.

and then every walk runs again with the session's file cap patched
down to :data:`SMALL_CAP` (one file), so that evictions interleave
with edits.

A divergent sequence is shrunk: revisions are dropped one at a time
while the same path still diverges (:func:`shrink_sequence`), and the
divergence reports the shortest sequence's edit kinds.

A syntax error is an outcome too: every path must raise the same
error message that ``check_source`` raises (the daemon answers it
with a ``vault_error`` reply carrying that message).

Everything is a pure function of the seed: ``edit_sequence(seed)``
always yields the same revisions.
"""

from __future__ import annotations

import io
import os
import random
import re
import shutil
import tempfile
from collections import Counter
from contextlib import contextmanager, redirect_stderr
from functools import partial
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro import check_source
from repro.diagnostics import VaultError
from repro.testing.differential import (InProcessDaemon, canonical_stdout,
                                        daemon_available)

__all__ = ["EDIT_KINDS", "SMALL_CAP", "Revision", "EditDivergence",
           "EditFuzzReport", "edit_sequence", "run_edit_fuzz",
           "shrink_sequence"]

#: every edit the generator applies (``start`` is the first revision).
EDIT_KINDS = ("body_constant", "body_call", "blank_above", "blank_inside",
              "blank_delete", "effect_clause", "signature", "struct_field",
              "syntax_error", "form_feed", "revert", "rename_file",
              "move_function", "header_reflow", "resave", "declare_between")

#: the file cap the second walk patches onto the session module: one
#: file, so that a ``rename_file`` evicts the other name's state
#: mid-sequence.
SMALL_CAP = 1

#: a top-level function definition's first line (column 0, ends in
#: ``{``), and the line that closes it.
_FUN_HEAD = re.compile(r"^[A-Za-z_][^\n;={}]*\([^\n;{}]*\)[^\n;{}]*\{$")
_INT = re.compile(r"(?<![\w.])\d+(?![\w.])")
_RETURN = re.compile(r"^\s*return \w[^;]*;$")
_CALL = re.compile(r"^\s*[\w.]+\([^;]*\);$")
_PARAM = re.compile(r"\((?:int|bool) (\w+)")
_EFFECT = re.compile(r"\[(-?)(\w+)@(\w+)(->\w+)?\]")
_STRUCT = re.compile(r"^struct \w+ \{", re.M)
_VARIANT_KEY = re.compile(r"\{(\w+)@(\w+)\}")


@dataclass(frozen=True)
class Revision:
    """One saved revision of the unit."""

    kind: str          # the edit that produced it (``start`` first)
    source: str
    filename: str


@dataclass
class EditDivergence:
    """A revision whose rendering differed from ``check_source``."""

    sequence_seed: int
    revision: int                 # index into the sequence
    kinds: List[str]              # edit kinds up to and including it
    path: str                     # e.g. ``session`` or ``cache-dir/cap1``
    expected: str
    actual: str
    #: edit kinds of the shortest sub-sequence on which ``path`` still
    #: diverges (filled in by :func:`run_edit_fuzz`)
    shrunk: List[str] = field(default_factory=list)


@dataclass
class EditFuzzReport:
    """Summary of one ``run_edit_fuzz`` invocation."""

    seed: int
    count: int
    revisions: int = 0
    paths: List[str] = field(default_factory=list)
    kinds: Dict[str, int] = field(default_factory=dict)
    divergences: List[EditDivergence] = field(default_factory=list)
    #: corrupt file records the ``cache-dir`` walks quarantined
    record_quarantines: int = 0
    #: paths this platform cannot run (``daemon`` without ``AF_UNIX``)
    skipped_paths: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


# ---------------------------------------------------------------------------
# The edit generator
# ---------------------------------------------------------------------------

def _functions(lines: List[str]) -> List[Tuple[int, int]]:
    """``(head, close)`` line indices of each top-level definition."""
    spans = []
    for i, line in enumerate(lines):
        if _FUN_HEAD.match(line) and not line.startswith(
                ("struct", "interface", "module", "variant", "extern")):
            for j in range(i + 1, len(lines)):
                if lines[j] == "}":
                    spans.append((i, j))
                    break
    return spans


def _base_unit(rng: random.Random) -> str:
    from repro.analysis import synthesize_program
    from repro.testing.generate import generate_program
    if rng.random() < 0.5:
        return generate_program(rng.randrange(1 << 30)).source
    return synthesize_program(rng.randint(4, 16), seed=rng.randrange(1 << 30),
                              error_rate=rng.choice((0.0, 0.3, 1.0)))


def _edit(rng: random.Random, kind: str, lines: List[str]) -> bool:
    """Apply one edit of ``kind`` to ``lines`` in place; False when the
    unit offers no place for it."""
    funs = _functions(lines)
    if not funs:
        return False
    head, close = rng.choice(funs)
    if kind == "body_constant":
        # An integer literal, or a constant added to a return value.
        spots = [(i, m.start(), m.end()) for i in range(head + 1, close)
                 for m in _INT.finditer(lines[i])]
        spots += [(i, len(lines[i]) - 1, len(lines[i]) - 1)
                  for i in range(head + 1, close)
                  if _RETURN.match(lines[i])]
        if not spots:
            return False
        i, start, end = rng.choice(spots)
        constant = str(rng.randint(0, 99))
        if start == end:
            constant = f" + {constant}"
        lines[i] = lines[i][:start] + constant + lines[i][end:]
    elif kind == "body_call":
        # Comment out or repeat a call statement in place: usually
        # flips a verdict (a leak, a double consume, a wrong state)
        # without moving any line.
        calls = [i for i in range(head + 1, close) if _CALL.match(lines[i])]
        if not calls:
            return False
        i = rng.choice(calls)
        if rng.random() < 0.5:
            lines[i] = "//" + lines[i]
        else:
            lines[i] += " " + lines[i].strip()
    elif kind == "blank_above":
        lines.insert(head, "")
    elif kind == "blank_inside":
        lines.insert(rng.randint(head + 1, close), "")
    elif kind == "blank_delete":
        blanks = [i for i, line in enumerate(lines) if not line.strip()]
        if not blanks:
            return False
        del lines[rng.choice(blanks)]
    elif kind == "effect_clause":
        # A declared effect clause (an interface operation's, usually):
        # retarget its post-state, so every caller's view changes.
        spots = [(i, m) for i, line in enumerate(lines)
                 for m in _EFFECT.finditer(line)]
        if not spots:
            return False
        i, m = rng.choice(spots)
        states = sorted(set(re.findall(r"\bq\d+\b", "\n".join(lines))))
        state = rng.choice(states) if states else m.group(3)
        new = f"[-{m.group(2)}@{state}]" if m.group(1) \
            else f"[{m.group(2)}@{m.group(3)}->{state}]"
        lines[i] = lines[i][:m.start()] + new + lines[i][m.end():]
    elif kind == "signature":
        m = _PARAM.search(lines[head])
        if m is None:
            return False
        if rng.random() < 0.5:
            lines[head] = (lines[head][:m.start(1)] + m.group(1) + "2"
                           + lines[head][m.end(1):])
        else:
            lines[head] = lines[head].replace("(", "(int extra, ", 1)
    elif kind == "struct_field":
        text = "\n".join(lines)
        if _STRUCT.search(text):
            i = next(i for i, line in enumerate(lines)
                     if _STRUCT.match(line))
            if "int pad;" in lines[i]:
                lines[i] = lines[i].replace(" int pad;", "", 1)
            else:
                lines[i] = lines[i].replace("{", "{ int pad;", 1)
        else:
            spots = [(i, m) for i, line in enumerate(lines)
                     if line.startswith("variant")
                     for m in _VARIANT_KEY.finditer(line)]
            if not spots:
                return False
            i, m = rng.choice(spots)
            state = "q1" if m.group(2) != "q1" else "q0"
            lines[i] = (lines[i][:m.start()] + f"{{{m.group(1)}@{state}}}"
                        + lines[i][m.end():])
    elif kind == "syntax_error":
        ends = [i for i in range(head + 1, close)
                if lines[i].rstrip().endswith(";")]
        if not ends:
            return False
        i = rng.choice(ends)
        lines[i] = lines[i].rstrip()[:-1] + " + ;"
    elif kind == "form_feed":
        lines.insert(head, "// \f\f\f")
    elif kind == "move_function":
        # Cut the whole function and paste it above another one, or at
        # the top of the unit: its summary must replay at a new line.
        block = lines[head:close + 1]
        del lines[head:close + 1]
        targets = sorted({0, *(h for h, _ in _functions(lines))} - {head})
        if not targets:
            return False
        at = rng.choice(targets)
        lines[at:at] = block
    elif kind == "declare_between":
        # A struct or a function-type alias between two functions.  A
        # function above uses the alias, whose unknown parameter type
        # is then reported at the alias's line.  A line inserted
        # between the two later moves the declaration with its text
        # unchanged and leaves the user in place: the context must be
        # elaborated again, and the user's held result not served.
        if len(funs) < 2:
            return False
        at = rng.randrange(1, len(funs))
        user = rng.choice(funs[:at])[0]
        name = "spare%d" % sum(line.startswith(("struct spare", "type spare"))
                               for line in lines)
        if rng.random() < 0.5:
            lines.insert(funs[at][0], f"struct {name} {{ int a; }}")
        else:
            lines.insert(funs[at][0], f"type {name} = void f(Bogus x);")
            lines.insert(user + 1, f"    {name} {name}_h;")
    elif kind == "header_reflow":
        # Break the header after its ``(``: the same tokens, so the same
        # interface, but its parameters and every later function move
        # down a line.
        at = lines[head].index("(") + 1
        lines[head:head + 1] = [lines[head][:at], "    " + lines[head][at:]]
    else:
        raise ValueError(f"unknown edit kind {kind!r}")
    return True


def edit_sequence(seed: int, length: int = 8) -> List[Revision]:
    """A seeded sequence of ``length`` revisions of one unit.

    A syntax error is always followed by its repair (the revision
    before it, re-saved), as an editor session would produce.
    """
    rng = random.Random(seed)
    source = _base_unit(rng)
    filename = f"edit-{seed}.vlt"
    revisions = [Revision("start", source, filename)]
    while len(revisions) < length:
        last = revisions[-1]
        if last.kind == "syntax_error":
            repaired = revisions[-2]
            revisions.append(Revision("repair", repaired.source, filename))
            continue
        kind = rng.choice(EDIT_KINDS)
        if kind == "revert":
            earlier = rng.choice(revisions[:-1] or revisions)
            revisions.append(Revision(kind, earlier.source, filename))
            continue
        if kind == "rename_file":
            revisions.append(Revision(kind, last.source, "other.vlt"))
            continue
        if kind == "resave":
            revisions.append(Revision(kind, last.source, last.filename))
            continue
        lines = last.source.split("\n")
        if _edit(rng, kind, lines):
            revisions.append(Revision(kind, "\n".join(lines), filename))
    return revisions


# ---------------------------------------------------------------------------
# Walking a sequence
# ---------------------------------------------------------------------------

def _outcome(check: Callable[[str, str], object], rev: Revision) -> str:
    """What ``vaultc check`` reports: stdout bytes, or the error."""
    try:
        report = check(rev.source, rev.filename)
    except VaultError as exc:
        return f"error: {exc}\n"
    return canonical_stdout(report.ok, report.render(), len(report.errors),
                            rev.filename)


def _daemon_outcome(daemon: InProcessDaemon, rev: Revision) -> str:
    """:func:`_outcome` for a daemon reply: a ``vault_error`` reply is
    the ``VaultError`` the in-process check raises."""
    reply = daemon.check(rev.source, rev.filename)
    if reply.get("ok"):
        return canonical_stdout(reply["check_ok"], reply["render"],
                                reply["errors"], rev.filename)
    if reply.get("kind") == "vault_error":
        return f"error: {reply['error']}\n"
    return f"<daemon error: {reply!r}>\n"


@contextmanager
def _caps(value: Optional[int]) -> Iterator[str]:
    """Patch the session's file cap to ``value`` (``None``: leave it);
    yields the path-name suffix."""
    if value is None:
        yield ""
        return
    from repro.pipeline import session as session_mod
    saved = session_mod._MAX_FILES
    try:
        session_mod._MAX_FILES = value
        yield f"/cap{value}"
    finally:
        session_mod._MAX_FILES = saved


def walk(revisions: List[Revision], sequence_seed: int = 0,
         caps: Optional[int] = None,
         daemon: Optional[InProcessDaemon] = None,
         only: Optional[str] = None
         ) -> Tuple[List[str], List[EditDivergence], int]:
    """Check ``revisions`` through the two session paths, and through
    ``daemon`` when one is given (through the path named ``only``
    alone, when that is given); returns the path names, every
    divergence from ``check_source``, and how many corrupt file
    records the ``cache-dir`` path quarantined.

    At one seeded revision the ``cache-dir`` path flips a byte of the
    file's record and checks the same revision again, as a re-save
    would: that session must quarantine the record and still answer
    like ``check_source``, and the walk goes on from the record it
    rebuilt."""
    from repro.pipeline import CheckSession, FaultPlan
    expected = [_outcome(check_source, r) for r in revisions]
    divergences: List[EditDivergence] = []
    flip_at = random.Random(sequence_seed).randrange(len(revisions))
    quarantines = 0
    cache_dir = tempfile.mkdtemp(prefix="vault-edits-")

    def cache_dir_check(source: str, filename: str):
        nonlocal quarantines
        fresh = CheckSession(cache_dir=cache_dir)
        try:
            # The quarantine notice on stderr is expected noise here.
            with redirect_stderr(io.StringIO()):
                return fresh.check(source, filename)
        finally:
            quarantines += fresh.telemetry.metrics.counter(
                "resilience.cache_quarantines").value

    try:
        with _caps(caps) as suffix:
            session = CheckSession()
            record_path = CheckSession(cache_dir=cache_dir).record_path
            walks: Dict[str, Callable[[Revision], str]] = {
                f"session{suffix}": partial(_outcome, session.check),
                f"cache-dir{suffix}": partial(_outcome, cache_dir_check),
            }
            if daemon is not None:
                walks[f"daemon{suffix}"] = partial(_daemon_outcome, daemon)
            if only is not None:
                walks = {only: walks[only]}
            for path, outcome in walks.items():
                for index, rev in enumerate(revisions):
                    outcomes = [outcome(rev)]
                    record = record_path(rev.filename)
                    if path.startswith("cache-dir") and index == flip_at \
                            and os.path.exists(record):
                        FaultPlan(seed=sequence_seed).flip_file_byte(record)
                        outcomes.append(outcome(rev))
                    for actual in outcomes:
                        if actual != expected[index]:
                            divergences.append(EditDivergence(
                                sequence_seed, index,
                                [r.kind for r in revisions[:index + 1]],
                                path, expected[index], actual))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return list(walks), divergences, quarantines


def shrink_sequence(revisions: List[Revision], path: str,
                    sequence_seed: int = 0, caps: Optional[int] = None,
                    daemon: Optional[InProcessDaemon] = None
                    ) -> List[Revision]:
    """The shortest sub-sequence of ``revisions`` found by dropping
    one revision at a time while ``path`` still diverges on what is
    left (each try walks that one path afresh)."""
    current = list(revisions)
    index = 0
    while index < len(current) and len(current) > 1:
        candidate = current[:index] + current[index + 1:]
        if walk(candidate, sequence_seed, caps, daemon, path)[1]:
            current = candidate
        else:
            index += 1
    return current


@contextmanager
def _daemon(report: EditFuzzReport) -> Iterator[Optional[InProcessDaemon]]:
    """One in-process daemon for a whole fuzz run, or ``None`` (and a
    skipped path on the report) without ``AF_UNIX``."""
    if not daemon_available():
        report.skipped_paths.append("daemon")
        yield None
        return
    directory = tempfile.mkdtemp(prefix="vault-edits-daemon-")
    daemon = InProcessDaemon(os.path.join(directory, "check.sock"))
    try:
        yield daemon
    finally:
        daemon.close()
        shutil.rmtree(directory, ignore_errors=True)


def run_edit_fuzz(count: int, seed: int, length: int = 8) -> EditFuzzReport:
    """Walk ``count`` seeded edit sequences, at the session's own file
    cap and again at :data:`SMALL_CAP`."""
    from repro.testing.fuzz import derive_seed
    report = EditFuzzReport(seed=seed, count=count)
    kinds: Counter = Counter()
    with _daemon(report) as daemon:
        for index in range(count):
            sequence_seed = derive_seed(seed, index)
            revisions = edit_sequence(sequence_seed, length)
            report.revisions += len(revisions)
            kinds.update(rev.kind for rev in revisions)
            for caps in (None, SMALL_CAP):
                paths, found, quarantines = walk(revisions, sequence_seed,
                                                 caps, daemon)
                shrunk: Dict[str, List[str]] = {}
                for d in found:
                    if d.path not in shrunk:
                        shrunk[d.path] = [r.kind for r in shrink_sequence(
                            revisions, d.path, sequence_seed, caps, daemon)]
                    d.shrunk = shrunk[d.path]
                report.divergences.extend(found)
                report.record_quarantines += quarantines
                for path in paths:
                    if path not in report.paths:
                        report.paths.append(path)
    report.kinds = dict(sorted(kinds.items()))
    return report
