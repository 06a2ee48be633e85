"""Ground truth for the end-to-end benchmark.

Every verdict the benchmark accepts is checked against an answer known
from how the input was made, never against the checker itself:

* a program from :func:`repro.testing.generate_program` must flag
  exactly the ``client_*`` functions whose recorded intent is a
  deliberate protocol violation, and nothing else;
* a unit from :func:`repro.analysis.synthesize_program` (or one of the
  benchmark's edits of it) must flag exactly the functions whose text
  carries a seeded region bug: zero or two ``Region.delete`` calls, or
  a ``c.value`` use after the delete.

Rendered diagnostics are mapped to functions by their ``file:line:col``
header and the line span of each top-level function in the source.
"""

from __future__ import annotations

import re
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.testing import canonical_stdout
from repro.testing.generate import VIOLATION_INTENTS

#: a top-level function head: ``int name(...) {`` at column 0.  Both
#: generators put every function head on one line and its closing
#: brace alone at column 0.
_FUNCTION_HEAD = re.compile(r"^[A-Za-z_][\w ]*?\b([A-Za-z_]\w*)\s*\(.*\{\s*$")
_CLIENT_HEAD = re.compile(r"^int (client_\w+)\(")
_ERROR_COUNT = re.compile(r"^(.+): (\d+) error\(s\)$")


def function_spans(source: str) -> List[Tuple[str, int, int]]:
    """``(name, first_line, last_line)`` of each top-level function,
    1-based and inclusive."""
    spans: List[Tuple[str, int, int]] = []
    current: Optional[Tuple[str, int]] = None
    for number, line in enumerate(source.split("\n"), start=1):
        if current is None:
            match = _FUNCTION_HEAD.match(line)
            if match:
                current = (match.group(1), number)
        elif line.rstrip() == "}":
            spans.append((current[0], current[1], number))
            current = None
    return spans


def expected_from_intents(source: str, intents: Sequence[str]) -> FrozenSet[str]:
    """The generator's answer: client functions, in source order, paired
    with the intent it recorded for each."""
    clients = [m.group(1) for m in map(_CLIENT_HEAD.match, source.split("\n"))
               if m]
    if len(clients) != len(intents):
        raise ValueError(f"{len(clients)} client functions in the text but "
                         f"{len(intents)} recorded intents")
    return frozenset(name for name, intent in zip(clients, intents)
                     if intent in VIOLATION_INTENTS)


def expected_from_text(source: str) -> FrozenSet[str]:
    """The seeded bugs of a synthesized region unit, read off its text."""
    lines = source.split("\n")
    flagged = set()
    for name, first, last in function_spans(source):
        body = lines[first - 1:last]
        deletes = [i for i, line in enumerate(body) if "Region.delete(" in line]
        if len(deletes) != 1 or any("c.value" in line
                                    for line in body[deletes[0] + 1:]):
            flagged.add(name)
    return frozenset(flagged)


def flagged_functions(render: str, source: str, filename: str
                      ) -> Tuple[FrozenSet[str], int]:
    """Functions carrying an error in ``render``, and the number of
    error headers.  An error outside every function is reported as the
    pseudo-function ``<top level>`` so it can never match the truth."""
    spans = function_spans(source)
    header = re.compile(re.escape(filename) + r":(\d+):\d+: error \[")
    names = set()
    count = 0
    for line in render.split("\n"):
        match = header.match(line)
        if not match:
            continue
        count += 1
        at = int(match.group(1))
        names.add(next((name for name, first, last in spans
                        if first <= at <= last), "<top level>"))
    return frozenset(names), count


def verify(expected: FrozenSet[str], source: str, filename: str,
           stdout: str, exit_code: int) -> Optional[str]:
    """Why an answer is wrong, or ``None`` when it is right.

    ``stdout`` is what ``vaultc check`` printed, or what it would print
    for a reply or report that did not come from the CLI.
    """
    want_exit = 1 if expected else 0
    if exit_code != want_exit:
        return f"exit code {exit_code}, expected {want_exit}"
    if not expected:
        if stdout != canonical_stdout(True, "", 0, filename):
            return "exit code 0 without the OK line"
        return None
    got, headers = flagged_functions(stdout, source, filename)
    if got != expected:
        missing = sorted(expected - got)[:3]
        extra = sorted(got - expected)[:3]
        return f"flagged set differs: missing {missing}, unexpected {extra}"
    trailer = _ERROR_COUNT.match(stdout.rstrip("\n").rsplit("\n", 1)[-1])
    if not trailer or int(trailer.group(2)) != headers:
        return f"{headers} error headers but the trailer says " \
               f"{trailer.group(2) if trailer else 'nothing'}"
    return None
