"""The host reference job: a fixed piece of work that does not depend on
the program under test.

``workload.py`` runs it in a fresh process between operations.  The
median of its wall times over a run says how fast the host ran during
that run, and the benchmark scales every time it reports by
``HOST_REF_NOMINAL_S / median`` (README, "Host-speed normalisation").
Like a fresh ``vaultc check``, the job starts an interpreter, imports
standard modules, tokenizes a text with a regular expression, builds a
tree of small objects and walks it.  It uses only the standard library.
"""

import argparse  # noqa: F401
import collections  # noqa: F401
import dataclasses  # noqa: F401
import enum  # noqa: F401
import hashlib  # noqa: F401
import json  # noqa: F401
import re
import typing  # noqa: F401

FUNCTIONS = 1000
WORD = re.compile(r"[A-Za-z_]\w*|\d+|\S")


class Node:
    __slots__ = ("kind", "kids")

    def __init__(self, kind, kids):
        self.kind = kind
        self.kids = kids


def main():
    text = " ".join(f"int f{i}(int x) {{ return x * {i} + g(x - {i % 7}); }}"
                    for i in range(FUNCTIONS))
    stack = [[]]
    for token in (m.group() for m in WORD.finditer(text)):
        if token in "({":
            stack.append([])
        elif token in ")}":
            kids = stack.pop()
            stack[-1].append(Node(token, kids))
        else:
            stack[-1].append(Node(token, ()))
    counts = {}
    todo = list(stack[0])
    while todo:
        node = todo.pop()
        counts[node.kind] = counts.get(node.kind, 0) + 1
        todo.extend(node.kids)
    return counts


if __name__ == "__main__":
    main()
