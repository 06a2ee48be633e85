"""Loading of the standard Vault interface library.

The ``vault/`` directory holds the interfaces the paper develops:
``region.vlt`` (§2.2), ``socket.vlt`` (§2.3), ``file.vlt`` (the FILE
examples of §2.1) and ``ntkernel.vlt`` (the Windows 2000 kernel/driver
interface of §4).  :func:`stdlib_programs` parses whichever of them a
caller requests, defaulting to all.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Iterable, List, Optional, Sequence, Tuple

from ..syntax import ast, parse_program

_VAULT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "vault")

#: Load order matters only for readability; names are global either way.
STDLIB_UNITS = ("region", "file", "socket", "ntkernel", "transactions",
                "gdi", "iterator", "channel", "stack")


def stdlib_path(unit: str) -> str:
    return os.path.join(_VAULT_DIR, f"{unit}.vlt")


def available_units() -> List[str]:
    return sorted(
        name[:-4] for name in os.listdir(_VAULT_DIR) if name.endswith(".vlt"))


@lru_cache(maxsize=None)
def _load_unit(unit: str) -> ast.Program:
    path = stdlib_path(unit)
    with open(path, "r", encoding="utf-8") as handle:
        return parse_program(handle.read(), filename=f"<stdlib:{unit}>")


@lru_cache(maxsize=None)
def _default_units() -> Tuple[str, ...]:
    """The ``STDLIB_UNITS`` whose file exists, resolved once per
    process: every check without ``units`` asks for them."""
    return tuple(u for u in STDLIB_UNITS if os.path.exists(stdlib_path(u)))


def stdlib_programs(units: Optional[Sequence[str]] = None) -> List[ast.Program]:
    """Parsed stdlib compilation units (cached)."""
    chosen: Iterable[str] = units if units is not None else _default_units()
    return [_load_unit(u) for u in chosen]


def stdlib_source(unit: str) -> str:
    with open(stdlib_path(unit), "r", encoding="utf-8") as handle:
        return handle.read()


@lru_cache(maxsize=None)
def _base_context(units: Tuple[str, ...]):
    # Imported here: repro.core pulls in the elaborator, which this
    # module must not import at load time (loader is imported by the
    # stdlib package before core is fully initialised in some paths).
    from ..core import build_context
    from ..diagnostics import Reporter
    reporter = Reporter(None, "<stdlib>")
    ctx = build_context([_load_unit(u) for u in units], reporter)
    return ctx, tuple(reporter.diagnostics)


def base_context_cache_info():
    """Hit/miss statistics for the process-wide base-context cache
    (the pipeline's telemetry reads this to attribute stdlib-layer
    hits without re-deriving the cache key)."""
    return _base_context.cache_info()


def stdlib_context(units: Optional[Sequence[str]] = None):
    """A fully elaborated context for the requested stdlib units, plus
    any diagnostics its elaboration produced (normally none).

    Built once per process per unit tuple; callers must treat the
    result as immutable and layer their own program on top with
    ``build_context(..., base=ctx)``.
    """
    chosen: Tuple[str, ...] = tuple(units) if units is not None \
        else _default_units()
    return _base_context(chosen)
