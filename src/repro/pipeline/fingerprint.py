"""Stable content fingerprints for function summaries.

The checker is modular (paper §3): the result of checking a function
depends only on the function's own text and on the *declarations* it
references — callee signatures with their effect clauses, struct and
variant layouts, statesets with their partial order, and global keys.
A summary fingerprint hashes exactly that closure, so an edit
invalidates a cached summary precisely when it could change the
function's diagnostics:

* editing a function's body or effect clause changes its own text;
* editing a callee's effect clause changes the callee's rendered
  signature, which is part of every caller's fingerprint;
* editing a ``stateset`` changes the rendered stateset, which is part
  of the fingerprint of every function whose dependency closure
  reaches it (through a global key, a guard, or an effect clause).

Renderings deliberately avoid ``repr`` of runtime objects (key uids,
spans), so fingerprints are stable across processes and across
re-parses — that is what makes on-disk summary persistence sound.
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict, Iterable, List, Set, Tuple

from ..core.program import ProgramContext
from ..syntax import pretty
from ..syntax.lexer import IDENT_PATTERN, NUMBER_PATTERN

_IDENT = re.compile(r"[A-Za-z_]\w*")

#: the lexer's identifier and number tokens; the number alternative
#: consumes the letters a number token would, so an identifier is
#: captured only where the lexer would start one.
_WORDS = re.compile(f"(?:{NUMBER_PATTERN})|({IDENT_PATTERN})")


def scan_names(text: str) -> frozenset:
    """Every identifier-shaped word of ``text``, split the way the
    lexer splits it (ASCII identifiers; a number takes the letters it
    can, so ``0x1Fcell`` yields only ``ll``).

    Comments, strings and keywords contribute words too, so the set is
    a superset of the names a function's AST mentions; an extra name
    can only over-invalidate a summary, never under-.
    """
    names = set(_WORDS.findall(text))
    names.discard("")
    return frozenset(names)


def _render_struct(info) -> str:
    fields = ";".join(f"{name}:{ctype.show()}" for name, ctype in info.fields)
    return f"struct {info.name}<{info.params}>{{{fields}}}"


def _render_variant(info) -> str:
    ctors = ";".join(
        f"{c.name}({','.join(t.show() for t in c.arg_types)})"
        f"{{{','.join(f'{k}@{req!s}' for k, req in c.key_attach)}}}"
        for c in info.ctors)
    return f"variant {info.name}<{info.params}>{{{ctors}}}"


def _render_alias(info) -> str:
    rhs = pretty(info.rhs) if info.rhs is not None else "<abstract>"
    return f"type {info.name}<{info.params}>={rhs} owner={info.owner}"


def _render_stateset(sset) -> str:
    return f"stateset {sset.name}{{{sset.states}}} order={sset.edges}"


def _render_global_key(info) -> str:
    return f"key {info.name}:{info.stateset}@{info.initial}"


def _sig_show(sig) -> str:
    """``Signature.show()``, memoised on the signature object (stdlib
    signatures are shared by every context layered on the cached base,
    so each renders once per process)."""
    cached = sig.__dict__.get("_pl_show")
    if cached is None:
        cached = sig.show()
        object.__setattr__(sig, "_pl_show", cached)
    return cached


def _declared_names(ctx: ProgramContext) -> frozenset:
    """Every name that resolves to *something* in this context —
    including the bare member part of qualified function names, which
    is how ``M.f`` call sites appear in a collected name set."""
    names = ctx.__dict__.get("_pl_decl_names")
    if names is None:
        collected: Set[str] = set()
        collected.update(ctx.structs)
        collected.update(ctx.variants)
        collected.update(ctx.ctor_index)
        collected.update(ctx.type_decls)
        collected.update(ctx.statespace.sets)
        collected.update(ctx.global_keys)
        collected.update(ctx.modules)
        for qual in ctx.functions:
            collected.add(qual)
            _, dot, member = qual.rpartition(".")
            if dot:
                collected.add(member)
        names = frozenset(collected)
        ctx.__dict__["_pl_decl_names"] = names
    return names


def _module_members(ctx: ProgramContext) -> Dict[str, Dict[str, object]]:
    """``module name -> {member name -> (qual, signature)}`` for every
    qualified function, built once per context: the fixpoint below
    resolves ``M.f`` call sites per function, and scanning the whole
    ``ctx.functions`` table for each one was quadratic in unit size
    (the dominant fingerprint cost on multi-hundred-function units)."""
    index = ctx.__dict__.get("_pl_module_members")
    if index is None:
        index = {}
        for qual, sig in ctx.functions.items():
            mod, dot, member = qual.rpartition(".")
            if dot:
                index.setdefault(mod, {})[member] = (qual, sig)
        ctx.__dict__["_pl_module_members"] = index
    return index


def dependency_renderings(ctx: ProgramContext, names: Iterable[str],
                          module: str = "") -> List[str]:
    """Stable renderings of every declaration the name set can reach.

    Runs a small fixpoint: identifiers appearing in an included
    rendering (e.g. a type name inside a callee's signature) pull in
    their own declarations, so deep layout/protocol changes propagate
    into the fingerprint of every (transitive) user.

    Memoised per context on the *relevant* name subset: names that
    resolve to no declaration at all (locals, field names, state
    literals of undeclared sets) cannot contribute renderings, so two
    functions whose name sets differ only in such noise share one
    fixpoint run.  A context's declaration tables are immutable once
    built (a session that reuses a context for a revision with the
    same interface re-points only its ``fun_defs``, which no rendering
    reads), which is what makes caching on the instance sound.
    """
    relevant = frozenset(names) & _declared_names(ctx)
    memo: Dict[Tuple[str, frozenset], List[str]] = \
        ctx.__dict__.setdefault("_pl_dep_memo", {})
    memo_key = (module, relevant)
    cached = memo.get(memo_key)
    if cached is not None:
        return cached
    names = relevant
    rendered: Dict[str, str] = {}
    initial = set(names)
    pending = set(initial)
    seen: Set[str] = set()

    def include(key: str, text: str) -> None:
        if key not in rendered:
            rendered[key] = text
            pending.update(_IDENT.findall(text))

    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        info = ctx.structs.get(name)
        if info is not None:
            include(f"s:{name}", _render_struct(info))
        vinfo = ctx.variants.get(name)
        if vinfo is not None:
            include(f"v:{name}", _render_variant(vinfo))
        vname = ctx.ctor_index.get(name)
        if vname is not None:
            include(f"v:{vname}", _render_variant(ctx.variants[vname]))
        tinfo = ctx.type_decls.get(name)
        if tinfo is not None and tinfo.kind == "alias":
            include(f"t:{name}", _render_alias(tinfo))
        sset = ctx.statespace.sets.get(name)
        if sset is not None:
            include(f"ss:{name}", _render_stateset(sset))
        kinfo = ctx.global_keys.get(name)
        if kinfo is not None:
            include(f"k:{name}", _render_global_key(kinfo))
        sig = ctx.functions.get(name)
        if sig is not None:
            include(f"f:{name}", _sig_show(sig))
        if module:
            qual = f"{module}.{name}"
            sig = ctx.functions.get(qual)
            if sig is not None:
                include(f"f:{qual}", _sig_show(sig))
        # Module-qualified calls appear as ``M.f``: the name scan
        # collects ``M`` and ``f`` separately, so when this name is a
        # module, include the signatures of its members that the
        # function mentions.
        if name in ctx.modules:
            members = _module_members(ctx).get(name)
            if members:
                for member, (qual, qsig) in members.items():
                    if member in initial:
                        include(f"f:{qual}", _sig_show(qsig))
    result = sorted(rendered.values())
    memo[memo_key] = result
    return result


def cache_checksum(blob: bytes) -> str:
    """Content checksum (hex SHA-256) for on-disk cache payloads.

    The on-disk store (``repro.cache``) embeds this over every blob's
    pickled body, so a torn write or bit rot is *detected* at load
    time — corruption becomes a quarantine-and-rebuild, never a
    silently wrong replay — and derives its store keys from it, so
    every byte the checker persists or ships over the wire carries
    the same checksum discipline.
    Lives here with the other content-hashing so every stable hash
    the pipeline persists is derived in one module.
    """
    return hashlib.sha256(blob).hexdigest()


def function_fingerprint(ctx: ProgramContext, qual: str,
                         own_text: str) -> str:
    """The summary cache key for one function definition, from its own
    source text (see :func:`scan_names` for the names it references)."""
    module = qual.rpartition(".")[0]
    deps = dependency_renderings(ctx, scan_names(own_text), module)
    h = hashlib.sha256()
    h.update(qual.encode())
    h.update(b"\x00")
    h.update(own_text.encode())
    for dep in deps:
        h.update(b"\x00")
        h.update(dep.encode())
    return h.hexdigest()
