"""The checking pipeline: incremental and cacheable.

A :class:`CheckSession` answers repeated ``check(source)`` calls the
way ``repro.check_source`` does, but re-does only the work an edit
invalidated:

* **chunked parsing** — the unit is split into top-level declaration
  chunks (:mod:`repro.pipeline.chunks`); each chunk's AST is cached by
  file name, content hash and position, so editing one function
  re-parses one declaration, not the file;
* **context cache** — the elaborated :class:`ProgramContext` is cached
  by the tuple of chunk hashes (layered on the process-wide stdlib
  base context);
* **summary cache** — per-function diagnostics are cached under a
  stable content fingerprint of the function and everything it
  references (:mod:`repro.pipeline.fingerprint`), optionally persisted
  to disk;
* **shared store** — with ``shared_store=`` (a
  :class:`repro.cache.SharedStore`), summary misses batch-fetch from
  the cross-session tiers before being checked, freshly checked
  summaries are written back, and whole units replay from stored
  diagnostic streams — a *second cold session* on identical code runs
  at warm speed (see :mod:`repro.cache`).

Functions that miss every cache are flow-checked one after another in
sorted qualified-name order.  Vault checks each function on its own
against its callees' declared signatures, so the caches above carry
the speed; the flow check itself has one serial path.

Determinism guarantee: for any ``source``, the reporter returned by
``check`` contains the same diagnostics in the same order as
``repro.check_source(source)``, regardless of cache state.  On-disk
summary caches are written atomically with a content checksum; a
corrupt file is quarantined (``summaries.pkl.corrupt.<pid>.<seq>`` —
unique names with bounded retention, so repeated corruption keeps the
newest post-mortems) with a structured ``cache_corrupt`` event and the
session continues cold.  See docs/CHECKER.md ("Failure modes and
recovery").
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core import build_context, check_function_diagnostics
from ..core.checker import MAX_LOOP_ITERATIONS
from ..diagnostics import Diagnostic, Reporter, VaultError
from ..obs import Telemetry
from ..obs.trace import activate as activate_tracer
from ..stdlib import stdlib_context, stdlib_source
from ..stdlib.loader import base_context_cache_info
from ..syntax import ast, parse_program, tokenize
from ..syntax.intern import AST_POOL
from ..syntax.relex import relex
from ..syntax.tokens import T, Token
from .chunks import Chunk, ChunkError, split_chunks
from .faults import FaultPlan
from .fingerprint import cache_checksum, function_fingerprint

#: caps on the in-memory caches; on overflow the oldest half is evicted.
_MAX_CONTEXTS = 64
_MAX_CHUNK_ASTS = 8192
#: per-chunk token streams (and their interface digests) kept beside
#: the chunk-AST cache; streams are bigger than ASTs per entry, so the
#: cap is lower.
_MAX_TOKEN_STREAMS = 4096
#: the summary cache is bounded too — a session embedded in a
#: long-running daemon sees an unbounded stream of distinct sources.
_MAX_SUMMARIES = 32768
#: unit-record keys this session already stored to / replayed from the
#: shared store — a warm re-check of the same source skips the shared
#: fetch (L1 serves it) instead of paying a tier round trip per check.
_MAX_SEEN_UNITS = 4096

#: quarantined ``summaries.pkl.corrupt.*`` files kept for post-mortems
#: (newest first; older ones are collected at the next quarantine).
_QUARANTINE_KEEP = 8

#: per-process quarantine sequence — combined with the pid it makes
#: every quarantine file name unique, so a second corruption can never
#: clobber the first post-mortem.
_quarantine_seq = 0

#: version 3 wraps the summaries body in a checksummed envelope (see
#: ``_save_cache``) so on-disk corruption is detected and quarantined
#: instead of silently swallowed; version-1/2 payloads still load.
#: Files written before the worker pool was removed also carry a
#: ``costs`` map; it is ignored.
_PICKLE_VERSION = 3

#: pickle-level exceptions a hostile/corrupt cache file can raise.
_CACHE_LOAD_ERRORS = (OSError, pickle.PickleError, EOFError, KeyError,
                      AttributeError, ImportError, TypeError, ValueError,
                      IndexError)


#: one declaration chunk's cache key: (file name, content hash, start
#: line, start column).
_ChunkKey = Tuple[str, str, int, int]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class SessionStats:
    """Counters exposed for tests and benchmarks.

    ``last_checked``/``last_replayed`` list the qualified names that
    were flow-analysed vs. served from the summary cache by the most
    recent ``check`` call.
    """

    def __init__(self) -> None:
        self.checks = 0
        self.context_hits = 0
        self.context_misses = 0
        self.chunk_parses = 0
        self.chunk_hits = 0
        self.whole_parses = 0
        self.functions_checked = 0
        self.functions_replayed = 0
        # front-end cache counters (mirrored by ``cache.tokens.*`` /
        # ``relex.*`` metrics when the registry is enabled)
        self.token_hits = 0
        self.token_misses = 0
        self.relex_splices = 0
        self.relex_fallbacks = 0
        self.fingerprints_memoized = 0
        # mirrored by the ``resilience.cache_quarantines`` metric when
        # the registry is enabled
        self.cache_quarantines = 0
        # shared-store counters (mirrored by the ``cache.shared.unit.*``
        # / ``cache.shared.summary.*`` metrics when the registry is
        # enabled; per-tier traffic lives on the store itself)
        self.shared_unit_hits = 0
        self.shared_unit_misses = 0
        self.shared_summary_hits = 0
        self.shared_summary_misses = 0
        self.shared_puts = 0
        self.last_checked: List[str] = []
        self.last_replayed: List[str] = []

    def __repr__(self) -> str:
        return (f"SessionStats(checks={self.checks}, "
                f"ctx={self.context_hits}h/{self.context_misses}m, "
                f"chunks={self.chunk_hits}h/{self.chunk_parses}m, "
                f"functions={self.functions_replayed} replayed/"
                f"{self.functions_checked} checked)")


class _Summary:
    """Cached diagnostics for one function fingerprint.

    A clean result (no diagnostics) replays at any position.  A dirty
    result carries spans, so it replays only for a definition at the
    same place in the same file; anywhere else the function is simply
    re-checked (a cache miss, never a wrong answer).
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        # (filename, start_line) -> tuple of diagnostics; clean results
        # are stored under the wildcard key None.
        self.entries: Dict[Optional[Tuple[str, int]],
                           Tuple[Diagnostic, ...]] = {}

    def lookup(self, filename: str, line: int
               ) -> Optional[Tuple[Diagnostic, ...]]:
        if None in self.entries:
            return self.entries[None]
        return self.entries.get((filename, line))

    def store(self, filename: str, line: int,
              diags: Tuple[Diagnostic, ...]) -> None:
        if not diags:
            self.entries.clear()
            self.entries[None] = ()
        else:
            self.entries[(filename, line)] = diags


class _CtxEntry:
    __slots__ = ("ctx", "diags", "fn_results", "env_token")

    def __init__(self, ctx, diags: Tuple[Diagnostic, ...],
                 env_token: str = ""):
        self.ctx = ctx
        self.diags = diags
        #: per-function diagnostics in merge order, filled in by the
        #: first check against this context — a later check of the
        #: byte-identical source replays without touching fingerprints.
        self.fn_results: Optional[List[Tuple[str, Tuple[Diagnostic, ...]]]] \
            = None
        #: digest of every chunk's *interface* (signatures and
        #: declarations, not function bodies) plus the session's
        #: stdlib/units configuration.  A function fingerprint computed
        #: under one env token is valid under any context with the same
        #: token, so fingerprints are memoized on the (cached) FunDef
        #: nodes keyed by it — a body edit in one chunk leaves the
        #: token unchanged and skips re-fingerprinting every other
        #: function in the unit.
        self.env_token = env_token


class CheckSession:
    """A long-lived checking pipeline with summary caching.

    Equivalent to calling :func:`repro.check_source` for every
    ``check``, but incremental across calls.  ``cache_dir`` persists
    function summaries across processes.  ``jobs`` is accepted and
    ignored: it once sized a worker pool, and callers that still pass
    it get the same serial check.
    """

    def __init__(self, stdlib: bool = True,
                 units: Optional[Sequence[str]] = None,
                 jobs: Union[int, str] = 1,
                 cache_dir: Optional[str] = None,
                 join_abstraction: bool = True,
                 max_loop_iterations: int = MAX_LOOP_ITERATIONS,
                 telemetry: Optional[Telemetry] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 shared_store=None):
        self.stdlib = stdlib
        self.units = tuple(units) if units is not None else None
        self.cache_dir = cache_dir
        self.join_abstraction = join_abstraction
        self.max_loop_iterations = max_loop_iterations
        #: deterministic chaos schedule (tests/CI only; ``None`` in
        #: normal operation).
        self.fault_plan = fault_plan
        #: cross-session result store (:class:`repro.cache.SharedStore`)
        #: or ``None``.  The session never closes it — the owner (CLI,
        #: daemon, test) controls its lifetime.  Chaos sessions must
        #: not publish results from a deliberately damaged cache, so a
        #: fault plan disables the store.
        self.shared_store = shared_store if fault_plan is None else None
        self._shared_salt = ""
        self._seen_units: Dict[str, bool] = {}
        if self.shared_store is not None:
            from ..cache.store import options_salt
            self._shared_salt = options_salt(
                self.stdlib, self.units, join_abstraction,
                max_loop_iterations)
        self.stats = SessionStats()
        #: the session's observability bundle; ``Telemetry()`` (the
        #: default) records nothing beyond rare events — pass
        #: ``Telemetry(trace=True, metrics=True)`` to instrument.
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.telemetry.stats = self.stats
        #: parsed chunks by ``_ChunkKey``.  Spans carry the file name,
        #: so a chunk parsed for one file is never reused for another.
        self._ast_cache: Dict[_ChunkKey, ast.Program] = {}
        #: per-chunk token streams, keyed like the chunk-AST cache;
        #: each entry keeps the chunk text (the relexer diffs against
        #: it) and the lexed stream.
        self._token_cache: Dict[_ChunkKey, Tuple[str, List[Token]]] = {}
        #: per-chunk interface digests (see ``_interface_part``).
        self._iface_cache: Dict[_ChunkKey, str] = {}
        #: chunk keys of the previous check per filename — the
        #: relexer's candidates for "the same declaration, edited".
        self._chunk_history: Dict[str, List[_ChunkKey]] = {}
        self._ctx_cache: Dict[tuple, _CtxEntry] = {}
        self._summaries: Dict[str, _Summary] = {}
        self._stdlib_lines: Dict[str, List[str]] = {}
        #: set when the in-memory summaries diverge from the on-disk
        #: cache; a check that replayed everything does not rewrite
        #: the (potentially large) pickle.
        self._cache_dirty = False
        if cache_dir:
            # Pre-register so a healthy run reports an explicit zero.
            if self.telemetry.metrics.enabled:
                self.telemetry.metrics.counter(
                    "resilience.cache_quarantines")
            self._load_cache()

    @property
    def last_profile(self) -> Dict[str, object]:
        """Phase timings and the check plan of the most recent
        ``check`` call (compatibility shim; the data lives on
        :attr:`telemetry`)."""
        return self.telemetry.profile

    # -- public API --------------------------------------------------------

    def check(self, source: str, filename: str = "<input>",
              jobs: Optional[Union[int, str]] = None) -> Reporter:
        """Parse, elaborate and protocol-check one compilation unit.
        ``jobs`` is accepted and ignored, as in the constructor."""
        self.stats.last_checked = []
        self.stats.last_replayed = []
        self.stats.checks += 1
        self.telemetry.profile = {}
        profile = self.telemetry.profile
        started = time.perf_counter()
        tracer = self.telemetry.tracer
        try:
            with activate_tracer(tracer), \
                    tracer.span("check_unit", filename=filename):
                return self._check_inner(source, filename, profile,
                                         started)
        except BaseException as exc:
            # A crash mid-check must not masquerade as a clean (empty)
            # profile: mark it, so post-hoc consumers can tell a
            # partial record from a fast one.
            profile["aborted"] = True
            profile["error"] = f"{type(exc).__name__}: {exc}"
            self.telemetry.events.emit(
                "check_aborted", f"check of {filename} raised: {exc}",
                filename=filename, error=profile["error"])
            raise
        finally:
            profile["total_seconds"] = time.perf_counter() - started

    def _check_inner(self, source: str, filename: str,
                     profile: Dict[str, object],
                     started: float) -> Reporter:
        tracer = self.telemetry.tracer
        metrics = self.telemetry.metrics
        reporter = Reporter(source, filename)
        # Shared-store unit replay: a stored record carries the unit's
        # complete diagnostic stream (stdlib + context + per-function,
        # already merged in serial order), so a hit skips parsing and
        # elaboration entirely.  Keys this session has already stored
        # or replayed skip the fetch — the in-process caches serve
        # them without a tier round trip.
        store_unit_key: Optional[str] = None
        if self.shared_store is not None:
            from ..cache.store import unit_store_key
            ukey = unit_store_key(source, filename, self._shared_salt)
            if ukey not in self._seen_units:
                store_unit_key = ukey
                record = self._shared_fetch_unit(ukey)
                if record is not None:
                    reporter.diagnostics.extend(record["diags"])
                    self._mark_unit_seen(ukey)
                    self.stats.shared_unit_hits += 1
                    self.stats.functions_replayed += record["functions"]
                    if metrics.enabled:
                        metrics.counter("cache.shared.unit.hits").inc()
                    profile["plan"] = "replayed whole unit (shared store)"
                    return self._finish(reporter)
                self.stats.shared_unit_misses += 1
                if metrics.enabled:
                    metrics.counter("cache.shared.unit.misses").inc()
        base = None
        if self.stdlib:
            with tracer.span("stdlib_base"):
                builds_before = base_context_cache_info().misses
                base, base_diags = stdlib_context(self.units)
            if metrics.enabled:
                if base_context_cache_info().misses == builds_before:
                    metrics.counter("cache.stdlib_base.hits").inc()
                else:
                    metrics.counter("cache.stdlib_base.misses").inc()
            reporter.diagnostics.extend(base_diags)
        entry = self._context_for(source, filename, base)
        profile["context_seconds"] = time.perf_counter() - started
        reporter.diagnostics.extend(entry.diags)
        if not reporter.ok:
            self._shared_store_unit(store_unit_key, reporter, 0)
            return self._finish(reporter)
        if entry.fn_results is not None:
            for qual, diags in entry.fn_results:
                reporter.diagnostics.extend(diags)
            self.stats.last_replayed = [q for q, _ in entry.fn_results]
            self.stats.functions_replayed += len(entry.fn_results)
            if metrics.enabled:
                metrics.counter("cache.unit_replay.hits").inc(
                    len(entry.fn_results))
            profile["plan"] = "replayed whole unit"
            self._shared_store_unit(store_unit_key, reporter,
                                    len(entry.fn_results))
            return self._finish(reporter)
        check_started = time.perf_counter()
        with tracer.span("check_functions"):
            results = self._check_functions(
                entry.ctx, source, filename, entry.env_token)
        profile["check_seconds"] = time.perf_counter() - check_started
        entry.fn_results = results
        for qual, diags in results:
            reporter.diagnostics.extend(diags)
        if self.cache_dir and self._cache_dirty:
            self._save_cache()
            self._cache_dirty = False
        self._shared_store_unit(store_unit_key, reporter, len(results))
        return self._finish(reporter)

    def _finish(self, reporter: Reporter) -> Reporter:
        metrics = self.telemetry.metrics
        if metrics.enabled:
            for diag in reporter.diagnostics:
                metrics.counter(
                    f"diagnostics.{diag.code.value}").inc()
        return reporter

    def render_check(self, source: str, filename: str = "<input>",
                     jobs: Optional[Union[int, str]] = None) -> str:
        """The rendered report for ``source`` (the CLI's output)."""
        return self.check(source, filename, jobs=jobs).render()

    def close(self) -> None:
        """Nothing to release: a session holds only in-memory caches
        (and the on-disk cache it writes at the end of each check).
        Kept so sessions work as context managers, and stay usable
        after ``close``."""

    def __enter__(self) -> "CheckSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- context construction ----------------------------------------------

    def _context_for(self, source: str, filename: str, base) -> _CtxEntry:
        metrics = self.telemetry.metrics
        with self.telemetry.tracer.span("split_chunks"):
            try:
                chunks = split_chunks(source)
            except ChunkError:
                chunks = None
        if chunks:
            chunk_keys = [(filename, _sha(c.text), c.start_line,
                           c.start_col) for c in chunks]
            key: tuple = (filename, self.units, self.stdlib,
                          tuple(chunk_keys))
            prev_keys = self._chunk_history.get(filename)
            self._chunk_history[filename] = chunk_keys
        else:
            chunk_keys = []
            key = (filename, self.units, self.stdlib, _sha(source))
            prev_keys = None
            self._chunk_history.pop(filename, None)
        entry = self._ctx_cache.get(key)
        if entry is not None:
            self.stats.context_hits += 1
            if metrics.enabled:
                metrics.counter("cache.context.hits").inc()
            return entry
        self.stats.context_misses += 1
        if metrics.enabled:
            metrics.counter("cache.context.misses").inc()
        programs, env_token = self._parse(source, filename, chunks,
                                          chunk_keys, prev_keys)
        sub = Reporter()
        with self.telemetry.tracer.span("elaborate"):
            ctx = build_context(programs, sub, base=base)
        entry = _CtxEntry(ctx, tuple(sub.diagnostics), env_token)
        if len(self._ctx_cache) >= _MAX_CONTEXTS:
            self._evict_traced(self._ctx_cache, "context")
        self._ctx_cache[key] = entry
        return entry

    def _parse(self, source: str, filename: str,
               chunks: Optional[List[Chunk]],
               chunk_keys: List[_ChunkKey],
               prev_keys: Optional[List[_ChunkKey]]
               ) -> Tuple[List[ast.Program], str]:
        metrics = self.telemetry.metrics
        tracer = self.telemetry.tracer
        if not chunks:
            self.stats.whole_parses += 1
            return [parse_program(source, filename)], \
                self._unit_env_token(source, filename)
        programs: List[ast.Program] = []
        iface_parts: List[str] = []
        pool_hits, pool_misses = AST_POOL.hits, AST_POOL.misses
        try:
            for idx, chunk in enumerate(chunks):
                ckey = chunk_keys[idx]
                with tracer.span("token_cache"):
                    cached = self._token_cache.get(ckey)
                tokens: Optional[List[Token]] = None
                if cached is not None:
                    tokens = cached[1]
                    self.stats.token_hits += 1
                    if metrics.enabled:
                        metrics.counter("cache.tokens.hits").inc()
                prog = self._ast_cache.get(ckey)
                if prog is None:
                    if tokens is None:
                        self.stats.token_misses += 1
                        if metrics.enabled:
                            metrics.counter("cache.tokens.misses").inc()
                        tokens = self._lex_chunk(chunk, ckey, filename,
                                                 prev_keys, idx)
                    prog = parse_program(chunk.text, filename,
                                         first_line=chunk.start_line,
                                         first_col=chunk.start_col,
                                         tokens=tokens)
                    self.stats.chunk_parses += 1
                    if metrics.enabled:
                        metrics.counter("cache.chunk_ast.misses").inc()
                    if len(self._ast_cache) >= _MAX_CHUNK_ASTS:
                        self._evict_traced(self._ast_cache, "chunk_ast")
                    self._ast_cache[ckey] = prog
                else:
                    self.stats.chunk_hits += 1
                    if metrics.enabled:
                        metrics.counter("cache.chunk_ast.hits").inc()
                iface_parts.append(self._interface_part(ckey, tokens))
                programs.append(prog)
        except VaultError:
            # A chunk the scanner mis-split (or a genuine syntax
            # error): parse the whole unit so errors are reported
            # exactly as the non-incremental path reports them.
            self.stats.whole_parses += 1
            return [parse_program(source, filename)], \
                self._unit_env_token(source, filename)
        if metrics.enabled:
            delta_hits = AST_POOL.hits - pool_hits
            delta_misses = AST_POOL.misses - pool_misses
            if delta_hits:
                metrics.counter("cache.ast_pool.hits").inc(delta_hits)
            if delta_misses:
                metrics.counter("cache.ast_pool.misses").inc(delta_misses)
        env_token = _sha("\x00".join(iface_parts)
                         + f"\x00{filename}\x00{self.units!r}"
                           f"\x00{self.stdlib!r}")
        return programs, env_token

    def _lex_chunk(self, chunk: Chunk, ckey: _ChunkKey, filename: str,
                   prev_keys: Optional[List[_ChunkKey]],
                   idx: int) -> List[Token]:
        """Token stream for one chunk: an incremental splice against
        the previous check's chunk at the same slot when possible, a
        full lex otherwise.  Either way the stream is cached."""
        tracer = self.telemetry.tracer
        metrics = self.telemetry.metrics
        tokens: Optional[List[Token]] = None
        if prev_keys is not None and idx < len(prev_keys):
            pkey = prev_keys[idx]
            # Same slot, same position, different text: the shape of a
            # sub-chunk edit.  A chunk that also moved (an edit above
            # it changed line numbers) falls back to a full lex — the
            # splice only rebases spans within the chunk.
            if pkey != ckey and pkey[2] == chunk.start_line \
                    and pkey[3] == chunk.start_col:
                prev = self._token_cache.get(pkey)
                if prev is not None:
                    with tracer.span("relex"):
                        spliced = relex(prev[0], prev[1], chunk.text,
                                        filename, chunk.start_line,
                                        chunk.start_col)
                    if spliced is not None:
                        tokens = spliced.tokens
                        self.stats.relex_splices += 1
                        if metrics.enabled:
                            metrics.counter("relex.splices").inc()
                            metrics.counter("relex.tokens_reused").inc(
                                spliced.reused)
                            metrics.counter("relex.tokens_fresh").inc(
                                spliced.fresh)
                    else:
                        self.stats.relex_fallbacks += 1
                        if metrics.enabled:
                            metrics.counter("relex.fallbacks").inc()
        if tokens is None:
            with tracer.span("lex", filename=filename):
                tokens = tokenize(chunk.text, filename,
                                  chunk.start_line, chunk.start_col)
        if len(self._token_cache) >= _MAX_TOKEN_STREAMS:
            self._evict_traced(self._token_cache, "tokens")
        self._token_cache[ckey] = (chunk.text, tokens)
        return tokens

    #: first-token kinds of chunks whose whole text is their interface
    #: (type/variant/struct/stateset/key declarations, interfaces and
    #: modules — anything that can contribute more than one signature
    #: to the context).
    _DECL_CHUNK_KINDS = frozenset({
        T.KW_INTERFACE, T.KW_MODULE, T.KW_EXTERN, T.KW_TYPE, T.KW_VARIANT,
        T.KW_STRUCT, T.KW_STATESET, T.KW_KEY,
    })

    def _interface_part(self, ckey: _ChunkKey,
                        tokens: Optional[List[Token]]) -> str:
        """One chunk's contribution to the context-wide env token.

        For a function-definition chunk only the header (tokens up to
        the body's opening brace — return type, name, parameters,
        effect clause) feeds the digest: body edits must not disturb
        the env token, that is the whole point of the memo.  Any chunk
        led by a declaration keyword digests its full text —
        conservative, but those chunks can define types, keys or whole
        modules whose every detail other fingerprints may see.  With no
        token stream at hand (chunk-AST hit after token-cache
        eviction) the content hash stands in, which can only make the
        token *more* conservative.
        """
        part = self._iface_cache.get(ckey)
        if part is not None:
            return part
        if tokens is None:
            return ckey[1]          # content hash: always conservative
        if tokens and tokens[0].kind in self._DECL_CHUNK_KINDS:
            part = ckey[1]
        else:
            header: List[str] = []
            for tok in tokens:
                if tok.kind is T.LBRACE:
                    break
                header.append(tok.text)
            part = "\x1f".join(header)
        if len(self._iface_cache) >= _MAX_TOKEN_STREAMS:
            self._evict_traced(self._iface_cache, "iface")
        self._iface_cache[ckey] = part
        return part

    def _unit_env_token(self, source: str, filename: str) -> str:
        """Env token for the whole-unit (non-chunked) parse path."""
        return _sha(f"unit\x00{_sha(source)}\x00{filename}"
                    f"\x00{self.units!r}\x00{self.stdlib!r}")

    @staticmethod
    def _evict(cache: dict) -> None:
        for key in list(cache)[:len(cache) // 2 + 1]:
            del cache[key]

    def _evict_traced(self, cache: dict, layer: str) -> None:
        """Evict the oldest half of ``cache``, leaving a trace: a
        ``cache.<layer>.evictions`` counter and a ``cache_evict``
        event.  Before this, the summary/cost caps silently threw away
        warm state — a daemon serving an eviction-heavy workload
        looked identical to one with a healthy cache."""
        before = len(cache)
        self._evict(cache)
        evicted = before - len(cache)
        if self.telemetry.metrics.enabled:
            self.telemetry.metrics.counter(
                f"cache.{layer}.evictions").inc(evicted)
        self.telemetry.events.emit(
            "cache_evict",
            f"evicted {evicted} of {before} entries from the "
            f"{layer} cache (cap reached)",
            layer=layer, evicted=evicted, remaining=len(cache))

    # -- function checking -------------------------------------------------

    def _check_functions(self, ctx, source: str, filename: str,
                         env_token: str = ""
                         ) -> List[Tuple[str, Tuple[Diagnostic, ...]]]:
        """Diagnostics per function, in serial (sorted-qual) order."""
        metrics = self.telemetry.metrics
        fn_items = ctx.defined_functions()
        results: Dict[str, Tuple[Diagnostic, ...]] = {}
        to_check: List[Tuple[str, ast.FunDef, str]] = []  # qual, def, fp
        source_lines = source.splitlines()
        memoized = 0
        with self.telemetry.tracer.span("fingerprint",
                                        functions=len(fn_items)):
            for qual, fundef in fn_items:
                # A fingerprint covers the function's own text plus the
                # rendered signatures it can see; both are pinned by
                # (this FunDef object, the context's env token), so a
                # recomputation under the same pair is pure waste.  The
                # memo rides on the cached FunDef node: an edited chunk
                # parses to a fresh node and misses naturally.
                memo = fundef.__dict__.get("_pl_fp")
                if memo is not None and env_token and memo[0] == env_token:
                    fp = memo[1]
                    memoized += 1
                else:
                    fp = function_fingerprint(
                        ctx, qual, fundef,
                        self._own_text(fundef, source_lines, filename))
                    if env_token:
                        object.__setattr__(fundef, "_pl_fp",
                                           (env_token, fp))
                summary = self._summaries.get(fp)
                cached = summary.lookup(fundef.span.filename,
                                        fundef.span.start.line) \
                    if summary is not None else None
                if cached is not None:
                    results[qual] = cached
                    self.stats.last_replayed.append(qual)
                    self.stats.functions_replayed += 1
                else:
                    to_check.append((qual, fundef, fp))
        self.stats.fingerprints_memoized += memoized
        if metrics.enabled:
            if memoized:
                metrics.counter("cache.fingerprint_memo.hits").inc(memoized)
            misses = len(fn_items) - memoized
            if misses:
                metrics.counter("cache.fingerprint_memo.misses").inc(misses)
            replayed = len(fn_items) - len(to_check)
            if replayed:
                metrics.counter("cache.summary.hits").inc(replayed)
            if to_check:
                metrics.counter("cache.summary.misses").inc(len(to_check))
        if self.shared_store is not None and to_check:
            # L1 missed these: one batched fetch against the shared
            # tiers before paying for any flow analysis.
            to_check = self._shared_fetch_summaries(to_check, results)
        self.last_profile["plan"] = \
            f"checked {len(to_check)} of {len(fn_items)} function(s)"
        if to_check:
            checked = self._run_checks(ctx, to_check)
            for (qual, fundef, fp), diags in zip(to_check, checked):
                results[qual] = diags
                self._summaries.setdefault(fp, _Summary()).store(
                    fundef.span.filename, fundef.span.start.line, diags)
                self.stats.last_checked.append(qual)
                self.stats.functions_checked += 1
            self._cache_dirty = True
            if self.shared_store is not None:
                self._shared_put_summaries(to_check)
            if len(self._summaries) > _MAX_SUMMARIES:
                self._evict_traced(self._summaries, "summary")
        return [(qual, results[qual]) for qual, _ in fn_items]

    def _run_checks(self, ctx, to_check) -> List[Tuple[Diagnostic, ...]]:
        """Flow-check each cache miss, in the order given."""
        tracer = self.telemetry.tracer
        metrics = self.telemetry.metrics
        out: List[Tuple[Diagnostic, ...]] = []
        for qual, fundef, _fp in to_check:
            started = time.perf_counter()
            with tracer.span("check_function", function=qual):
                diags = tuple(check_function_diagnostics(
                    ctx, qual, fundef,
                    join_abstraction=self.join_abstraction,
                    max_loop_iterations=self.max_loop_iterations))
            if metrics.enabled:
                metrics.histogram("check.function_seconds").observe(
                    time.perf_counter() - started)
            out.append(diags)
        return out

    def _own_text(self, fundef: ast.FunDef, source_lines: List[str],
                  filename: str) -> str:
        """The exact source text of one definition (position-free)."""
        span = fundef.span
        if span.filename == filename:
            lines = source_lines
        elif span.filename.startswith("<stdlib:"):
            unit = span.filename[len("<stdlib:"):-1]
            lines = self._stdlib_lines.get(unit)
            if lines is None:
                lines = stdlib_source(unit).splitlines()
                self._stdlib_lines[unit] = lines
        else:
            return ""
        return "\n".join(lines[span.start.line - 1:span.end.line])

    # -- shared store ------------------------------------------------------

    def _mark_unit_seen(self, ukey: str) -> None:
        if len(self._seen_units) >= _MAX_SEEN_UNITS:
            self._seen_units.clear()
        self._seen_units[ukey] = True

    def _shared_fetch_unit(self, ukey: str) -> Optional[Dict[str, object]]:
        """One stored unit record, shape-validated, or ``None``."""
        with self.telemetry.tracer.span("shared_fetch_unit"):
            record = self.shared_store.fetch([ukey]).get(ukey)
        if not isinstance(record, dict):
            return None
        if not isinstance(record.get("diags"), tuple) \
                or not isinstance(record.get("functions"), int):
            return None
        return record

    def _shared_store_unit(self, ukey: Optional[str], reporter: Reporter,
                           functions: int) -> None:
        """Publish one finished unit's diagnostic stream."""
        if ukey is None or self.shared_store is None:
            return
        record = {"diags": tuple(reporter.diagnostics),
                  "functions": functions}
        with self.telemetry.tracer.span("shared_put_unit"):
            self.stats.shared_puts += self.shared_store.store({ukey: record})
        self._mark_unit_seen(ukey)

    def _shared_fetch_summaries(self, to_check, results
                                ) -> List[Tuple[str, ast.FunDef, str]]:
        """Batch-fetch L1 summary misses from the shared store; merge
        hits into the in-process summary map and return the functions
        the store could not serve either."""
        from ..cache.store import summary_store_key
        metrics = self.telemetry.metrics
        key_of = {fp: summary_store_key(fp, self._shared_salt)
                  for _qual, _fundef, fp in to_check}
        with self.telemetry.tracer.span("shared_fetch_summaries",
                                        keys=len(key_of)):
            fetched = self.shared_store.fetch(list(key_of.values()))
        still: List[Tuple[str, ast.FunDef, str]] = []
        hits = 0
        for qual, fundef, fp in to_check:
            entries = fetched.get(key_of[fp])
            diags = None
            if isinstance(entries, dict):
                # Union-merge: entries are keyed by (filename, line)
                # position (or the clean wildcard None), and identical
                # fingerprint + options imply identical diagnostics,
                # so keeping whichever side already has a position is
                # always sound.
                summary = self._summaries.setdefault(fp, _Summary())
                for pos, stored in entries.items():
                    if isinstance(stored, tuple) and (
                            pos is None or (isinstance(pos, tuple)
                                            and len(pos) == 2)):
                        summary.entries.setdefault(pos, stored)
                diags = summary.lookup(fundef.span.filename,
                                       fundef.span.start.line)
            if diags is not None:
                results[qual] = diags
                self.stats.last_replayed.append(qual)
                self.stats.functions_replayed += 1
                hits += 1
                self._cache_dirty = True
            else:
                still.append((qual, fundef, fp))
        self.stats.shared_summary_hits += hits
        self.stats.shared_summary_misses += len(still)
        if metrics.enabled:
            if hits:
                metrics.counter("cache.shared.summary.hits").inc(hits)
            if still:
                metrics.counter("cache.shared.summary.misses").inc(
                    len(still))
        return still

    def _shared_put_summaries(self, checked) -> None:
        """Write freshly computed summaries back to the shared tiers
        (merged with anything the fetch brought in)."""
        from ..cache.store import summary_store_key
        payload: Dict[str, object] = {}
        for _qual, _fundef, fp in checked:
            summary = self._summaries.get(fp)
            if summary is not None:
                payload[summary_store_key(fp, self._shared_salt)] = \
                    dict(summary.entries)
        if payload:
            with self.telemetry.tracer.span("shared_put_summaries",
                                            keys=len(payload)):
                self.stats.shared_puts += self.shared_store.store(payload)

    # -- persistence -------------------------------------------------------

    def _cache_path(self) -> str:
        return os.path.join(self.cache_dir, "summaries.pkl")

    def _load_cache(self) -> None:
        """Load the on-disk summary cache, degrading loudly.

        A missing file is a cold cache (no event).  Anything that
        fails to parse or checksum is **quarantined**: moved aside to
        ``summaries.pkl.corrupt`` (preserved for post-mortems), a
        structured ``cache_corrupt`` event is emitted with the
        exception and path, and the session continues cold.  A
        recognized-but-unsupported version is left in place but still
        reported (``cache_incompatible``) — no failure mode is a
        silent ``return`` anymore.
        """
        path = self._cache_path()
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            return                                 # cold cache: normal
        except _CACHE_LOAD_ERRORS as exc:
            self._quarantine_cache(path, exc)
            return
        # Decode into fresh dicts and commit only on full success, so
        # a half-corrupt payload cannot leave the session with partial
        # (and potentially inconsistent) cache state.
        try:
            version = payload.get("version")
            if version == _PICKLE_VERSION:
                body_bytes = payload["data"]
                if cache_checksum(body_bytes) != payload["sha256"]:
                    raise ValueError(
                        "cache checksum mismatch (torn write or bit rot)")
                body = pickle.loads(body_bytes)
            elif version in (1, 2):                # legacy, pre-checksum
                body = payload
            else:
                self.telemetry.events.emit(
                    "cache_incompatible",
                    f"summary cache {path} has unsupported version "
                    f"{version!r}; starting cold (file left in place)",
                    path=path, version=version)
                return
            summaries: Dict[str, _Summary] = {}
            for fp, entries in body["summaries"].items():
                summary = _Summary()
                summary.entries = dict(entries)
                summaries[fp] = summary
        except _CACHE_LOAD_ERRORS as exc:
            self._quarantine_cache(path, exc)
            return
        self._summaries.update(summaries)

    def _quarantine_cache(self, path: str, exc: BaseException) -> None:
        """Move a corrupt cache file aside and publish the failure.

        Quarantine names are unique (``.corrupt.<pid>.<seq>``) so a
        second corruption cannot clobber the first post-mortem, with
        bounded retention: only the newest ``_QUARANTINE_KEEP``
        quarantined files survive each new quarantine."""
        global _quarantine_seq
        _quarantine_seq += 1
        quarantined: Optional[str] = \
            f"{path}.corrupt.{os.getpid()}.{_quarantine_seq}"
        try:
            os.replace(path, quarantined)
        except OSError:
            quarantined = None                # even the move failed
        else:
            self._prune_quarantines(path)
        self.stats.cache_quarantines += 1
        if self.telemetry.metrics.enabled:
            self.telemetry.metrics.counter(
                "resilience.cache_quarantines").inc()
        error = f"{type(exc).__name__}: {exc}"
        self.telemetry.events.emit(
            "cache_corrupt",
            f"summary cache {path} is corrupt ({error}); "
            + (f"quarantined to {quarantined} and rebuilding cold"
               if quarantined else
               "quarantine failed, rebuilding cold anyway"),
            path=path, error=error, quarantined=quarantined)
        print(f"repro: summary cache {path} is corrupt ({error}); "
              f"rebuilding cold", file=sys.stderr)

    @staticmethod
    def _prune_quarantines(path: str) -> None:
        """Keep only the newest ``_QUARANTINE_KEEP`` quarantined
        copies of ``path`` (``.corrupt`` and ``.corrupt.<pid>.<seq>``
        alike), deleting older ones — post-mortems stay available
        without the cache directory growing without bound."""
        directory = os.path.dirname(path) or "."
        prefix = os.path.basename(path) + ".corrupt"
        try:
            names = [name for name in os.listdir(directory)
                     if name.startswith(prefix)]
        except OSError:
            return
        stamped: List[Tuple[float, str]] = []
        for name in names:
            full = os.path.join(directory, name)
            try:
                stamped.append((os.stat(full).st_mtime, full))
            except OSError:
                continue
        stamped.sort(key=lambda item: (item[0], item[1]), reverse=True)
        for _mtime, full in stamped[_QUARANTINE_KEEP:]:
            try:
                os.unlink(full)
            except OSError:
                pass

    def _save_cache(self) -> None:
        """Atomically persist the summary cache: unique temp file,
        fsync, rename — with a content checksum over the body so the
        next load can prove it read what this process wrote."""
        body = pickle.dumps({
            "summaries": {fp: s.entries for fp, s in self._summaries.items()},
        }, protocol=pickle.HIGHEST_PROTOCOL)
        payload = {
            "version": _PICKLE_VERSION,
            "sha256": cache_checksum(body),
            "data": body,
        }
        path = self._cache_path()
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            with open(tmp, "wb") as handle:
                pickle.dump(payload, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            self.telemetry.events.emit(
                "cache_write_failed",
                f"could not persist summary cache to {path}: {exc}",
                path=path, error=f"{type(exc).__name__}: {exc}")
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        if self.fault_plan is not None and self.fault_plan.take_cache_flip():
            offset = self.fault_plan.flip_file_byte(path)
            self.telemetry.events.emit(
                "fault_injected",
                f"flipped byte {offset} of {path} (injected fault)",
                fault="flip-cache", path=path, offset=offset)
