"""The checking pipeline: incremental and cacheable.

A :class:`CheckSession` answers repeated ``check(source)`` calls the
way ``repro.check_source`` does, but re-does only the work an edit
invalidated:

* **per-file retention** — the session keeps each file's *latest*
  revision only (its chunk ASTs, context and record state), for at
  most ``_MAX_FILES`` files, least recently checked first.  Vault
  checks each function against the current program's signatures
  (paper §3), so older revisions are not worth holding: an undo
  re-parses what it changed;
* **chunked parsing** — the unit is split into top-level declaration
  chunks (:mod:`repro.pipeline.chunks`); a chunk the held revision
  has too, same content hash and position, keeps its AST, so editing
  one function re-parses one declaration, not the file;
* **header-only functions** — a function-definition chunk is parsed
  only up to its body: elaboration needs signatures alone, and a
  summary fingerprint reads the function's text, not its AST.  A body
  is lexed and parsed when its function is flow-checked, and then
  stays on the cached node.  A body that does not parse on its own
  sends the check back to one whole-unit parse, so syntax errors are
  reported exactly as ``check_source`` reports them;
* **context** — a re-save of the held revision reuses its elaborated
  :class:`ProgramContext` (layered on the process-wide stdlib base);
* **summary cache** — per-function diagnostics are cached under a
  stable content fingerprint of the function and everything it
  references (:mod:`repro.pipeline.fingerprint`), position-free: lines
  count from the function's first line and no file name is kept, so
  a summary replays wherever the function moves;
* **file records** — with ``cache_dir``, each file's diagnostic stream
  and its functions' summaries persist as one record on disk (see
  below), so a later process replays an unchanged file without
  parsing it and re-checks only what an edit touched.

Functions that miss every cache are flow-checked one after another in
sorted qualified-name order.  Vault checks each function on its own
against its callees' declared signatures, so the caches above carry
the speed; the flow check itself has one serial path.

Determinism guarantee: for any ``source``, the reporter returned by
``check`` contains the same diagnostics in the same order as
``repro.check_source(source)``, regardless of cache state.  They
compare equal by value, positions included, not only when rendered.

Accounting: every cache layer counts its hits and misses in the
session's metrics registry (``telemetry.metrics``), which is always
live; the ``context``, ``chunk_ast`` and ``fingerprint_memo`` counters
equal their :class:`SessionStats` twins.  After every check the
``session.files`` and ``session.chunks_held`` gauges give the files
and chunk ASTs the session holds.  Spans are recorded only with
``Telemetry(trace=True)``.

File records: ``cache_dir`` is a content-addressed store directory
(:class:`repro.cache.CASTier`) holding one record per file name and
session options (:func:`repro.cache.record_key`): the source's sha256,
the unit's diagnostic stream, its function count and its functions'
summaries.  On its first check of a file name (or the first since the
file was evicted) the session fetches that file's record.  When the
sha matches the source it replays the stream without parsing;
otherwise the record's summaries join the summary cache and the check
runs as usual.  After a check of a source other than the one whose
record it last loaded or wrote, the session writes the file's record,
through the CAS tier's unique temp file, ``fsync`` and atomic rename.
A unit whose declarations do not elaborate checks no function, so its
record keeps the summaries of the file's record before it.  A session
without ``cache_dir`` hashes no source and touches no store.  A corrupt
record fails the store's checksum and is quarantined under
``corrupt/`` (bounded retention) with a ``shared_cache_corrupt``
event; the session counts it, says so on stderr and checks that file
cold.  See docs/CHECKER.md ("Failure modes and recovery").
"""

from __future__ import annotations

import hashlib
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core import build_context, check_function_diagnostics
from ..core.checker import MAX_LOOP_ITERATIONS
from ..diagnostics import (Diagnostic, Note, Pos, Reporter, Span,
                           VaultError)
from ..diagnostics.reporter import source_lines
from ..obs import Telemetry
from ..obs.trace import activate as activate_tracer
from ..stdlib import stdlib_context, stdlib_source
from ..stdlib.loader import base_context_cache_info
from ..syntax import ast, parse_program, tokenize
from ..syntax.parser import parse_fun_body, parse_fun_header
from ..syntax.tokens import T, Token
from .chunks import Chunk, ChunkError, split_chunks
from .faults import FaultPlan
from .fingerprint import function_fingerprint

#: the files a session holds; past the cap the least recently checked
#: one is evicted, and its next check starts from the summary cache.
_MAX_FILES = 64
#: the summary cache is bounded too — a session embedded in a
#: long-running daemon sees an unbounded stream of distinct sources.
_MAX_SUMMARIES = 32768


#: one declaration chunk's key within its file: (content hash, start
#: line, start column).
_ChunkKey = Tuple[str, int, int]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _relocate(diags: Tuple[Diagnostic, ...], lines: int, filename: str
              ) -> Tuple[Diagnostic, ...]:
    """``diags`` moved ``lines`` lines down into ``filename``, notes
    included: a summary stores its function's diagnostics moved by
    minus the function's first line, and each replay moves them back
    to where the function now is.  A clean ``()`` passes through."""
    if not diags:
        return diags

    def move(span: Span) -> Span:
        return Span(Pos(span.start.line + lines, span.start.col),
                    Pos(span.end.line + lines, span.end.col), filename)
    return tuple(
        Diagnostic(d.code, d.message, move(d.span), d.severity,
                   [Note(n.text, move(n.span)) if isinstance(n, Note)
                    else n for n in d.notes])
        for d in diags)


def _inside(diags: Tuple[Diagnostic, ...], where: Span) -> bool:
    """Whether every span ``diags`` report, notes included, lies in
    the file and lines of ``where``.  Only such a result may become a
    summary: a span elsewhere (say, on the line of a function-type
    alias the body expands) would not move with the function."""
    for diag in diags:
        for span in [diag.span] + [n.span for n in diag.notes
                                    if isinstance(n, Note)]:
            if span.filename != where.filename \
                    or span.start.line < where.start.line \
                    or span.end.line > where.end.line:
                return False
    return True


def _line_col(chunk: Chunk, offset: int) -> Tuple[int, int]:
    """Line and column of ``chunk.text[offset]`` in the unit, as the
    lexer numbers them (only ``\n`` ends a line)."""
    nl = chunk.text.rfind("\n", 0, offset)
    if nl < 0:
        return chunk.start_line, offset + chunk.start_col
    return chunk.start_line + chunk.text.count("\n", 0, offset), offset - nl


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
        #: function bodies parsed on their own, when a header-only
        #: chunk's function had to be checked
        self.body_parses = 0
        self.whole_parses = 0
        self.functions_checked = 0
        self.functions_replayed = 0
        self.fingerprints_memoized = 0
        # mirrored by the ``resilience.cache_quarantines`` metric
        self.cache_quarantines = 0
        # file-record replays, and first checks of a file that its
        # record could not replay (mirrored by the
        # ``cache.shared.unit.*`` metrics; the store's own traffic
        # is counted by the store)
        self.shared_unit_hits = 0
        self.shared_unit_misses = 0
        self.last_checked: List[str] = []
        self.last_replayed: List[str] = []

    def __repr__(self) -> str:
        return (f"SessionStats(checks={self.checks}, "
                f"ctx={self.context_hits}h/{self.context_misses}m, "
                f"chunks={self.chunk_hits}h/{self.chunk_parses}m, "
                f"functions={self.functions_replayed} replayed/"
                f"{self.functions_checked} checked)")


class _WholeUnit(Exception):
    """A function body failed to parse on its own: redo the check from
    one whole-unit parse, which reports the unit's first syntax error
    in source order (or, after a mis-split, parses cleanly)."""


class _CtxEntry:
    __slots__ = ("key", "ctx", "diags", "fn_results", "summaries",
                 "env_token", "headers")

    def __init__(self, key: object, ctx, diags: Tuple[Diagnostic, ...],
                 env_token: str = "", headers: Sequence = ()):
        #: the revision's chunk keys (unsplit: its sha256)
        self.key = key
        self.ctx = ctx
        self.diags = diags
        #: every header-only definition of the unit, including any a
        #: duplicate name hides from ``ctx.fun_defs``: a check that
        #: stops at the context's diagnostics still parses their
        #: bodies, since ``check_source`` raises a syntax error first.
        self.headers = headers
        #: per-function diagnostics in merge order, filled in by the
        #: first check against this context — a later check of the
        #: byte-identical source replays without touching fingerprints.
        self.fn_results: Optional[List[Tuple[str, Tuple[Diagnostic, ...]]]] \
            = None
        #: with ``cache_dir``, the position-free summaries of those
        #: functions by fingerprint: what the unit's file record keeps.
        self.summaries: Dict[str, Tuple[Diagnostic, ...]] = {}
        #: digest of every chunk's *interface* (signatures and
        #: declarations, not function bodies) plus the session's
        #: stdlib/units configuration.  Fingerprints are memoized on
        #: the held FunDef nodes under it, so a body edit, which leaves
        #: it unchanged, re-fingerprints one function.
        self.env_token = env_token


class _FileState:
    """What a session keeps of one file: its latest revision only."""

    __slots__ = ("chunks", "ctx", "sha", "summaries")

    def __init__(self) -> None:
        #: the chunks of the revision last split and parsed, each with
        #: its interface digest (see ``_interface_part``).
        self.chunks: Dict[_ChunkKey, Tuple[ast.Program, str]] = {}
        self.ctx: Optional[_CtxEntry] = None
        #: with ``cache_dir``, the sha256 of the source whose record
        #: this session last loaded or wrote ("" for none, ``None``
        #: before the record is fetched) and that record's summaries.
        self.sha: Optional[str] = None
        self.summaries: Dict[str, Tuple[Diagnostic, ...]] = {}


class CheckSession:
    """A long-lived checking pipeline with summary caching.

    Equivalent to calling :func:`repro.check_source` for every
    ``check``, but incremental across calls.  ``cache_dir`` persists
    one record per file across processes in a CAS directory (see the
    module docstring).  ``jobs`` is accepted and ignored: it once
    sized a worker pool, and callers that still pass it get the same
    serial check.
    """

    def __init__(self, stdlib: bool = True,
                 units: Optional[Sequence[str]] = None,
                 jobs: Union[int, str] = 1,
                 cache_dir: Optional[str] = None,
                 join_abstraction: bool = True,
                 max_loop_iterations: int = MAX_LOOP_ITERATIONS,
                 telemetry: Optional[Telemetry] = None,
                 fault_plan: Optional[FaultPlan] = None):
        self.stdlib = stdlib
        self.units = tuple(units) if units is not None else None
        self.cache_dir = cache_dir
        self.join_abstraction = join_abstraction
        self.max_loop_iterations = max_loop_iterations
        #: deterministic chaos schedule (tests/CI only; ``None`` in
        #: normal operation).
        self.fault_plan = fault_plan
        self.stats = SessionStats()
        #: the session's observability bundle.  Metrics are always
        #: recorded; pass ``Telemetry(trace=True)`` to record spans too.
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.telemetry.stats = self.stats
        #: each file's latest revision, least recently checked first
        self._files: Dict[str, _FileState] = {}
        #: function-relative diagnostics by fingerprint (``_relocate``)
        self._summaries: Dict[str, Tuple[Diagnostic, ...]] = {}
        self._stdlib_lines: Dict[str, List[str]] = {}
        #: the file-record store over ``cache_dir`` (one CAS tier whose
        #: traffic feeds this session's ``cache.shared.cas.*``
        #: metrics), or ``None`` without ``cache_dir``.
        self.store = None
        self._options_salt = ""
        if cache_dir:
            from ..cache import CASTier, SharedStore, options_salt
            self._options_salt = options_salt(
                self.stdlib, self.units, join_abstraction,
                max_loop_iterations)
            self.store = SharedStore(
                CASTier(cache_dir, fault_plan=fault_plan), self.telemetry)
            # Pre-register so a healthy run reports an explicit zero.
            self.telemetry.metrics.counter("resilience.cache_quarantines")

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
            metrics = self.telemetry.metrics
            metrics.gauge("session.files").set(len(self._files))
            metrics.gauge("session.chunks_held").set(
                sum(len(state.chunks) for state in self._files.values()))

    def _check_inner(self, source: str, filename: str,
                     profile: Dict[str, object], started: float
                     ) -> Reporter:
        tracer = self.telemetry.tracer
        metrics = self.telemetry.metrics
        reporter = Reporter(source, filename)
        state = self._file(filename)
        sha = None
        if self.store is not None:
            sha = _sha(source)
            if state.sha is None \
                    and self._replay_record(state, filename, sha, reporter):
                profile["plan"] = "replayed whole unit (file record)"
                return self._finish(reporter)
        base = None
        if self.stdlib:
            with tracer.span("stdlib_base"):
                builds_before = base_context_cache_info().misses
                base, base_diags = stdlib_context(self.units)
            if base_context_cache_info().misses == builds_before:
                metrics.counter("cache.stdlib_base.hits").inc()
            else:
                metrics.counter("cache.stdlib_base.misses").inc()
            reporter.diagnostics.extend(base_diags)
        prefix = len(reporter.diagnostics)
        try:
            entry = self._check_unit(source, filename, state, profile,
                                     started, reporter, base)
        except _WholeUnit:
            # Redo the unit only: the lookups above are done once.
            del reporter.diagnostics[prefix:]
            entry = self._check_unit(source, filename, state, profile,
                                     started, reporter, base, split=False)
        if sha is not None and state.sha != sha:
            self._save_record(filename, state, sha, reporter, entry)
        return self._finish(reporter)

    def _file(self, filename: str) -> _FileState:
        """``filename``'s state, moved to most recently checked."""
        state = self._files.pop(filename, None)
        if state is None:
            if len(self._files) >= _MAX_FILES:
                self._evict_traced(self._files, "file",
                                   len(self._files) - _MAX_FILES + 1)
            state = _FileState()
        self._files[filename] = state
        return state

    def _check_unit(self, source: str, filename: str, state: _FileState,
                    profile: Dict[str, object], started: float,
                    reporter: Reporter, base, split: bool = True
                    ) -> _CtxEntry:
        """The unit's context, then each function's diagnostics; the
        context entry, whose ``fn_results`` stay ``None`` when the
        context's own diagnostics stop the check."""
        tracer = self.telemetry.tracer
        metrics = self.telemetry.metrics
        entry = self._context_for(source, filename, state, base, split)
        profile["context_seconds"] = time.perf_counter() - started
        reporter.diagnostics.extend(entry.diags)
        if not reporter.ok:
            # check_source parses every body before it elaborates, so
            # a syntax error outranks these diagnostics.
            self._parse_bodies(entry.headers, filename)
            return entry
        if entry.fn_results is not None:
            for qual, diags in entry.fn_results:
                reporter.diagnostics.extend(diags)
            self.stats.last_replayed = [q for q, _ in entry.fn_results]
            self.stats.functions_replayed += len(entry.fn_results)
            metrics.counter("cache.unit_replay.hits").inc(
                len(entry.fn_results))
            profile["plan"] = "replayed whole unit"
            return entry
        check_started = time.perf_counter()
        with tracer.span("check_functions"):
            results = self._check_functions(
                entry.ctx, source, filename, entry.env_token,
                entry.summaries if self.store is not None else None)
        profile["check_seconds"] = time.perf_counter() - check_started
        entry.fn_results = results
        for qual, diags in results:
            reporter.diagnostics.extend(diags)
        return entry

    def _finish(self, reporter: Reporter) -> Reporter:
        metrics = self.telemetry.metrics
        for diag in reporter.diagnostics:
            metrics.counter(f"diagnostics.{diag.code.value}").inc()
        return reporter

    def close(self) -> None:
        """Nothing to release: a session holds only in-memory caches
        (and the file records it writes at the end of a check).
        Kept so sessions work as context managers, and stay usable
        after ``close``."""

    def __enter__(self) -> "CheckSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- context construction ----------------------------------------------

    def _context_for(self, source: str, filename: str, state: _FileState,
                     base, split: bool = True) -> _CtxEntry:
        metrics = self.telemetry.metrics
        chunks = None
        if split:
            with self.telemetry.tracer.span("split_chunks"):
                try:
                    chunks = split_chunks(source)
                except ChunkError:
                    pass
        if chunks:
            chunk_keys = [(_sha(c.text), c.start_line, c.start_col)
                          for c in chunks]
            key: object = tuple(chunk_keys)
        else:
            chunk_keys = []
            key = _sha(source)
        if state.ctx is not None and state.ctx.key == key:
            self.stats.context_hits += 1
            metrics.counter("cache.context.hits").inc()
            return state.ctx
        self.stats.context_misses += 1
        metrics.counter("cache.context.misses").inc()
        programs, env_token = self._parse(source, filename, state, chunks,
                                          chunk_keys)
        sub = Reporter()
        with self.telemetry.tracer.span("elaborate"):
            ctx = build_context(programs, sub, base=base)
        headers = [prog.decls[0] for prog in programs
                   if len(prog.decls) == 1
                   and isinstance(prog.decls[0], ast.FunDef)
                   and prog.decls[0].body is None]
        state.ctx = _CtxEntry(key, ctx, tuple(sub.diagnostics), env_token,
                              headers)
        return state.ctx

    def _parse(self, source: str, filename: str, state: _FileState,
               chunks: Optional[List[Chunk]],
               chunk_keys: List[_ChunkKey]
               ) -> Tuple[List[ast.Program], str]:
        """The revision's programs and env token.  Each chunk comes from
        the file's held map or a fresh parse, and the new map replaces
        the held one."""
        metrics = self.telemetry.metrics
        if not chunks:
            return self._parse_whole(source, filename)
        held = state.chunks
        parsed: Dict[_ChunkKey, Tuple[ast.Program, str]] = {}
        try:
            for chunk, ckey in zip(chunks, chunk_keys):
                parsed[ckey] = held.get(ckey) \
                    or self._parse_chunk(chunk, ckey[0], filename)
        except VaultError:
            # A chunk the scanner mis-split (or a genuine syntax
            # error): parse the whole unit so errors are reported
            # exactly as the non-incremental path reports them.
            return self._parse_whole(source, filename)
        finally:
            hits = len(parsed.keys() & held.keys())
            self.stats.chunk_hits += hits
            self.stats.chunk_parses += len(parsed) - hits
            metrics.counter("cache.chunk_ast.hits").inc(hits)
            metrics.counter("cache.chunk_ast.misses").inc(len(parsed) - hits)
        state.chunks = parsed
        env_token = _sha("\x00".join(part for _, part in parsed.values())
                         + f"\x00{filename}\x00{self.units!r}"
                           f"\x00{self.stdlib!r}")
        return [program for program, _ in parsed.values()], env_token

    def _parse_chunk(self, chunk: Chunk, sha: str, filename: str
                     ) -> Tuple[ast.Program, str]:
        """One chunk-AST entry: the chunk's program and its interface
        digest.  A function definition is parsed only up to its body
        (see ``_header_only``); any other chunk is lexed once and
        parsed whole."""
        tracer = self.telemetry.tracer
        if chunk.brace >= 0:
            with tracer.span("lex", filename=filename):
                tokens = tokenize(chunk.text[:chunk.brace], filename,
                                  chunk.start_line, chunk.start_col)
            fundef = self._header_only(chunk, tokens, filename)
            if fundef is not None:
                return (ast.Program(fundef.span, [fundef], filename),
                        self._interface_part(sha, tokens))
        with tracer.span("lex", filename=filename):
            tokens = tokenize(chunk.text, filename, chunk.start_line,
                              chunk.start_col)
        part = self._interface_part(sha, tokens)
        return parse_program(chunk.text, filename,
                             first_line=chunk.start_line,
                             first_col=chunk.start_col,
                             tokens=tokens), part

    def _header_only(self, chunk: Chunk, tokens: List[Token],
                     filename: str) -> Optional[ast.FunDef]:
        """A body-less ``FunDef`` from the header tokens (the text
        before ``chunk.brace``), or ``None`` when the chunk needs a
        full parse: it is led by a declaration keyword, its header is
        not exactly one function header, or tokens follow its body.

        The definition's span is the one a full parse gives it, ending
        at the body's closing brace, so its own text (and fingerprint)
        reads the function's lines without the body.  The body's text
        and position ride on the node until ``_parse_bodies`` needs
        them.
        """
        if tokens[0].kind in self._DECL_CHUNK_KINDS \
                or chunk.text[chunk.end:].strip(" \t\r\n"):
            return None
        try:
            decl = parse_fun_header(tokens, filename)
        except VaultError:
            return None
        line, col = _line_col(chunk, chunk.end - 1)
        span = Span(decl.span.start, Pos(line, col + 1), filename)
        fundef = ast.FunDef(span, decl, None)
        fundef._pl_body = (chunk.text[chunk.brace:chunk.end],
                           *_line_col(chunk, chunk.brace))
        return fundef

    def _parse_bodies(self, fundefs: Sequence[ast.FunDef],
                      filename: str) -> None:
        """Parse the body of every header-only definition in
        ``fundefs`` that has none yet.  Each body is lexed once, in
        place, and stays on its (cached) node.  A body that does not
        parse on its own raises ``_WholeUnit``."""
        tracer = self.telemetry.tracer
        for fundef in fundefs:
            pending = fundef.__dict__.pop("_pl_body", None)
            if pending is None:
                continue
            text, line, col = pending
            try:
                with tracer.span("lex", filename=filename):
                    tokens = tokenize(text, filename, line, col)
                with tracer.span("parse", filename=filename):
                    fundef.body = parse_fun_body(tokens, filename)
            except VaultError:
                fundef._pl_body = pending
                raise _WholeUnit() from None
            self.stats.body_parses += 1

    #: first-token kinds of chunks whose whole text is their interface
    #: (type/variant/struct/stateset/key declarations, interfaces and
    #: modules — anything that can contribute more than one signature
    #: to the context).
    _DECL_CHUNK_KINDS = frozenset({
        T.KW_INTERFACE, T.KW_MODULE, T.KW_EXTERN, T.KW_TYPE, T.KW_VARIANT,
        T.KW_STRUCT, T.KW_STATESET, T.KW_KEY,
    })

    def _interface_part(self, sha: str, tokens: List[Token]) -> str:
        """One chunk's contribution to the context-wide env token,
        from the chunk's own tokens.

        For a function-definition chunk only the header (tokens up to
        the body's opening brace — return type, name, parameters,
        effect clause; a header-only parse lexes nothing else) feeds
        the digest: body edits must not disturb the env token, that is
        the whole point of the memo.  Any chunk led by a declaration
        keyword digests its full text (its content
        hash) — conservative, but those chunks can define types, keys
        or whole modules whose every detail other fingerprints may see.
        The digest is held with the chunk's AST, so it never depends
        on which revision parsed the chunk.
        """
        if tokens[0].kind in self._DECL_CHUNK_KINDS:
            return sha
        header: List[str] = []
        for tok in tokens:
            if tok.kind is T.LBRACE:
                break
            header.append(tok.text)
        return "\x1f".join(header)

    def _parse_whole(self, source: str, filename: str
                     ) -> Tuple[List[ast.Program], str]:
        """The unit parsed whole, and its env token."""
        self.stats.whole_parses += 1
        return [parse_program(source, filename)], _sha(
            f"unit\x00{_sha(source)}\x00{filename}"
            f"\x00{self.units!r}\x00{self.stdlib!r}")

    def _evict_traced(self, cache: dict, layer: str, evicted: int) -> None:
        """Evict the ``evicted`` oldest entries of ``cache``, leaving a
        trace: a ``cache.<layer>.evictions`` counter and a
        ``cache_evict`` event, so a session thrashing a too-small cap
        is told apart from one with a healthy cache."""
        before = len(cache)
        for key in list(cache)[:evicted]:
            del cache[key]
        self.telemetry.metrics.counter(f"cache.{layer}.evictions").inc(evicted)
        self.telemetry.events.emit(
            "cache_evict",
            f"evicted {evicted} of {before} entries from the "
            f"{layer} cache (cap reached)",
            layer=layer, evicted=evicted, remaining=len(cache))

    # -- function checking -------------------------------------------------

    def _check_functions(self, ctx, source: str, filename: str,
                         env_token: str = "",
                         unit_summaries: Optional[Dict[str, Tuple[
                             Diagnostic, ...]]] = None
                         ) -> List[Tuple[str, Tuple[Diagnostic, ...]]]:
        """Diagnostics per function, in serial (sorted-qual) order.
        ``unit_summaries``, when given, receives the summary of every
        function that has one, by fingerprint."""
        metrics = self.telemetry.metrics
        fn_items = ctx.defined_functions()
        results: Dict[str, Tuple[Diagnostic, ...]] = {}
        to_check: List[Tuple[str, ast.FunDef, str]] = []  # qual, def, fp
        lines = source_lines(source)
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
                        ctx, qual, self._own_text(fundef, lines, filename))
                    if env_token:
                        object.__setattr__(fundef, "_pl_fp",
                                           (env_token, fp))
                cached = self._summaries.get(fp)
                if cached is not None:
                    results[qual] = _relocate(
                        cached, fundef.span.start.line, fundef.span.filename)
                    self.stats.last_replayed.append(qual)
                    self.stats.functions_replayed += 1
                    if unit_summaries is not None:
                        unit_summaries[fp] = cached
                else:
                    to_check.append((qual, fundef, fp))
        self.stats.fingerprints_memoized += memoized
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
        self.last_profile["plan"] = \
            f"checked {len(to_check)} of {len(fn_items)} function(s)"
        parsed = self.stats.body_parses
        self._parse_bodies([fundef for _, fundef, _ in to_check], filename)
        self.last_profile["bodies"] = (self.stats.body_parses - parsed,
                                       len(fn_items))
        if to_check:
            checked = self._run_checks(ctx, to_check)
            for (qual, fundef, fp), diags in zip(to_check, checked):
                results[qual] = diags
                if _inside(diags, fundef.span):
                    summary = _relocate(diags, -fundef.span.start.line, "")
                    self._summaries[fp] = summary
                    if unit_summaries is not None:
                        unit_summaries[fp] = summary
                self.stats.last_checked.append(qual)
                self.stats.functions_checked += 1
            if len(self._summaries) > _MAX_SUMMARIES:
                self._evict_traced(self._summaries, "summary",
                                   len(self._summaries) // 2 + 1)
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
            metrics.histogram("check.function_seconds").observe(
                time.perf_counter() - started)
            out.append(diags)
        return out

    def _own_text(self, fundef: ast.FunDef, unit_lines: List[str],
                  filename: str) -> str:
        """The exact source text of one definition's lines
        (position-free), split the way the lexer numbers lines."""
        span = fundef.span
        if span.filename == filename:
            lines = unit_lines
        elif span.filename.startswith("<stdlib:"):
            unit = span.filename[len("<stdlib:"):-1]
            lines = self._stdlib_lines.get(unit)
            if lines is None:
                lines = source_lines(stdlib_source(unit))
                self._stdlib_lines[unit] = lines
        else:
            return ""
        return "\n".join(lines[span.start.line - 1:span.end.line])

    # -- file records -------------------------------------------------------

    def record_path(self, filename: str = "<input>") -> Optional[str]:
        """The file in ``cache_dir`` that holds (or would hold)
        ``filename``'s record; ``None`` without ``cache_dir``."""
        if self.store is None:
            return None
        return self.store.tier.path(self._record_key(filename))

    def _record_key(self, filename: str) -> str:
        from ..cache import record_key
        return record_key(self._options_salt, filename)

    def _replay_record(self, state: _FileState, filename: str, sha: str,
                       reporter: Reporter) -> bool:
        """Load ``filename``'s record into ``state``, on the session's
        first check of that file (or the first since it was evicted).
        Its summaries join the summary cache; when it was written for
        this very source (``sha``), its diagnostic stream fills
        ``reporter`` and the result is ``True``.

        A missing record is a cold file.  A corrupt one fails the
        store's checksum or will not unpickle: the store quarantines
        it under ``corrupt/`` and emits ``shared_cache_corrupt``; the
        session counts the quarantine, says so on stderr and checks
        the file cold.
        """
        metrics = self.telemetry.metrics
        key = self._record_key(filename)
        corrupt = self.store.counts.corrupt
        with self.telemetry.tracer.span("load_record", filename=filename):
            record = self.store.fetch([key]).get(key)
        if self.store.counts.corrupt != corrupt:
            self.stats.cache_quarantines += 1
            metrics.counter("resilience.cache_quarantines").inc()
            print(f"repro: cache record {self.store.tier.path(key)} is "
                  f"corrupt; quarantined under {self.store.tier.root}"
                  f"/corrupt and rebuilding cold", file=sys.stderr)
            record = None
        # Records come from outside the process: take only the shape
        # a record has.
        if not (isinstance(record, dict)
                and isinstance(record.get("sha"), str)
                and isinstance(record.get("diags"), tuple)
                and isinstance(record.get("functions"), int)
                and isinstance(record.get("summaries"), dict)):
            record = None
        if record is None:
            state.sha = ""
        else:
            state.sha, state.summaries = record["sha"], record["summaries"]
            self._summaries.update(record["summaries"])
            if len(self._summaries) > _MAX_SUMMARIES:
                self._evict_traced(self._summaries, "summary",
                                   len(self._summaries) // 2 + 1)
        if record is None or record["sha"] != sha:
            self.stats.shared_unit_misses += 1
            metrics.counter("cache.shared.unit.misses").inc()
            return False
        reporter.diagnostics.extend(record["diags"])
        self.stats.shared_unit_hits += 1
        self.stats.functions_replayed += record["functions"]
        metrics.counter("cache.shared.unit.hits").inc()
        return True

    def _save_record(self, filename: str, state: _FileState, sha: str,
                     reporter: Reporter, entry: _CtxEntry) -> None:
        """Write ``filename``'s record for the source ``sha`` just
        checked.  A failed write is a ``shared_cache_error`` event (the
        store reports the first few) and a cold next process, never a
        wrong answer."""
        if entry.fn_results is None:
            # The context's diagnostics stopped the check: no function
            # ran, and the file's summaries carry over.
            functions, summaries = 0, state.summaries
        else:
            functions, summaries = len(entry.fn_results), entry.summaries
        state.sha, state.summaries = sha, summaries
        key = self._record_key(filename)
        record = {"sha": sha, "diags": tuple(reporter.diagnostics),
                  "functions": functions, "summaries": summaries}
        with self.telemetry.tracer.span("save_record", filename=filename):
            self.store.store({key: record})
        if self.fault_plan is not None and self.fault_plan.take_cache_flip():
            path = self.store.tier.path(key)
            try:
                offset = self.fault_plan.flip_file_byte(path)
            except OSError:
                return                        # the write itself failed
            self.telemetry.events.emit(
                "fault_injected",
                f"flipped byte {offset} of {path} (injected fault)",
                fault="flip-cache", path=path, offset=offset)
