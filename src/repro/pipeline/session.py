"""The checking pipeline: incremental and cacheable.

A :class:`CheckSession` answers repeated ``check(source)`` calls the
way ``repro.check_source`` does, but re-does only the work an edit
invalidated:

* **per-file retention** — the session keeps each file's *latest*
  revision only (its split, chunk ASTs, function results, summaries,
  context and record state), for at most ``_MAX_FILES`` files, least
  recently checked first.  Vault checks each function against the current
  program's signatures (paper §3), so older revisions are not worth
  holding: an undo re-parses what it changed;
* **chunk splice** — the unit is split into top-level declaration
  chunks (:mod:`repro.pipeline.chunks`) by splicing the held split:
  only the text from the first chunk an edit touches to the first
  held chunk boundary past it is scanned, and the other chunks are
  carried over with their content hashes, so a save does not re-scan
  or re-hash the file;
* **chunked parsing** — a chunk the held revision has too, same
  content hash and position, keeps its AST, so editing one function
  re-parses one declaration, not the file;
* **header-only functions** — a function-definition chunk is parsed
  only up to its body: elaboration needs signatures alone, and a
  summary fingerprint reads the function's text, not its AST.  A body
  is lexed and parsed when its function is flow-checked, and then
  stays on the cached node.  A body that does not parse on its own
  sends the check back to one whole-unit parse, so syntax errors are
  reported exactly as ``check_source`` reports them;
* **context** — the elaborated :class:`ProgramContext` (layered on
  the process-wide stdlib base) is held per file and reused by any
  revision with the same interface: same signatures and every
  declaration chunk unchanged in place.  A body edit, a blank line in
  a body or a reflowed header only re-points the context's function
  definitions at the fresh chunks; ``build_context`` runs only when
  the interface changes, a declaration moves or the held context has
  diagnostics;
* **held function results** — each function's last result is held
  on its ``FunDef`` node, under the env token.  A node outlives a
  check only inside a chunk that was a hit (or a context that was
  held), so while the context was held or reused and the env token is
  the same, the function's text, place and visible signatures are
  what they were, and the result is served as is: no fingerprint,
  summary lookup or relocation.  Under an elaborated context only its
  fingerprint is reused.  A body edit of a 640-function unit
  fingerprints and checks one function; a re-save serves every
  function ("replayed whole unit");
* **summaries** — each file keeps one map from a stable content
  fingerprint of a function and everything it references
  (:mod:`repro.pipeline.fingerprint`) to the function's diagnostics,
  position-free: lines count from the function's first line and no
  file name is kept, so a summary replays wherever the function moves
  within the file.  The map holds the functions of the file's latest
  checked revision (or of its loaded record) and nothing else: a
  function whose text differs from that revision's, an undo or a copy
  under another file name among them, is checked again;
* **file records** — with ``cache_dir``, each file's diagnostic stream
  and its summary map persist as one record on disk (see below), so a
  later process replays an unchanged file without parsing it and
  re-checks only what an edit touched.

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
live and the only place a layer is counted: ``cache.chunk_splice.*``
counts the chunks a split carried over (hits) or scanned (misses),
``cache.held_result.*`` the functions served from their held result
or not, ``cache.fingerprint_memo.*`` the fingerprints reused from a
held result under an elaborated context or computed, and
``cache.unit_replay.hits`` the functions of checks that served every
function so.  :class:`SessionStats` keeps what the registry cannot
say per session (a daemon's sessions share one registry) and the
parse counts that have no registry twin.  After every check the
``session.files`` and ``session.chunks_held`` gauges give the files
and chunk ASTs the session holds.  Spans are recorded only with
``Telemetry(trace=True)``.

File records: ``cache_dir`` is a content-addressed store directory
(:class:`repro.cache.RecordStore`) holding one record per file name and
session options (:func:`repro.cache.record_key`): the source's sha256,
the unit's diagnostic stream, its function count and its functions'
summaries.  On its first check of a file name (or the first since the
file was evicted) the session loads that file's record.  When the
sha matches the source it replays the stream without parsing;
otherwise the record's summaries become the file's summary map and
the check runs as usual.  After a check of a source other than the
one whose record it last loaded or wrote, the session saves the
file's record, through the store's unique temp file, ``fsync`` and
atomic rename.  A unit whose declarations do not elaborate checks no
function, so the file keeps the summary map it had and its record
saves that map again.  A session
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
from ..diagnostics import (Diagnostic, Note, Pos, Reporter, Span,
                           VaultError)
from ..diagnostics.reporter import source_lines
from ..obs import Telemetry
from ..obs.trace import activate as activate_tracer
from ..stdlib import stdlib_context
from ..stdlib.loader import base_context_cache_info
from ..syntax import ast, parse_program, tokenize
from ..syntax.parser import parse_fun_body, parse_fun_header
from ..syntax.tokens import T, Token
from .chunks import Chunk, ChunkError, split_chunks
from .faults import FaultPlan
from .fingerprint import function_fingerprint

#: the files a session holds; past the cap the least recently checked
#: one is evicted, and its next check starts cold, or from its record.
_MAX_FILES = 64


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
    source, at = chunk.source, chunk.start + offset
    nl = source.rfind("\n", chunk.start, at)
    if nl < 0:
        return chunk.start_line, offset + chunk.start_col
    return chunk.start_line + source.count("\n", chunk.start, at), at - nl


class SessionStats:
    """One session's own counters, for tests, benchmarks and the
    daemon's per-session rows.  Cache layers are counted in the
    metrics registry only (see the module docstring); a daemon's
    sessions share that registry, so the per-session counts live here.

    ``last_checked``/``last_replayed`` list the qualified names that
    were flow-analysed vs. served from a held result or summary by the
    most recent ``check`` call.
    """

    def __init__(self) -> None:
        self.checks = 0
        #: chunks parsed (equals ``cache.chunk_ast.misses``)
        self.chunk_parses = 0
        #: function bodies parsed on their own, when a header-only
        #: chunk's function had to be checked
        self.body_parses = 0
        self.whole_parses = 0
        self.functions_checked = 0
        self.functions_replayed = 0
        #: file-record replays (the registry's ``cache.shared.unit.hits``
        #: is shared by a daemon's sessions)
        self.shared_unit_hits = 0
        self.last_checked: List[str] = []
        self.last_replayed: List[str] = []

    def __repr__(self) -> str:
        return (f"SessionStats(checks={self.checks}, "
                f"chunks={self.chunk_parses} parsed, "
                f"functions={self.functions_replayed} replayed/"
                f"{self.functions_checked} checked)")


class _WholeUnit(Exception):
    """A function body failed to parse on its own: redo the check from
    one whole-unit parse, which reports the unit's first syntax error
    in source order (or, after a mis-split, parses cleanly)."""


class _CtxEntry:
    __slots__ = ("key", "ctx", "diags", "env_token", "programs")

    def __init__(self, key: object, ctx, diags: Tuple[Diagnostic, ...],
                 env_token: str = "", programs: Sequence = ()):
        #: the revision's chunk keys (unsplit: its sha256)
        self.key = key
        self.ctx = ctx
        self.diags = diags
        #: the revision's programs, whose header-only definitions include
        #: any a duplicate name hides from ``ctx.fun_defs``: a check
        #: that stops at the context's diagnostics still parses their
        #: bodies, since ``check_source`` raises a syntax error first.
        self.programs = programs
        #: digest of every chunk's *interface* (signatures and
        #: declarations, not function bodies) plus the session's
        #: stdlib/units configuration.  Function results are held on
        #: the FunDef nodes under it, so a body edit, which leaves it
        #: unchanged, re-fingerprints one function.
        self.env_token = env_token


class _ChunkEntry:
    """One parsed chunk of a file's latest revision: its program, its
    interface digest (see ``_interface_part``) and, for a function
    definition chunk, the function.

    The chunk's ``FunDef`` nodes carry their function's last result
    (``_pl_result``, see ``CheckSession._check_functions``).  Every
    node a session checks comes from the checked file and lives in
    that file's chunks or context only: the stdlib base context
    defines no function, so no node is shared between sessions."""

    __slots__ = ("program", "part", "fundef")

    def __init__(self, program: ast.Program, part: str):
        self.program = program
        self.part = part
        decls = program.decls
        self.fundef: Optional[ast.FunDef] = decls[0] \
            if len(decls) == 1 and isinstance(decls[0], ast.FunDef) else None


class _FileState:
    """What a session keeps of one file: its latest revision only."""

    __slots__ = ("split", "chunks", "ctx", "sha", "summaries")

    def __init__(self) -> None:
        #: the last successful split (its chunks point into the one
        #: source they were split from); the next revision splices it.
        self.split: List[Chunk] = []
        #: the chunks of the revision last split and parsed.
        self.chunks: Dict[_ChunkKey, _ChunkEntry] = {}
        self.ctx: Optional[_CtxEntry] = None
        #: with ``cache_dir``, the sha256 of the source whose record
        #: this session last loaded or wrote ("" for none, ``None``
        #: before the record is fetched).
        self.sha: Optional[str] = None
        #: function-relative diagnostics (``_relocate``) by fingerprint:
        #: the functions of the latest checked revision, or of the
        #: loaded record.  The file record saves this map.
        self.summaries: Dict[str, Tuple[Diagnostic, ...]] = {}


class CheckSession:
    """A long-lived checking pipeline that re-checks what an edit changed.

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
                 telemetry: Optional[Telemetry] = None,
                 fault_plan: Optional[FaultPlan] = None):
        self.stdlib = stdlib
        self.units = tuple(units) if units is not None else None
        self.cache_dir = cache_dir
        self.stats = SessionStats()
        #: the session's observability bundle.  Metrics are always
        #: recorded; pass ``Telemetry(trace=True)`` to record spans too.
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        #: each file's latest revision, least recently checked first
        self._files: Dict[str, _FileState] = {}
        #: the file-record store over ``cache_dir`` (its traffic feeds
        #: this session's ``cache.shared.cas.*`` metrics), or ``None``
        #: without ``cache_dir``.
        self.store = None
        self._options_salt = ""
        if cache_dir:
            from ..cache import RecordStore, options_salt
            self._options_salt = options_salt(self.stdlib, self.units)
            # ``fault_plan`` is a deterministic chaos schedule (tests
            # and CI only): the store's saves consume its budgets.
            self.store = RecordStore(cache_dir, self.telemetry,
                                     fault_plan=fault_plan)
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
            functions = self._check_unit(source, filename, state, profile,
                                         started, reporter, base)
        except _WholeUnit:
            # Redo the unit only: the lookups above are done once.
            del reporter.diagnostics[prefix:]
            functions = self._check_unit(source, filename, state, profile,
                                         started, reporter, base,
                                         split=False)
        if sha is not None and state.sha != sha:
            self._save_record(filename, state, sha, reporter, functions)
        return self._finish(reporter)

    def _file(self, filename: str) -> _FileState:
        """``filename``'s state, moved to most recently checked."""
        state = self._files.pop(filename, None)
        if state is None:
            evicted = len(self._files) - _MAX_FILES + 1
            if evicted > 0:
                # A trace, so a session thrashing a too-small cap is
                # told apart from one with a healthy cache.
                for name in list(self._files)[:evicted]:
                    del self._files[name]
                self.telemetry.metrics.counter(
                    "cache.file.evictions").inc(evicted)
                self.telemetry.events.emit(
                    "cache_evict", f"evicted {evicted} of "
                    f"{len(self._files) + evicted} files (cap reached)",
                    layer="file", evicted=evicted,
                    remaining=len(self._files))
            state = _FileState()
        self._files[filename] = state
        return state

    def _check_unit(self, source: str, filename: str, state: _FileState,
                    profile: Dict[str, object], started: float,
                    reporter: Reporter, base, split: bool = True
                    ) -> Optional[int]:
        """The unit's context, then each function's diagnostics; the
        number of functions answered, or ``None`` when the context's
        own diagnostics stop the check."""
        entry, how = self._context_for(source, filename, state, base, split)
        profile["context_seconds"] = time.perf_counter() - started
        reporter.diagnostics.extend(entry.diags)
        if not reporter.ok:
            # check_source parses every body before it elaborates, so
            # a syntax error outranks these diagnostics.
            self._parse_bodies([decl for program in entry.programs
                                for decl in program.decls
                                if isinstance(decl, ast.FunDef)], filename)
            return None
        check_started = time.perf_counter()
        with self.telemetry.tracer.span("check_functions"):
            results, whole = self._check_functions(
                entry, state, source, filename, how)
        if not whole:
            profile["check_seconds"] = time.perf_counter() - check_started
        for diags in results:
            reporter.diagnostics.extend(diags)
        return len(results)

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
                     base, split: bool = True) -> Tuple[_CtxEntry, str]:
        """The revision's context entry and how it was had: ``held``,
        the held entry on a re-save; ``reused``, the held context under
        the new chunks when the interface is unchanged
        (``_kept_functions``); or ``elaborated``, a new one."""
        chunks = None
        if split:
            with self.telemetry.tracer.span("split_chunks"):
                try:
                    chunks = split_chunks(source, state.split)
                except ChunkError:
                    pass
        if chunks:
            state.split = chunks
            # a chunk the splice carried over kept its hash
            scanned = sum(chunk.sha is None for chunk in chunks)
            metrics = self.telemetry.metrics
            metrics.counter("cache.chunk_splice.hits").inc(
                len(chunks) - scanned)
            metrics.counter("cache.chunk_splice.misses").inc(scanned)
            chunk_keys = [(c.digest(), c.start_line, c.start_col)
                          for c in chunks]
            key: object = tuple(chunk_keys)
        else:
            chunk_keys = []
            key = _sha(source)
        held = state.ctx
        if held is not None and held.key == key:
            return held, self._count_context("held")
        held_chunks = state.chunks
        programs, env_token = self._parse(source, filename, state, chunks,
                                          chunk_keys)
        # Functions are checked against declared signatures only (paper
        # §3), so a revision with the held interface elaborates to the
        # held context.  Reuse it when it came from chunks (those
        # ``_kept_functions`` compares with), has no diagnostics of its
        # own (they may point into function bodies, which move) and
        # has this revision's env token.
        kept = None
        if held is not None and isinstance(held.key, tuple) \
                and not held.diags and held.env_token == env_token:
            kept = self._kept_functions(held_chunks, state.chunks)
        if kept is not None:
            how = self._count_context("reused")
            ctx, diags = held.ctx, held.diags
            for fundef in kept:
                ctx.fun_defs[fundef.decl.name] = fundef
        else:
            how = self._count_context("elaborated")
            sub = Reporter()
            with self.telemetry.tracer.span("elaborate"):
                ctx = build_context(programs, sub, base=base)
            diags = tuple(sub.diagnostics)
        state.ctx = _CtxEntry(key, ctx, diags, env_token, programs)
        return state.ctx, how

    def _count_context(self, how: str) -> str:
        """Record what the context step did, and return it: ``held`` and
        ``reused`` skip ``build_context`` (context hits), ``elaborated``
        runs it."""
        self.telemetry.profile["context"] = how
        self.telemetry.metrics.counter(
            "cache.context.misses" if how == "elaborated"
            else "cache.context.hits").inc()
        return how

    @staticmethod
    def _kept_functions(held: Dict[_ChunkKey, _ChunkEntry],
                        chunks: Dict[_ChunkKey, _ChunkEntry]
                        ) -> Optional[List[ast.FunDef]]:
        """The function definitions of ``chunks`` in unit order, when
        every other chunk is one of ``held`` at the same place; else
        ``None``.  Declaration chunks hold the context's positioned
        tables (type spans, interfaces, modules), so they must not
        move; a function chunk adds only its position-free signature."""
        fundefs = []
        for ckey, chunk in chunks.items():
            if chunk.fundef is not None:
                fundefs.append(chunk.fundef)
            elif ckey not in held:
                return None
        return fundefs

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
        parsed: Dict[_ChunkKey, _ChunkEntry] = {}
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
            self.stats.chunk_parses += len(parsed) - hits
            metrics.counter("cache.chunk_ast.hits").inc(hits)
            metrics.counter("cache.chunk_ast.misses").inc(len(parsed) - hits)
        state.chunks = parsed
        env_token = _sha("\x00".join(chunk.part for chunk in parsed.values())
                         + f"\x00{filename}\x00{self.units!r}"
                           f"\x00{self.stdlib!r}")
        return [chunk.program for chunk in parsed.values()], env_token

    def _parse_chunk(self, chunk: Chunk, sha: str, filename: str
                     ) -> _ChunkEntry:
        """One chunk-AST entry: the chunk's program and its interface
        digest.  A function definition is parsed only up to its body
        (see ``_header_only``); any other chunk is lexed once and
        parsed whole."""
        tracer = self.telemetry.tracer
        text = chunk.text
        if chunk.brace >= 0:
            with tracer.span("lex", filename=filename):
                tokens = tokenize(text[:chunk.brace], filename,
                                  chunk.start_line, chunk.start_col)
            fundef = self._header_only(chunk, text, tokens, filename)
            if fundef is not None:
                return _ChunkEntry(ast.Program(fundef.span, [fundef],
                                               filename),
                                   self._interface_part(sha, tokens))
        with tracer.span("lex", filename=filename):
            tokens = tokenize(text, filename, chunk.start_line,
                              chunk.start_col)
        part = self._interface_part(sha, tokens)
        return _ChunkEntry(parse_program(text, filename,
                                         first_line=chunk.start_line,
                                         first_col=chunk.start_col,
                                         tokens=tokens), part)

    def _header_only(self, chunk: Chunk, text: str, tokens: List[Token],
                     filename: str) -> Optional[ast.FunDef]:
        """A body-less ``FunDef`` from the header tokens (the text
        before ``chunk.brace``; ``text`` is the chunk's), or ``None``
        when the chunk needs a full parse: it is led by a declaration
        keyword, its header is not exactly one function header, or
        tokens follow its body.

        The definition's span is the one a full parse gives it, ending
        at the body's closing brace, so its own text (and fingerprint)
        reads the function's lines without the body.  The body's text
        and position ride on the node until ``_parse_bodies`` needs
        them.
        """
        if tokens[0].kind in self._DECL_CHUNK_KINDS \
                or text[chunk.end:].strip(" \t\r\n"):
            return None
        try:
            decl = parse_fun_header(tokens, filename)
        except VaultError:
            return None
        line, col = _line_col(chunk, chunk.end - 1)
        span = Span(decl.span.start, Pos(line, col + 1), filename)
        fundef = ast.FunDef(span, decl, None)
        fundef._pl_body = (text[chunk.brace:chunk.end],
                           *_line_col(chunk, chunk.brace))
        return fundef

    def _parse_bodies(self, fundefs: Sequence[ast.FunDef],
                      filename: str) -> None:
        """Parse the body of every header-only definition in
        ``fundefs`` that has none yet (any other is skipped).  Each
        body is lexed once, in place, and stays on its (cached) node.
        A body that does not parse on its own raises ``_WholeUnit``."""
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

    # -- function checking -------------------------------------------------

    def _check_functions(self, entry: _CtxEntry, state: _FileState,
                         source: str, filename: str, how: str
                         ) -> Tuple[List[Tuple[Diagnostic, ...]], bool]:
        """Diagnostics per function, in serial (sorted-qual) order, and
        whether every one was served from its held result.

        Each function's result is held on its ``FunDef`` node as
        ``_pl_result``, ``(env token, fingerprint, diagnostics)``.  A
        node is carried into a check only by a chunk that is a hit
        (same text and place) or a held context, so when the context
        was held or reused (``how``) a node whose result has this env
        token is answered from it: no fingerprint, summary lookup or
        relocation.  Its text and place are what they were, and every
        signature it sees is the env token's; a span outside its lines
        can only be in a declaration chunk, which a held or reused
        context has in place.  Under an elaborated context such a node
        reuses only its fingerprint.  Every other function is answered
        by the file's summary map or a flow check, and the result is
        then held on its node.

        The file's new summary map has every answered function's
        summary: a served function's is the held map's, since the
        held or reused context is the one the check that wrote that
        map ran against.  A diagnostic with a span outside its
        function's lines makes no summary."""
        metrics = self.telemetry.metrics
        profile = self.telemetry.profile
        stats = self.stats
        ctx, env_token = entry.ctx, entry.env_token
        held = state.summaries
        summaries: Dict[str, Tuple[Diagnostic, ...]] = {}
        fn_items = ctx.defined_functions()
        results: Dict[str, Tuple[Diagnostic, ...]] = {}
        # qual, def, fingerprint
        to_check: List[Tuple[str, ast.FunDef, str]] = []
        lines: Optional[List[str]] = None
        servable = how != "elaborated"
        served = memoized = 0
        with self.telemetry.tracer.span("fingerprint",
                                        functions=len(fn_items)):
            for qual, fundef in fn_items:
                result = fundef.__dict__.get("_pl_result")
                if result is not None and result[0] == env_token:
                    fp = result[1]
                    if servable:
                        results[qual] = result[2]
                        summary = held.get(fp)
                        if summary is not None:
                            summaries[fp] = summary
                        stats.last_replayed.append(qual)
                        served += 1
                        continue
                    # A fingerprint covers the function's own text plus
                    # the rendered signatures it can see; both are
                    # pinned by (this node, the env token).
                    memoized += 1
                else:
                    # the function's own lines, position-free
                    if lines is None:
                        lines = source_lines(source)
                    span = fundef.span
                    fp = function_fingerprint(ctx, qual, "\n".join(
                        lines[span.start.line - 1:span.end.line]))
                summary = held.get(fp)
                if summary is not None:
                    results[qual] = diags = _relocate(
                        summary, fundef.span.start.line, fundef.span.filename)
                    fundef._pl_result = (env_token, fp, diags)
                    summaries[fp] = summary
                    stats.last_replayed.append(qual)
                else:
                    to_check.append((qual, fundef, fp))
        stats.functions_replayed += len(fn_items) - len(to_check)
        metrics.counter("cache.held_result.hits").inc(served)
        metrics.counter("cache.held_result.misses").inc(len(fn_items) - served)
        if servable and served == len(fn_items):
            state.summaries = summaries
            metrics.counter("cache.unit_replay.hits").inc(served)
            profile["plan"] = "replayed whole unit"
            return [results[qual] for qual, _ in fn_items], True
        if memoized:
            metrics.counter("cache.fingerprint_memo.hits").inc(memoized)
        misses = len(fn_items) - served - memoized
        if misses:
            metrics.counter("cache.fingerprint_memo.misses").inc(misses)
        replayed = len(fn_items) - served - len(to_check)
        if replayed:
            metrics.counter("cache.summary.hits").inc(replayed)
        if to_check:
            metrics.counter("cache.summary.misses").inc(len(to_check))
        profile["plan"] = \
            f"checked {len(to_check)} of {len(fn_items)} function(s)"
        parsed = stats.body_parses
        self._parse_bodies([fundef for _, fundef, _ in to_check], filename)
        profile["bodies"] = (stats.body_parses - parsed, len(fn_items))
        if to_check:
            checked = self._run_checks(ctx, to_check)
            for (qual, fundef, fp), diags in zip(to_check, checked):
                results[qual] = diags
                if _inside(diags, fundef.span):
                    summaries[fp] = _relocate(
                        diags, -fundef.span.start.line, "")
                fundef._pl_result = (env_token, fp, diags)
                stats.last_checked.append(qual)
                stats.functions_checked += 1
        state.summaries = summaries
        return [results[qual] for qual, _ in fn_items], False

    def _run_checks(self, ctx, to_check) -> List[Tuple[Diagnostic, ...]]:
        """Flow-check each cache miss, in the order given."""
        tracer = self.telemetry.tracer
        metrics = self.telemetry.metrics
        out: List[Tuple[Diagnostic, ...]] = []
        for qual, fundef, _fp in to_check:
            started = time.perf_counter()
            with tracer.span("check_function", function=qual):
                diags = tuple(check_function_diagnostics(ctx, qual, fundef))
            metrics.histogram("check.function_seconds").observe(
                time.perf_counter() - started)
            out.append(diags)
        return out

    # -- file records -------------------------------------------------------

    def record_path(self, filename: str = "<input>") -> Optional[str]:
        """The file in ``cache_dir`` that holds (or would hold)
        ``filename``'s record; ``None`` without ``cache_dir``."""
        if self.store is None:
            return None
        return self.store.path(self._record_key(filename))

    def _record_key(self, filename: str) -> str:
        from ..cache import record_key
        return record_key(self._options_salt, filename)

    def _replay_record(self, state: _FileState, filename: str, sha: str,
                       reporter: Reporter) -> bool:
        """Load ``filename``'s record into ``state``, on the session's
        first check of that file (or the first since it was evicted).
        Its summaries become the file's summary map; when it was written
        for this very source (``sha``), its diagnostic stream fills
        ``reporter`` and the result is ``True``.

        A missing record is a cold file.  A corrupt one fails the
        store's checksum or will not unpickle: the store quarantines
        it under ``corrupt/`` and emits ``shared_cache_corrupt``; the
        session counts the quarantine, says so on stderr and checks
        the file cold.
        """
        metrics = self.telemetry.metrics
        key = self._record_key(filename)
        corrupt = self.store.corrupt
        with self.telemetry.tracer.span("load_record", filename=filename):
            record = self.store.load(key)
        if self.store.corrupt != corrupt:
            metrics.counter("resilience.cache_quarantines").inc()
            print(f"repro: cache record {self.store.path(key)} is "
                  f"corrupt; quarantined under {self.store.root}"
                  f"/corrupt and rebuilding cold", file=sys.stderr)
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
        if record is None or record["sha"] != sha:
            metrics.counter("cache.shared.unit.misses").inc()
            return False
        reporter.diagnostics.extend(record["diags"])
        self.stats.shared_unit_hits += 1
        self.stats.functions_replayed += record["functions"]
        metrics.counter("cache.shared.unit.hits").inc()
        return True

    def _save_record(self, filename: str, state: _FileState, sha: str,
                     reporter: Reporter, functions: Optional[int]) -> None:
        """Write ``filename``'s record for the source ``sha`` just
        checked: ``functions`` is how many functions it answered
        (``None``: the context's diagnostics stopped it).  A failed
        write is a ``shared_cache_error`` event (the store reports the
        first few) and a cold next process, never a wrong answer."""
        state.sha = sha
        key = self._record_key(filename)
        record = {"sha": sha, "diags": tuple(reporter.diagnostics),
                  "functions": functions or 0, "summaries": state.summaries}
        with self.telemetry.tracer.span("save_record", filename=filename):
            self.store.save(key, record)
