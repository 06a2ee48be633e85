"""The checking pipeline: incremental and cacheable.

A :class:`CheckSession` answers repeated ``check(source)`` calls the
way ``repro.check_source`` does, but re-does only the work an edit
invalidated:

* **per-file retention** — the session keeps each file's *latest*
  revision only (its split with each chunk's parse, function results,
  summaries, context and record state), for at most ``_MAX_FILES``
  files, least
  recently checked first.  Vault checks each function against the current
  program's signatures (paper §3), so older revisions are not worth
  holding: an undo re-parses what it changed;
* **chunk splice** — the unit is split into top-level declaration
  chunks (:mod:`repro.pipeline.chunks`) by splicing the held split:
  only the text from the first chunk an edit touches to the first
  held chunk boundary past it is scanned, and the split reports which
  range of held chunks the scanned ones replace.  Every other chunk is
  the held object, so a save does not re-scan or copy the file's
  chunks;
* **chunked parsing** — each chunk's parse is held on the chunk
  (``Chunk.parsed``), so a carried chunk keeps its AST and every chunk
  in the range is parsed: editing one function re-parses one
  declaration, not the file;
* **range update** — every per-file structure is updated by that
  range only: the context and the function results are touched only
  where the range's chunks are.  A re-save is the empty range; an edit
  that adds or removes a line runs the range to the end of the unit,
  since every chunk below it moves.  The reporter a check returns
  quotes a reported line from the chunk it starts in, not from the
  unit split into lines;
* **header-only functions** — a function-definition chunk is parsed
  only up to its body: elaboration needs signatures alone, and a
  summary fingerprint reads the function's text, not its AST.  A body
  is lexed and parsed when its function is flow-checked, and then
  stays on the cached node;
* **context** — the elaborated :class:`ProgramContext` (layered on
  the process-wide stdlib base) is held per file, with the split it
  was had under, and reused by a revision whose range holds function
  definitions only, with the headers of the chunks they replace, one
  for one.  A body edit, a blank line in a body or a reflowed header
  only re-points the context's definitions of the range's functions
  at their fresh nodes; ``build_context`` runs only when a header
  changes, a declaration is in the range (it changed or moved) or the
  held context has diagnostics.  The context entry holds the defined
  functions in sorted order, sorted once when it is elaborated;
* **held function results** — each function's last diagnostics and
  fingerprint are held in the context entry's lists, by sorted place.
  A node outlives a check only inside a chunk that was carried (or a
  context that was held), so while the context was held or reused the
  functions to answer are the *pending* ones, whose node is new: the
  range's.  Every other result is served as is: no
  fingerprint, summary lookup or relocation, and the unit's
  diagnostics are the held per-function tuples joined.  Under an
  elaborated context every function is pending.  A body edit of a
  640-function unit parses one header and one body, fingerprints
  (from the function's own chunk) and checks one function; a re-save
  serves every function ("replayed whole unit");
* **held render** — beside each function's diagnostics the context
  entry holds their rendered text, filled lazily by the reporter's
  ``render()`` (:meth:`Reporter.hold`): a save renders only the
  functions it answered, and the unit's output is the held texts
  joined.  A served function's text is dropped too when a line it
  quotes reads differently: the line the splice's range starts or
  ends on, which neighbouring chunks share.  A text is held only for
  a result ``_inside`` accepts; one that quotes a line outside its
  function is rendered again by every render.  An elaborated context
  starts with no text rendered, so an interface edit renders every
  diagnostic once, as ``check_source``'s reporter does;
* **summaries** — each file keeps one map from a stable content
  fingerprint of a function and everything it references
  (:mod:`repro.pipeline.fingerprint`) to the function's diagnostics,
  position-free: lines count from the function's first line and no
  file name is held, so a summary replays wherever the function moves
  within the file.  The map holds the functions of the file's latest
  checked revision (or of its loaded record) and nothing else: an
  answered function's summary replaces the one it had before.  A
  function whose text differs from that revision's, an undo or a copy
  under another file name among them, is checked again;
* **file records** — with ``cache_dir``, each file's diagnostic stream
  and its summary map persist as one record on disk (see below), so a
  later process replays an unchanged file without parsing it and
  re-checks only what an edit touched.

A revision that does not split, or one of whose chunks or function
bodies does not parse on its own, is answered the way
``check_source`` answers it: the unit is parsed whole (so a syntax
error raises exactly as there), elaborated, and every function is
flow-checked.  Nothing of that answer is held: the file keeps the
chunked state it had, and its next revision splices that as usual.

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
live and the only place a layer is counted: ``cache.chunk_ast.*``
counts the chunks a split carried over with their parse (hits) or
parsed (misses), ``cache.context.*`` the context steps that skipped
``build_context`` or ran it, ``cache.held_result.*`` the functions
served from their held result
or not, and ``cache.unit_replay.hits`` the functions of checks that
served every function so; ``check.fingerprints`` counts the function
fingerprints computed.  Each check's own account is one
:class:`CheckRecord`, ``CheckSession.last``: its plan and context
step, how each function was answered, what it parsed and where its
time went.  A check that returns adds its record to
:class:`SessionStats`, the session's totals, which the registry
cannot give per session (a daemon's sessions share one registry).
After every check the ``session.files`` and ``session.chunks_held``
gauges give the files and the chunks of their held splits.  Spans are
recorded only with ``Telemetry(trace=True)``.

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
from collections import Counter
from itertools import chain
from operator import attrgetter, countOf
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..core import build_context, check_function_diagnostics
from ..diagnostics import (Diagnostic, Note, Pos, Reporter, Span,
                           VaultError)
from ..obs import Telemetry
from ..obs.trace import activate as activate_tracer
from ..stdlib import stdlib_context
from ..stdlib.loader import base_context_cache_info
from ..syntax import ast, parse_program, tokenize
from ..syntax.parser import parse_fun_body, parse_fun_header
from ..syntax.tokens import T, Token
from .chunks import Chunk, ChunkError, Split, split_chunks
from .faults import FaultPlan
from .fingerprint import function_fingerprint

#: the files a session holds; past the cap the least recently checked
#: one is evicted, and its next check starts cold, or from its record.
_MAX_FILES = 64


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


def _line_col(text: str, line: int, col: int, offset: int
              ) -> Tuple[int, int]:
    """Line and column of ``text[offset]`` in the unit, for a ``text``
    that starts at ``line`` and ``col``, as the lexer numbers them (only
    ``\n`` ends a line)."""
    nl = text.rfind("\n", 0, offset)
    if nl < 0:
        return line, offset + col
    return line + text.count("\n", 0, offset), offset - nl


def _line_around(source: str, offset: int) -> str:
    """The line of ``source`` that holds ``offset``."""
    end = source.find("\n", offset)
    return source[source.rfind("\n", 0, offset) + 1:
                  end if end >= 0 else len(source)]


def _defined(decls: Sequence[ast.Decl], module: Optional[str] = None):
    """The qualified names of the functions ``decls`` define, as
    ``build_context`` names them."""
    for decl in decls:
        if isinstance(decl, ast.FunDef):
            yield f"{module}.{decl.decl.name}" if module else decl.decl.name
        elif isinstance(decl, ast.ModuleDecl):
            yield from _defined(decl.decls, decl.name)


def _forget_stale_texts(entry: "_CtxEntry", old: Split, new: Split
                        ) -> None:
    """Drop the held texts that the splice of ``old`` into ``new`` may
    have made stale, under a reused context.

    A served function has its chunk's text and place, but a line it
    quotes need not lie in its chunk alone: its closing brace's line
    runs on into the next chunk's leading trivia, and its first line
    may start in the chunk before.  Outside the range only the line the
    range starts on and the one it ends on hold both unchanged and
    replaced text (every other line is the held one, at its place), so
    where either reads differently, the texts of the chunks that share
    it are dropped.  A body edit changes neither line, so it drops
    nothing here."""
    def forget(chunk: Chunk) -> None:
        for qual in _defined(chunk.parsed.program.decls):
            at = entry.index.get(qual)
            if at is not None:
                entry.forget(at)

    k, j, m = new.spliced
    at = old.starts[k]
    if k and _line_around(new.source, at) != _line_around(old.source, at):
        # chunk k-1 ends on the line; before it, each that starts on it
        line = old.chunks[k].start_line
        y = k - 1
        forget(new.chunks[y])
        while y and new.chunks[y].start_line == line:
            y -= 1
            forget(new.chunks[y])
    y = k + m
    if y < len(new) and _line_around(new.source, new.starts[y]) != \
            _line_around(old.source, old.starts[j]):
        line = new.chunks[y].start_line
        while y < len(new) and new.chunks[y].start_line == line:
            forget(new.chunks[y])
            y += 1


class CheckRecord:
    """One ``check`` call's account: ``CheckSession.last`` holds the
    latest, and ``vaultc check --profile`` prints it.  ``functions``
    maps each answered function's qualified name, in sorted order, to
    ``"held"`` (its held result), ``"summary"`` (the file's summary
    map) or ``"checked"`` (a flow check); a file-record replay answers
    ``record_replayed`` functions instead."""

    def __init__(self) -> None:
        self.plan: Optional[str] = None
        #: ``held``, ``reused`` or ``elaborated``
        self.context: Optional[str] = None
        self.functions: Dict[str, str] = {}
        self.chunks_parsed = 0
        #: bodies parsed on their own (see ``_parse_bodies``)
        self.bodies_parsed = 0
        self.whole_parse = False
        #: the file record's function count; ``None`` without a replay
        self.record_replayed: Optional[int] = None
        self.context_seconds: Optional[float] = None
        self.check_seconds: Optional[float] = None
        self.total_seconds = 0.0
        #: ``"Type: message"`` of the exception the check raised
        self.error: Optional[str] = None

    def quals(self, *how: str) -> List[str]:
        """The functions answered by one of ``how``, in sorted order."""
        return [qual for qual, by in self.functions.items() if by in how]

    @property
    def functions_checked(self) -> int:
        return countOf(self.functions.values(), "checked")

    @property
    def functions_replayed(self) -> int:
        """Functions answered without a flow check."""
        return len(self.functions) - self.functions_checked \
            + (self.record_replayed or 0)


class SessionStats:
    """A session's totals over the checks that returned (``add``), for
    the daemon's per-session rows, tests and benchmarks (the end-to-end
    benchmark's edit loop reads ``chunk_parses`` and
    ``functions_checked``)."""

    def __init__(self) -> None:
        self.checks = 0
        self.chunk_parses = 0
        self.functions_checked = 0
        self.functions_replayed = 0
        #: file-record replays (the registry's ``cache.shared.unit.hits``
        #: is shared by a daemon's sessions)
        self.shared_unit_hits = 0

    def add(self, record: CheckRecord) -> None:
        """Count one check that returned."""
        self.checks += 1
        self.chunk_parses += record.chunks_parsed
        self.functions_checked += record.functions_checked
        self.functions_replayed += record.functions_replayed
        self.shared_unit_hits += record.record_replayed is not None


class _WholeUnit(Exception):
    """A chunk or a function body failed to parse on its own: answer
    the revision from one whole-unit parse, which reports the unit's
    first syntax error in source order (or, after a mis-split, parses
    cleanly)."""


class _CtxEntry:
    """A file's elaborated context, and its functions' latest results
    and their rendered texts in sorted qualified-name order.  It
    belongs to the file's held split (``_FileState``): it was
    elaborated or last reused under that split."""

    __slots__ = ("ctx", "diags", "quals", "index", "results", "fps",
                 "pending", "texts", "unrendered", "volatile", "version",
                 "__weakref__")

    def __init__(self, ctx, diags: Tuple[Diagnostic, ...]):
        self.ctx = ctx
        self.diags = diags
        #: the defined functions in sorted order and each one's place
        self.quals = sorted(ctx.fun_defs)
        self.index = {qual: i for i, qual in enumerate(self.quals)}
        #: each function's diagnostics and fingerprint, by place
        self.results: List[Tuple[Diagnostic, ...]] = [()] * len(self.quals)
        self.fps: List[Optional[str]] = [None] * len(self.quals)
        #: the functions whose node is new since they were last
        #: answered: every one after elaboration, then the ones an
        #: edit re-parses.  ``_check_functions`` answers these only.
        self.pending: Set[str] = set(self.quals)
        #: each function's diagnostics rendered (``Reporter.render``
        #: fills them), by place: ``None`` until rendered, and ``""``
        #: for no diagnostics, so a slot starts as empty as its result
        self.texts: List[Optional[str]] = [""] * len(self.quals)
        #: the places the next render fills: the ones answered or made
        #: stale since the last render, plus every ``volatile`` one
        self.unrendered: Set[int] = set()
        #: the places whose result ``_inside`` rejects: a line they
        #: quote may change while their function does not, so every
        #: render renders them again
        self.volatile: Set[int] = set()
        #: bumped by every change to ``results`` or ``texts``; a
        #: reporter renders through the slots only while it has the
        #: version it was made with (see ``Reporter.hold``)
        self.version = 0

    def answer(self, at: int, diags: Tuple[Diagnostic, ...],
               hold: bool) -> None:
        """Place ``at``'s new result; its text is rendered afresh, and
        held only with ``hold``."""
        self.results[at] = diags
        if hold:
            self.volatile.discard(at)
        else:
            self.volatile.add(at)
        if diags:
            self.forget(at)
        else:
            self.texts[at] = ""
            self.version += 1

    def forget(self, at: int) -> None:
        """Drop place ``at``'s text: the next render renders it."""
        self.texts[at] = None
        self.unrendered.add(at)
        self.version += 1


class _ChunkEntry:
    """A chunk's parse, held on the chunk (``Chunk.parsed``): its
    program, its interface part (see ``_interface_part``) and, for a
    function definition chunk, the function.

    Every node a session checks comes from the checked file and lives
    in that file's chunks or context only: the stdlib base context
    defines no function, so no node is shared between sessions."""

    __slots__ = ("program", "part", "fundef")

    def __init__(self, program: ast.Program, part: Optional[str]):
        self.program = program
        self.part = part
        decls = program.decls
        self.fundef: Optional[ast.FunDef] = decls[0] \
            if len(decls) == 1 and isinstance(decls[0], ast.FunDef) else None


class _FileState:
    """What a session keeps of one file: its latest revision only."""

    __slots__ = ("split", "ctx", "sha", "summaries")

    def __init__(self) -> None:
        #: the split of the latest revision whose context step
        #: succeeded, every chunk parsed, and that context: the two are
        #: set together (dropping the parses of the chunks the split
        #: replaced), and the next revision splices ``split``.
        self.split: Optional[Split] = None
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

    ``last`` is the latest check's :class:`CheckRecord`, replaced by
    each check; ``stats`` sums the records of the checks that returned.
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
        self.last = CheckRecord()
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

    # -- public API --------------------------------------------------------

    def check(self, source: str, filename: str = "<input>") -> Reporter:
        """Parse, elaborate and protocol-check one compilation unit."""
        self.last = record = CheckRecord()
        started = time.perf_counter()
        tracer = self.telemetry.tracer
        try:
            with activate_tracer(tracer), \
                    tracer.span("check_unit", filename=filename):
                reporter = self._check_inner(source, filename, started)
        except BaseException as exc:
            # A crash mid-check must not masquerade as a clean record,
            # nor count in the session's totals.
            record.error = f"{type(exc).__name__}: {exc}"
            self.telemetry.events.emit(
                "check_aborted", f"check of {filename} raised: {exc}",
                filename=filename, error=record.error)
            raise
        finally:
            record.total_seconds = time.perf_counter() - started
            metrics = self.telemetry.metrics
            metrics.gauge("session.files").set(len(self._files))
            metrics.gauge("session.chunks_held").set(
                sum(len(state.split) for state in self._files.values()
                    if state.split is not None))
        self.stats.add(record)
        return reporter

    def _check_inner(self, source: str, filename: str, started: float
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
                self.last.plan = "replayed whole unit (file record)"
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
        split = self._split(source, state)
        if split is not None:
            # A quoted line is read from its chunk, not from the unit
            # split into lines.
            reporter.line_at = split.line
            prefix = len(reporter.diagnostics)
            try:
                self._check_unit(filename, state, started, reporter, base,
                                 split)
            except _WholeUnit:
                # Redo the unit only: the lookups above are done once.
                del reporter.diagnostics[prefix:]
                split = None
        if split is None:
            self._check_whole(source, filename, started, reporter, base)
        if sha is not None and state.sha != sha:
            self._save_record(filename, state, sha, reporter)
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

    def _check_unit(self, filename: str, state: _FileState, started: float,
                    reporter: Reporter, base, split: Split) -> None:
        """The unit's context, then each function's diagnostics (none
        when the context's own diagnostics stop the check), from the
        revision's chunks; ``_WholeUnit`` when one does not parse."""
        entry, how = self._context_for(filename, state, base, split)
        self.last.context_seconds = time.perf_counter() - started
        reporter.diagnostics.extend(entry.diags)
        if not reporter.ok:
            # check_source parses every body before it elaborates, so
            # a syntax error outranks these diagnostics.
            self._parse_bodies([decl for chunk in split.chunks
                                for decl in chunk.parsed.program.decls
                                if isinstance(decl, ast.FunDef)], filename)
            return
        check_started = time.perf_counter()
        with self.telemetry.tracer.span("check_functions"):
            whole = self._check_functions(entry, state, filename, how, split)
        if not whole:
            self.last.check_seconds = time.perf_counter() - check_started
        prefix = len(reporter.diagnostics)
        reporter.diagnostics.extend(chain.from_iterable(entry.results))
        reporter.hold(entry, prefix)

    def _check_whole(self, source: str, filename: str, started: float,
                     reporter: Reporter, base) -> None:
        """Answer the revision as ``check_source`` does: parse the unit
        whole, elaborate it and flow-check every function.  Nothing is
        held, so the file keeps the chunked state it had."""
        record = self.last
        record.whole_parse = True
        record.functions = {}
        program = parse_program(source, filename)
        self._count_context("elaborated")
        ctx, diags = self._elaborate([program], base)
        record.context_seconds = time.perf_counter() - started
        reporter.diagnostics.extend(diags)
        if not reporter.ok:
            return
        check_started = time.perf_counter()
        quals = sorted(ctx.fun_defs)
        record.functions = dict.fromkeys(quals, "checked")
        record.plan = f"checked {len(quals)} of {len(quals)} function(s)"
        with self.telemetry.tracer.span("check_functions"):
            for diags in self._run_checks(
                    ctx, [(qual, ctx.fun_defs[qual]) for qual in quals]):
                reporter.diagnostics.extend(diags)
        record.check_seconds = time.perf_counter() - check_started

    def _finish(self, reporter: Reporter) -> Reporter:
        metrics = self.telemetry.metrics
        codes = Counter(map(attrgetter("code"), reporter.diagnostics))
        for code, count in codes.items():
            metrics.counter(f"diagnostics.{code.value}").inc(count)
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

    def _split(self, source: str, state: _FileState) -> Optional[Split]:
        """The revision's split, spliced from the file's held split, or
        ``None`` when the unit cannot be split (or is empty)."""
        with self.telemetry.tracer.span("split_chunks"):
            try:
                split = split_chunks(source, state.split)
            except ChunkError:
                return None
        return split or None

    def _context_for(self, filename: str, state: _FileState, base,
                     split: Split) -> Tuple[_CtxEntry, str]:
        """The revision's context entry and how it was had: ``held``,
        the held entry on a re-save; ``reused``, the held context under
        the new chunks (``k:k+m`` of ``split``; every other chunk is
        the held one) when the interface is unchanged; or
        ``elaborated``, a new one.  The file's split and context are
        set together, once the step has succeeded.

        Functions are checked against declared signatures only (paper
        §3), so a revision with the held interface elaborates to the
        held context.  It is reused when it has no diagnostics of its
        own (they may point into function bodies, which move), and
        every new chunk is a top-level function definition whose header
        equals that of the held chunk it replaces, one for one.
        Declaration chunks hold the context's positioned tables (type
        spans, interfaces, modules), so none may be in the range, while
        a function chunk adds only its position-free signature.  The
        context's definitions of the new functions are then re-pointed
        at their nodes, those functions become pending, and the texts
        the range may have made stale are dropped
        (``_forget_stale_texts``)."""
        self._parse_chunks(split, filename)
        old, held = state.split, state.ctx
        k, j, m = split.spliced
        if held is not None and k == j and not m:
            return held, self._count_context("held")
        fresh = [chunk.parsed for chunk in split.chunks[k:k + m]]
        if held is not None and not held.diags \
                and all(entry.fundef is not None for entry in fresh) \
                and [chunk.parsed.part for chunk in old.chunks[k:j]] == \
                [entry.part for entry in fresh]:
            fun_defs = held.ctx.fun_defs
            for entry in fresh:
                fun_defs[entry.fundef.decl.name] = entry.fundef
                held.pending.add(entry.fundef.decl.name)
            _forget_stale_texts(held, old, split)
            how = self._count_context("reused")
        else:
            how = self._count_context("elaborated")
            ctx, diags = self._elaborate(
                [chunk.parsed.program for chunk in split.chunks], base)
            held = _CtxEntry(ctx, diags)
        if old is not None:
            # A report kept past this check quotes its lines from
            # ``old``: it must not keep the replaced chunks' ASTs alive.
            for chunk in old.chunks[k:j]:
                chunk.parsed = None
        state.split, state.ctx = split, held
        return held, how

    def _elaborate(self, programs: List[ast.Program], base
                   ) -> Tuple[object, Tuple[Diagnostic, ...]]:
        sub = Reporter()
        with self.telemetry.tracer.span("elaborate"):
            ctx = build_context(programs, sub, base=base)
        return ctx, tuple(sub.diagnostics)

    def _count_context(self, how: str) -> str:
        """Record what the context step did, and return it: ``held`` and
        ``reused`` skip ``build_context`` (context hits), ``elaborated``
        runs it."""
        self.last.context = how
        self.telemetry.metrics.counter(
            "cache.context.misses" if how == "elaborated"
            else "cache.context.hits").inc()
        return how

    def _parse_chunks(self, split: Split, filename: str) -> None:
        """Parse the chunks ``split`` scanned (``k:k+m`` of its
        ``spliced``) onto them (``Chunk.parsed``); ``_WholeUnit`` when
        one does not parse.  Every other chunk is a held one, parsed
        already: a hit of ``cache.chunk_ast``."""
        metrics = self.telemetry.metrics
        k, j, m = split.spliced
        parsed = 0
        try:
            for i in range(k, k + m):
                split.chunks[i].parsed = self._parse_chunk(split, i, filename)
                parsed += 1
        except VaultError:
            # A chunk the scanner mis-split (or a genuine syntax
            # error): parse the whole unit so errors are reported
            # exactly as the non-incremental path reports them.
            raise _WholeUnit() from None
        finally:
            # the chunks before the range, and any after it once the
            # range parsed, are hits
            self.last.chunks_parsed += parsed
            metrics.counter("cache.chunk_ast.hits").inc(
                len(split.chunks) - m if parsed == m else k)
            metrics.counter("cache.chunk_ast.misses").inc(parsed)

    def _parse_chunk(self, split: Split, i: int, filename: str
                     ) -> _ChunkEntry:
        """Chunk ``i``'s parse: its program and its interface part.  A
        function definition is parsed only up to its body (see
        ``_header_only``); any other chunk is lexed once and parsed
        whole."""
        tracer = self.telemetry.tracer
        chunk, text = split.chunks[i], split.text(i)
        if chunk.brace >= 0:
            with tracer.span("lex", filename=filename):
                tokens = tokenize(text[:chunk.brace], filename,
                                  chunk.start_line, chunk.start_col)
            fundef = self._header_only(chunk, text, tokens, filename)
            if fundef is not None:
                return _ChunkEntry(ast.Program(fundef.span, [fundef],
                                               filename),
                                   self._interface_part(tokens))
        with tracer.span("lex", filename=filename):
            tokens = tokenize(text, filename, chunk.start_line,
                              chunk.start_col)
        part = self._interface_part(tokens)
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
        at = chunk.start_line, chunk.start_col
        line, col = _line_col(text, *at, chunk.end - 1)
        span = Span(decl.span.start, Pos(line, col + 1), filename)
        fundef = ast.FunDef(span, decl, None)
        fundef._pl_body = (text[chunk.brace:chunk.end],
                           *_line_col(text, *at, chunk.brace))
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
            self.last.bodies_parsed += 1

    #: first-token kinds of chunks whose whole text is their interface
    #: (type/variant/struct/stateset/key declarations, interfaces and
    #: modules — anything that can contribute more than one signature
    #: to the context).
    _DECL_CHUNK_KINDS = frozenset({
        T.KW_INTERFACE, T.KW_MODULE, T.KW_EXTERN, T.KW_TYPE, T.KW_VARIANT,
        T.KW_STRUCT, T.KW_STATESET, T.KW_KEY,
    })

    def _interface_part(self, tokens: List[Token]) -> Optional[str]:
        """What of one chunk, from its own tokens, a reused context
        depends on (see ``_context_for``).

        For a function-definition chunk that is its header's token
        texts (up to the body's opening brace — return type, name,
        parameters, effect clause; a header-only parse lexes nothing
        else): a body edit leaves it as it was, so it reuses the
        context.  A chunk led by a declaration keyword has ``None``: it
        can define types, keys or whole modules, so once it is parsed
        the context is elaborated anyway.
        """
        if tokens[0].kind in self._DECL_CHUNK_KINDS:
            return None
        header: List[str] = []
        for tok in tokens:
            if tok.kind is T.LBRACE:
                break
            header.append(tok.text)
        return "\x1f".join(header)

    # -- function checking -------------------------------------------------

    def _check_functions(self, entry: _CtxEntry, state: _FileState,
                         filename: str, how: str, split: Split) -> bool:
        """Answer the entry's pending functions, in serial (sorted-qual)
        order, into its ``results`` (``_CtxEntry.answer``, which drops
        the text of each new result); return whether none was pending.

        A node is carried into a check only by a chunk the splice
        carried, or by a held context, so when the context was held or
        reused (``how``) the held result of a function that is not
        pending is served as is: no fingerprint, summary lookup or
        relocation.  Its text and place are what they were, and every
        signature it sees is the one it was checked against (no
        header in the range changed); a span outside its lines can only be in a
        declaration chunk, which a held or reused context has in place.
        Under an elaborated context every function is pending.  A
        pending function is fingerprinted, from its lines in its chunk
        (``split``, this revision's), and answered by the file's
        summary map or a flow check.

        The file's summary map is updated in place by the functions
        answered: a function's summary replaces the one of the
        fingerprint it had before (fingerprints hash the qualified
        name, so no two functions share one).  Under an elaborated
        context the map starts empty and is looked up in the held one.
        Either way it ends with the summary of every function that has
        one: a diagnostic with a span outside its function's lines
        makes none."""
        metrics = self.telemetry.metrics
        record = self.last
        ctx, quals, index, fps = entry.ctx, entry.quals, entry.index, entry.fps
        functions = record.functions = dict.fromkeys(quals, "held")
        pending = sorted(entry.pending)
        served = len(quals) - len(pending)
        metrics.counter("cache.held_result.hits").inc(served)
        metrics.counter("cache.held_result.misses").inc(len(pending))
        servable = how != "elaborated"
        if servable and not pending:
            metrics.counter("cache.unit_replay.hits").inc(served)
            record.plan = "replayed whole unit"
            return True
        held = state.summaries
        if not servable:
            state.summaries = {}
        summaries = state.summaries
        # qual, def, fingerprint
        to_check: List[Tuple[str, ast.FunDef, str]] = []
        with self.telemetry.tracer.span("fingerprint",
                                        functions=len(quals)):
            for qual in pending:
                fundef = ctx.fun_defs[qual]
                at = index[qual]
                span = fundef.span
                fp = function_fingerprint(
                    ctx, qual, split.lines(span.start.line, span.end.line))
                if fps[at] != fp:
                    summaries.pop(fps[at], None)
                    fps[at] = fp
                summary = held.get(fp)
                if summary is not None:
                    # a summary is made only of a result ``_inside``
                    # accepts, so its text is held
                    entry.answer(at, _relocate(summary, span.start.line,
                                               span.filename), True)
                    summaries[fp] = summary
                    functions[qual] = "summary"
                else:
                    to_check.append((qual, fundef, fp))
                    functions[qual] = "checked"
        if pending:
            metrics.counter("check.fingerprints").inc(len(pending))
        replayed = len(pending) - len(to_check)
        if replayed:
            metrics.counter("cache.summary.hits").inc(replayed)
        if to_check:
            metrics.counter("cache.summary.misses").inc(len(to_check))
        record.plan = \
            f"checked {len(to_check)} of {len(quals)} function(s)"
        self._parse_bodies([fundef for _, fundef, _ in to_check], filename)
        checked = self._run_checks(ctx, to_check)
        for (qual, fundef, fp), diags in zip(to_check, checked):
            inside = _inside(diags, fundef.span)
            entry.answer(index[qual], diags, inside)
            if inside:
                summaries[fp] = _relocate(diags, -fundef.span.start.line, "")
        entry.pending.clear()
        return False

    def _run_checks(self, ctx, to_check) -> List[Tuple[Diagnostic, ...]]:
        """Flow-check each function of ``to_check`` (tuples led by its
        qualified name and definition), in the order given."""
        tracer = self.telemetry.tracer
        metrics = self.telemetry.metrics
        out: List[Tuple[Diagnostic, ...]] = []
        for qual, fundef, *_ in to_check:
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
        self.last.record_replayed = record["functions"]
        metrics.counter("cache.shared.unit.hits").inc()
        return True

    def _save_record(self, filename: str, state: _FileState, sha: str,
                     reporter: Reporter) -> None:
        """Write ``filename``'s record for the source ``sha`` just
        checked, with the number of functions the check answered.  A
        failed write is a ``shared_cache_error`` event (the store
        reports the first few) and a cold next process, never a wrong
        answer."""
        state.sha = sha
        key = self._record_key(filename)
        record = {"sha": sha, "diags": tuple(reporter.diagnostics),
                  "functions": len(self.last.functions),
                  "summaries": state.summaries}
        with self.telemetry.tracer.span("save_record", filename=filename):
            self.store.save(key, record)
