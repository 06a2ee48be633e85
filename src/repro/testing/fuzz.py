"""The fuzz loop: generate, differentially check, shrink on divergence.

``run_fuzz(count, seed)`` derives one sub-seed per program from the
master seed, generates each program, pushes it through every checking
path via :class:`~repro.testing.differential.DifferentialHarness`, and
tallies what came back.  Whenever two paths disagree on the bytes, the
offending program is shrunk to a minimal still-diverging reproducer
and recorded; ``vaultc fuzz`` turns those records into exit status 1.

Replay contract: ``derive_seed(seed, i)`` is a pure function, so
``vaultc fuzz --seed S --count N`` always fuzzes the same N programs,
and any single one can be regenerated from its printed program seed
with ``generate_program(program_seed)``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import check_source
from repro.testing.differential import DifferentialHarness
from repro.testing.generate import generate_program
from repro.testing.shrink import shrink

__all__ = ["DivergenceRecord", "FuzzReport", "derive_seed", "run_fuzz"]


def derive_seed(seed: int, index: int) -> int:
    """The per-program seed for position ``index`` of a run.  A fixed
    affine mix keeps neighbouring runs' program sets disjoint while
    staying trivially reproducible by hand."""
    return (seed * 1_000_003 + index * 7_919 + 12_289) & 0x7FFF_FFFF


@dataclass
class DivergenceRecord:
    """One byte-level disagreement between checking paths."""

    program_seed: int
    paths: List[str]              # the paths that differ from serial
    outputs: Dict[str, str]       # path -> canonical stdout
    source: str                   # the full generated program
    shrunk: str                   # minimal still-diverging reproducer


@dataclass
class FuzzReport:
    """Summary of one ``run_fuzz`` invocation."""

    seed: int
    count: int
    paths: List[str] = field(default_factory=list)
    skipped_paths: List[str] = field(default_factory=list)
    programs_ok: int = 0          # checked clean
    programs_rejected: int = 0    # checked with diagnostics
    diagnostics: Dict[str, int] = field(default_factory=dict)
    divergences: List[DivergenceRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "paths": self.paths,
            "skipped_paths": self.skipped_paths,
            "programs_ok": self.programs_ok,
            "programs_rejected": self.programs_rejected,
            "diagnostics": dict(sorted(self.diagnostics.items())),
            "divergences": [
                {"program_seed": d.program_seed, "paths": d.paths,
                 "shrunk": d.shrunk}
                for d in self.divergences
            ],
        }


def _diverges(harness: DifferentialHarness, rel: str) -> Callable[[str], bool]:
    def predicate(candidate: str) -> bool:
        return harness.check(candidate, rel).divergent
    return predicate


def run_fuzz(count: int, seed: int, use_daemon: bool = True,
             on_program: Optional[Callable[[int, int, str], None]] = None,
             ) -> FuzzReport:
    """Fuzz ``count`` programs derived from ``seed``.

    ``on_program(index, program_seed, verdict)`` is invoked after each
    program with verdict ``"ok"``, ``"rejected"`` or ``"DIVERGED"`` —
    the CLI uses it for progress output.
    """
    report = FuzzReport(seed=seed, count=count)
    tally: Counter = Counter()
    with DifferentialHarness(use_daemon=use_daemon) as harness:
        report.paths = harness.paths
        report.skipped_paths = list(harness.skipped)
        for index in range(count):
            program_seed = derive_seed(seed, index)
            program = generate_program(program_seed)
            rel = f"fuzz-{program_seed}.vlt"
            result = harness.check(program.source, rel)

            serial = check_source(program.source, filename=rel)
            if serial.ok:
                report.programs_ok += 1
            else:
                report.programs_rejected += 1
            tally.update(c.value for c in serial.codes())

            verdict = "ok" if serial.ok else "rejected"
            if result.divergent:
                verdict = "DIVERGED"
                shrunk = shrink(program.source,
                                _diverges(harness, rel))
                final = harness.check(shrunk, rel)
                report.divergences.append(DivergenceRecord(
                    program_seed=program_seed,
                    paths=result.divergent_paths,
                    outputs=final.outputs,
                    source=program.source,
                    shrunk=shrunk))
            if on_program is not None:
                on_program(index, program_seed, verdict)
    report.diagnostics = dict(tally)
    return report
