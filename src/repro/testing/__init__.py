"""Adversarial protocol-program generation and differential fuzzing.

This package turns the checker on itself:

* :mod:`repro.testing.generate` — a seeded, grammar-driven generator
  that emits syntactically valid Vault programs: random keyed protocol
  state machines plus client functions that follow them, violate them,
  leak them, or consume them twice, under structural stress (deep
  nesting, wide units, near-miss signatures).
* :mod:`repro.testing.differential` — a harness that checks one
  program through every execution path the repo ships (serial,
  cached session replay, live check daemon) and
  compares the canonical CLI bytes each path produces.
* :mod:`repro.testing.shrink` — greedy delta-debugging of a divergent
  program down to a minimal reproducer.
* :mod:`repro.testing.fuzz` — the loop tying them together, exposed on
  the command line as ``vaultc fuzz``.

Everything is deterministic from a single integer seed: the same seed
and configuration reproduce the same programs, byte for byte.
"""

from repro.testing.generate import (GenConfig, GeneratedProgram,
                                    generate_program, random_config)
from repro.testing.differential import (DifferentialHarness,
                                        DifferentialResult,
                                        canonical_stdout)
from repro.testing.shrink import shrink
from repro.testing.fuzz import (DivergenceRecord, FuzzReport,
                                derive_seed, run_fuzz)

__all__ = [
    "GenConfig", "GeneratedProgram", "generate_program", "random_config",
    "DifferentialHarness", "DifferentialResult", "canonical_stdout",
    "shrink",
    "DivergenceRecord", "FuzzReport", "derive_seed", "run_fuzz",
]
