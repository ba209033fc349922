"""Differential-testing gauntlet for the Gallium compiler.

Gauntlet-style (Ruffy et al., NSDI'20) random testing of the compiler's
functional-equivalence claim (paper section 3.1):

* :mod:`repro.difftest.generator` — seeded random middlebox programs over
  the full ``repro.lang`` subset,
* :mod:`repro.difftest.kernel` — what every oracle in the repo shares:
  observation, finding, end state, the typed failure boundary,
  provenance, the seeded campaign loop,
* :mod:`repro.difftest.oracle` — three-way run (FastClick baseline vs.
  ``GalliumMiddlebox`` vs. its bounded-cache flavour) over a seeded
  packet stream, comparing verdicts, header fields, egress ports, and
  final state,
* :mod:`repro.difftest.shrink` — delta-debugging minimizer for diverging
  (program, stream) pairs,
* :mod:`repro.difftest.corpus` — JSON serialization of minimized
  reproducers plus replay, backing ``tests/difftest_corpus/``,
* :mod:`repro.difftest.runner` — the gauntlet driver behind
  ``python -m repro difftest``,
* :mod:`repro.difftest.compiled` — the compiled-vs-interpreter gauntlet
  behind ``python -m repro difftest --compiled`` (the fast path's
  equivalence gate).
"""

from repro.difftest.compiled import (
    CompiledCheckResult,
    CompiledGauntletStats,
    check_compiled,
    run_compiled_gauntlet,
)
from repro.difftest.corpus import CorpusEntry, load_corpus, replay_entry, save_entry
from repro.difftest.generator import GenProgram, ProgramGenerator, generate_program
from repro.difftest.kernel import Finding, HarnessBug
from repro.difftest.oracle import Outcome, OracleResult, StreamSpec, run_oracle
from repro.difftest.runner import GauntletStats, run_gauntlet
from repro.difftest.shrink import shrink_case

__all__ = [
    "CompiledCheckResult",
    "CompiledGauntletStats",
    "CorpusEntry",
    "Finding",
    "GauntletStats",
    "check_compiled",
    "run_compiled_gauntlet",
    "GenProgram",
    "HarnessBug",
    "Outcome",
    "OracleResult",
    "ProgramGenerator",
    "StreamSpec",
    "generate_program",
    "load_corpus",
    "replay_entry",
    "run_gauntlet",
    "run_oracle",
    "save_entry",
    "shrink_case",
]
