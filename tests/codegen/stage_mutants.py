"""The five stage mutants against the prover, next to a packet run.

``tests/codegen/test_stage_program.py`` seeds m1–m5 into the stage order
and the allocation (:data:`RUN_MUTANTS`); each makes a packet run of the
interpreted switch diverge.  The prover runs the same staged program over
terms, so each must also be *disproved*: a counterexample that concrete
replay confirms.  Per mutant this prints the programs the prover
disproves, with their code, next to the programs a 10-packet oracle run
(the stream :func:`packet_runs` drives) diverges or crashes on::

    PYTHONPATH=src python -m tests.codegen.stage_mutants [--wide]

Without ``--wide`` it runs :func:`run_sources` (tier-1 runs that slice,
``tests/codegen/test_stage_mutants.py``); ``--wide`` adds the six bundled
middleboxes and the generated programs of the compile-pin sweep
(``tests/partition/compile_pins.py``, ``tofino_like`` limits).  A program
the mutant makes uncompilable is listed as refused.  Exit 1 when some
mutant is disproved nowhere.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterator, List, Optional, Tuple
from unittest import mock

from repro.difftest.oracle import Outcome, StreamSpec, check_artifacts
from repro.middleboxes import MIDDLEBOX_NAMES, load
from repro.partition import constraints
from repro.partition.partitioner import PartitionError
from repro.runtime.deployment import compile_middlebox
from repro.switchsim.program import SwitchProgramError
from repro.verify.symbolic import verify_symbolic
from tests.codegen.test_stage_program import RUN_MUTANTS, run_sources
from tests.partition.compile_pins import sources

#: what the oracle runs per program: the stream of :func:`packet_runs`
STREAM = StreamSpec(seed=1, count=10)

#: one program under one mutant: ``(label, disproof code or None, oracle
#: outcome)``; both ``None`` when the mutant makes it uncompilable
Row = Tuple[str, Optional[str], Optional[Outcome]]


def programs(wide: bool) -> Iterator[Tuple[str, str, Optional[dict]]]:
    """``(label, source, extern config)`` of every program checked."""
    chosen = dict(sources()) if wide else {}
    chosen.update(run_sources())
    for label, source in chosen.items():
        config = load(label).config if label in MIDDLEBOX_NAMES else None
        yield label, source, config


def check(mutant: str, wide: bool) -> List[Row]:
    """Each program compiled under ``mutant``, proved and run."""
    rows: List[Row] = []
    with mock.patch.object(constraints, *RUN_MUTANTS[mutant]):
        for label, source, config in programs(wide):
            try:
                plan, program = compile_middlebox(source)
            except (PartitionError, SwitchProgramError):
                rows.append((label, None, None))
                continue
            report = verify_symbolic(plan, program, config=config)
            codes = [c.code for c in report.counterexamples if c.confirmed]
            outcome = check_artifacts(
                plan, program, STREAM, provenance=False, config=config
            ).outcome
            rows.append((label, codes[0] if codes else None, outcome))
    return rows


def disproved(rows: List[Row]) -> List[str]:
    return [f"{label} ({code})" for label, code, _ in rows if code]


def diverged(rows: List[Row]) -> List[str]:
    return [
        f"{label} ({outcome.value})" for label, _, outcome in rows
        if outcome in (Outcome.DIVERGE, Outcome.CRASH)
    ]


def main(argv: List[str]) -> int:
    wide = "--wide" in argv
    results: Dict[str, List[Row]] = {
        mutant: check(mutant, wide) for mutant in sorted(RUN_MUTANTS)
    }
    for mutant, rows in results.items():
        refused = [label for label, _, outcome in rows if outcome is None]
        print(f"{mutant}: {len(rows)} programs, {len(refused)} refused")
        print(f"  disproved: {', '.join(disproved(rows)) or '-'}")
        print(f"  diverged:  {', '.join(diverged(rows)) or '-'}")
    missed = [mutant for mutant, rows in results.items()
              if not disproved(rows)]
    if missed:
        print(f"disproved nowhere: {', '.join(missed)}")
        return 1
    print(f"each of {len(results)} mutants disproved")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
