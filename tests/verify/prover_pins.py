"""Golden pins for the symbolic prover: what it explores, in what order.

Each pin is one ``verify_symbolic`` run — ``scenarios``, ``worlds``,
``decisions``, ``source_crash_worlds``, ``proved``, the diagnostic codes,
and a sha256 over every world's ``(status, decision trace, path-condition
terms, detail, mismatch)`` in exploration order — recorded on the commit
*before* the prover stopped keeping its own copy of the interpreter's
instruction ladder, so "the shared evaluator explores the same worlds in
the same order" is a comparison of two JSON files.  Three groups:

* ``bundled`` — the six bundled middleboxes with their configs,
* ``generated`` — generated programs (``derive_seeds(0, i)``) at
  ``SMOKE_BUDGET``; a program the compiler refuses pins its refusal,
* ``mutations`` — every SYM001-SYM006 fixture of
  ``tests/verify/test_mutations.py``, run as that file runs it, pinned to
  its world digest and its counterexample (code, witness packet spec,
  pre-state, replay detail): a prover that explores nothing passes the
  first two groups' ``proved`` and fails this one.

Nothing in ``src/`` is instrumented: the recorder wraps the module
attribute ``prover._run_world`` that ``verify_symbolic`` calls.

The *narrow* sweep runs inside tier-1 (``test_prover_pins.py``): the six
bundled middleboxes at the default budget — the proofs the benchmark's
``compile`` workload times; ``firewall@default`` joined when it stopped
costing 3 s, with the value the wide group had recorded for it —
``firewall`` once more and 40 generated programs at ``SMOKE_BUDGET``, the
mutations.  The *wide* one is ``make prover-pins``: the six at the default
budget and 200 generated programs::

    PYTHONPATH=src python -m tests.verify.prover_pins [--wide] [--write]

Regenerate with ``--write`` only when the exploration is meant to change,
and say which pin moved and why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import inspect
import sys
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional
from unittest import mock

import pytest

from repro.difftest.corpus import load_corpus
from repro.difftest.generator import generate_program
from repro.difftest.runner import derive_seeds
from repro.middleboxes import MIDDLEBOX_NAMES, load
from repro.partition.partitioner import PartitionError
from repro.runtime.deployment import compile_middlebox
from repro.switchsim.program import SwitchProgramError
from repro.verify.symbolic import (
    SMOKE_BUDGET,
    BudgetExhausted,
    SymbolicBudget,
    verify_symbolic,
)
from repro.verify.symbolic import prover
from tests.difftest.oracle_pins import run
from tests.partition.compile_pins import moved
from tests.verify import test_mutations

GOLDEN = Path(__file__).parent / "golden" / "prover_pins.json"

PIN_SEED = 0
GENERATED = {False: 40, True: 200}

#: code -> the fixture of ``test_mutations.py`` that must yield it
MUTATIONS = {
    "SYM001": test_mutations.test_symbolic_verdict_flip_disproved_sym001,
    "SYM002": test_mutations.test_symbolic_wrong_egress_disproved_sym002,
    "SYM003": test_mutations.test_symbolic_field_corruption_disproved_sym003,
    "SYM004": test_mutations.test_symbolic_state_write_disproved_sym004,
    "SYM005": test_mutations.test_symbolic_replication_skew_disproved_sym005,
    "SYM006": test_mutations.test_symbolic_composition_crash_disproved_sym006,
}


def _world_row(world) -> tuple:
    mismatch = world.mismatch
    return (
        world.status,
        tuple(world.chooser.trace),
        tuple((repr(term), choice)
              for term, choice in world.chooser.conditions),
        world.detail,
        mismatch and (
            mismatch.kind, mismatch.detail,
            mismatch.obligation and tuple(map(repr, mismatch.obligation)),
        ),
    )


class Recording:
    """Hashes every world ``verify_symbolic`` explores while active."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.report = None

    def __enter__(self) -> "Recording":
        original = prover._run_world

        def watched(*args, **kwargs):
            try:
                world = original(*args, **kwargs)
            except BudgetExhausted as exc:
                self.digest.update(repr(("budget", str(exc))).encode())
                raise
            self.digest.update(repr(_world_row(world)).encode())
            return world

        self._patch = mock.patch.object(prover, "_run_world", watched)
        self._patch.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._patch.stop()

    def pin(self) -> dict:
        report = self.report
        return {
            "codes": [diag.code for diag in report.diagnostics],
            "decisions": report.decisions,
            "proved": report.proved,
            "scenarios": report.scenarios,
            "source_crash_worlds": report.source_crash_worlds,
            "worlds": report.worlds,
            "worlds_sha256": self.digest.hexdigest(),
        }


def proof_pin(plan, program, config,
              budget: Optional[SymbolicBudget]) -> dict:
    with Recording() as recording:
        recording.report = verify_symbolic(
            plan, program, config=config, budget=budget
        )
    return recording.pin()


@lru_cache(maxsize=None)
def compiled_generated(index: int):
    """``(plan, switch program)`` of generated program ``index``, or the
    name of the compiler's refusal.  Cached for the session: the lockstep
    test (``test_mirror_lockstep.py``) runs the same programs."""
    program_seed, _ = derive_seeds(PIN_SEED, index)
    try:
        return compile_middlebox(generate_program(program_seed).source())
    except (PartitionError, SwitchProgramError) as refusal:
        return type(refusal).__name__


def bundled_pins(wide: bool) -> Dict[str, dict]:
    pins = {}
    for name in MIDDLEBOX_NAMES:
        middlebox = load(name)
        compiled = compile_middlebox(middlebox.source)
        if name == "firewall" and not wide:
            pins[f"{name}@smoke"] = proof_pin(
                *compiled, middlebox.config, SMOKE_BUDGET
            )
        pins[f"{name}@default"] = proof_pin(*compiled, middlebox.config, None)
    return pins


def generated_pins(wide: bool) -> Dict[str, dict]:
    pins = {}
    for index in range(GENERATED[wide]):
        compiled = compiled_generated(index)
        pins[f"gen{index:03d}"] = (
            {"refused": compiled} if isinstance(compiled, str)
            else proof_pin(*compiled, None, SMOKE_BUDGET)
        )
    return pins


def mutation_pins(wide: bool) -> Dict[str, dict]:
    """Each fixture runs unedited; its ``verify_symbolic`` is watched."""
    corpus = {entry.name: entry for entry in load_corpus()}
    pins = {}
    for code, fixture in MUTATIONS.items():
        recording = Recording()

        def watched_prove(*args, **kwargs):
            recording.report = verify_symbolic(*args, **kwargs)
            return recording.report

        with tempfile.TemporaryDirectory() as scratch, \
                pytest.MonkeyPatch.context() as monkeypatch, recording:
            monkeypatch.setattr(
                test_mutations, "verify_symbolic", watched_prove
            )
            available = {"corpus": corpus, "tmp_path": Path(scratch),
                         "monkeypatch": monkeypatch}
            fixture(**{name: available[name]
                       for name in inspect.signature(fixture).parameters})
        counterexample = recording.report.counterexamples[0].to_dict()
        # The one field that names the scratch directory.
        saved = counterexample.pop("corpus_path")
        counterexample["saved_as"] = saved and Path(saved).name
        pins[code] = dict(recording.pin(), counterexample=counterexample)
    return pins


#: group name -> ``pins(wide)``
GROUPS = {
    "bundled": bundled_pins,
    "generated": generated_pins,
    "mutations": mutation_pins,
}


def compute(wide: bool = False) -> Dict[str, dict]:
    return {group: pins(wide) for group, pins in GROUPS.items()}


def main(argv: List[str]) -> int:
    return run(argv, GOLDEN, compute, moved, "prover pins")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
