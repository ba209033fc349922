"""The prover proves the staged program the switch runs, so each stage
mutant of ``test_stage_program.py`` that makes a packet run diverge is
also disproved: a counterexample concrete replay confirms, on one of
:func:`~tests.codegen.test_stage_program.run_sources` (the slice of
``make stage-mutants``; on the IR walk the prover ran before, every
mutant left both programs proved)."""

import pytest

from tests.codegen.stage_mutants import check, disproved
from tests.codegen.test_stage_program import RUN_MUTANTS


@pytest.mark.parametrize("mutant", sorted(RUN_MUTANTS))
def test_each_mutant_is_disproved(mutant):
    assert disproved(check(mutant, wide=False)), mutant
