"""The register mutant: replication that drops the server's register writes.

``UPDATE_OPS`` without ``"store"`` is the §4.3.3 replication rule with
register replication deleted.  The server still writes its copy of every
``REPLICATED_REGISTER``, but the switch never hears of it.  On a program
that writes a replicated register on some explored path, both checkers
must see the switch copy drift: the prover reports a ``SYM005`` that
concrete replay confirms (and replay confirms it because the oracle
kernel's ``check_convergence`` files a ``convergence`` finding).

The sweep runs the mutant over every ``derive_seeds(0, i)``, i < 60,
program with a replicated register and proves each at the default
budget.  It fails on a disproof that is not one confirmed ``SYM005``,
and on a program that stays proved without a reason in
:data:`STAYS_PROVED`::

    PYTHONPATH=src python -m tests.verify.replication_mutants [--wide]

Without ``--wide`` it runs gen004 only, as tier-1 does
(``tests/verify/test_mutations.py``).
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple
from unittest import mock

from repro.runtime import server, state_image
from repro.verify.symbolic import verify_symbolic
from tests.verify.prover_pins import compiled_generated

GENERATED = 60
#: the narrow sweep
NARROW = (4,)

#: generated program index -> why the mutant leaves it proved: on no
#: sampled pre-state does an explored path change the register's value
STAYS_PROVED: Dict[int, str] = {
    9: "the only server write is `ctr0 &= 65535 - *h5`, reached only with"
       " m0 holding key 1 (the pre-state ctr0 = 66, m0 = {1: 12429}), where"
       " 66 & 53106 = 66 stores the value the switch already holds",
    20: "the only write, `ctr0 -= ...`, follows `if (x1 == x1)`, whose two"
        " arms both end in a send: it is unreachable",
    34: "the only write, `ctr1 ^= ...`, needs key 127 in m2; the packet"
        " inserts key saddr & 3 and no sampled pre-state holds 127",
}


@contextmanager
def register_mutant():
    """Replication without register writes, for the ``with`` block."""
    with mock.patch.dict(server.UPDATE_OPS):
        del server.UPDATE_OPS["store"]
        yield


def replicated_registers(plan) -> List[str]:
    return [
        placement.member.name for placement in state_image.replicated(plan)
        if placement.member.kind == "scalar"
    ]


def candidates(indices: Iterable[int]) -> List[int]:
    """The generated programs that compile and replicate a register."""
    return [
        index for index in indices
        if not isinstance(compiled_generated(index), str)
        and replicated_registers(compiled_generated(index)[0])
    ]


def check(index: int) -> Tuple[bool, Optional[str]]:
    """Whether the mutant of generated program ``index`` is disproved,
    and what is wrong with its proof: nothing when it is one confirmed
    ``SYM005``, or proved for a recorded reason."""
    plan, program = compiled_generated(index)
    with register_mutant():
        report = verify_symbolic(plan, program)
    name = f"gen{index:03d}"
    if report.proved:
        return False, (
            None if index in STAYS_PROVED
            else f"{name}: the register mutant stays proved"
        )
    codes = [diag.code for diag in report.errors]
    confirmed = [cx.code for cx in report.counterexamples if cx.confirmed]
    if codes != ["SYM005"] or confirmed != ["SYM005"]:
        return True, f"{name}: disproved with {codes}, confirmed {confirmed}"
    return True, None


def main(argv: List[str]) -> int:
    indices = candidates(range(GENERATED) if "--wide" in argv else NARROW)
    outcomes = {index: check(index) for index in indices}
    proved = [index for index, (disproved, _) in outcomes.items()
              if not disproved]
    print(
        f"register mutant: {len(indices) - len(proved)} of {len(indices)}"
        " programs with a replicated register disproved"
        + (f"; proved: {proved}" if proved else "")
    )
    found = [problem for _, problem in outcomes.values() if problem]
    for problem in found:
        print(problem)
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
