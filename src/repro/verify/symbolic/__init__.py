"""Translation validation: symbolic equivalence proving per compilation.

See :mod:`repro.verify.symbolic.prover` for the prover itself,
:mod:`repro.verify.symbolic.engine` for the value domain and symbolic
stores the IR interpreter's decoded instructions run over, and
:mod:`repro.verify.symbolic.terms` for the bit-vector term language.
"""

from repro.verify.symbolic.engine import (
    BudgetExhausted,
    Chooser,
    CompositionViolation,
    SymExecError,
)
from repro.verify.symbolic.prover import (
    SMOKE_BUDGET,
    Counterexample,
    SymbolicBudget,
    SymbolicReport,
    deserialize_prestate,
    packet_from_spec,
    replay_counterexample,
    serialize_prestate,
    verify_symbolic,
)

__all__ = [
    "BudgetExhausted",
    "Chooser",
    "CompositionViolation",
    "Counterexample",
    "SMOKE_BUDGET",
    "SymExecError",
    "SymbolicBudget",
    "SymbolicReport",
    "deserialize_prestate",
    "packet_from_spec",
    "replay_counterexample",
    "serialize_prestate",
    "verify_symbolic",
]
