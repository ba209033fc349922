"""Static verification layer: IR verifier, partition invariants, P4 lint.

Three stages run over every compilation (``compiler.compile_lowered``
gates on them by default; ``--no-verify`` opts out) and standalone via
``python -m repro verify <program>``:

1. :mod:`repro.verify.ir_verifier` — structural well-formedness of the
   lowered function and all three partition projections (IR001-IR010),
2. :mod:`repro.verify.invariants` — the partitioner's correctness
   obligations on the pre/offload/post split (PART001-PART006),
3. :mod:`repro.verify.p4lint` — constraint-1..5 resource bounds on the
   emitted switch program (P4L001-P4L010).

A fourth, opt-in stage — :mod:`repro.verify.symbolic`, translation
validation (SYM001-SYM008) — symbolically proves the composed deployment
equivalent to the source function per compilation; it runs behind
``verify --symbolic`` and ``difftest --symbolic`` rather than on every
compile (it costs seconds, not milliseconds).  Import
:func:`verify_symbolic` lazily from here; the submodule pulls in the
runtime/difftest stack for counterexample replay.

The difftest gauntlet runs the same stages as a per-program cross-check: a
program whose oracle run agrees but whose artifacts fail verification (or
vice versa) is a new bug class and gets its own failure report.
"""

from __future__ import annotations

from typing import FrozenSet

from repro.codegen.headers import ShimLayout
from repro.partition.plan import PartitionPlan
from repro.switchsim.program import SwitchProgram

from repro.verify.diagnostics import (
    DIAGNOSTIC_CODES,
    Diagnostic,
    VerificationError,
    VerificationReport,
)
from repro.verify.invariants import verify_partition
from repro.verify.ir_verifier import verify_ir
from repro.verify.p4lint import lint_switch_program

__all__ = [
    "DIAGNOSTIC_CODES",
    "Diagnostic",
    "VerificationError",
    "VerificationReport",
    "lint_switch_program",
    "verify_artifacts",
    "verify_compilation",
    "verify_ir",
    "verify_partition",
    "verify_symbolic",
]


def __getattr__(name: str):
    # Lazy: repro.verify.symbolic imports the runtime/difftest stack for
    # counterexample replay; keep plain `import repro.verify` light.
    if name == "verify_symbolic":
        from repro.verify.symbolic import verify_symbolic

        return verify_symbolic
    raise AttributeError(name)


def verify_artifacts(
    plan: PartitionPlan,
    shim_to_server: ShimLayout,
    shim_to_switch: ShimLayout,
    switch_program: SwitchProgram,
    cache_mode: bool = False,
) -> VerificationReport:
    """Run all three stages over one program's compiled artifacts."""
    report = VerificationReport(program=plan.middlebox.name)

    # Stage 1: the full lowered function, then each projection.  The
    # projections read boundary values from the shim headers, so those
    # field names count as defined-on-entry for the def-before-use check.
    report.extend(verify_ir(plan.middlebox.process))
    report.extend(verify_ir(plan.pre))
    server_inputs: FrozenSet[str] = frozenset(shim_to_server.field_names())
    report.extend(verify_ir(plan.non_offloaded, boundary_inputs=server_inputs))
    switch_inputs: FrozenSet[str] = frozenset(shim_to_switch.field_names())
    report.extend(verify_ir(plan.post, boundary_inputs=switch_inputs))

    # Stage 2: partition invariants.
    report.extend(
        verify_partition(
            plan, shim_to_server, shim_to_switch, cache_mode=cache_mode
        )
    )

    # Stage 3: switch resource lint.
    report.extend(lint_switch_program(switch_program))
    return report


def verify_compilation(result, cache_mode: bool = False) -> VerificationReport:
    """Convenience wrapper over a ``compiler.CompilationResult``."""
    return verify_artifacts(
        result.plan,
        result.shim_to_server,
        result.shim_to_switch,
        result.switch_program,
        cache_mode=cache_mode,
    )
