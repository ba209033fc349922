"""Top-level Gallium compiler driver.

One call — :func:`compile_source` — runs the whole paper pipeline
(Figure 2): parse → lower to IR → dependency extraction → partitioning →
shim synthesis → switch-program construction → P4 and C++ emission, and
returns a :class:`CompilationResult` with every artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.codegen.cpp import emit_cpp_program
from repro.codegen.headers import ShimLayout
from repro.codegen.p4 import emit_p4_program
from repro.ir.lowering import LoweredMiddlebox, lower_program
from repro.lang.parser import parse_program
from repro.partition.constraints import SwitchResources
from repro.partition.plan import PartitionPlan
from repro.runtime.deployment import compile_middlebox
from repro.switchsim.program import SwitchProgram


@dataclass
class CompilationResult:
    """Everything the compiler produces for one middlebox."""

    lowered: LoweredMiddlebox
    plan: PartitionPlan
    switch_program: SwitchProgram
    shim_to_server: ShimLayout
    shim_to_switch: ShimLayout
    p4_source: str
    cpp_source: str

    @property
    def name(self) -> str:
        return self.lowered.name

    # -- Table 1 metrics ------------------------------------------------------

    def input_loc(self) -> int:
        return self.lowered.program.source_line_count()

    def p4_loc(self) -> int:
        return _loc(self.p4_source)

    def cpp_loc(self) -> int:
        return _loc(self.cpp_source)


def _loc(source: str) -> int:
    count = 0
    for line in source.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith(("//", "/*", "*")):
            count += 1
    return count


def compile_source(
    source: str,
    limits: Optional[SwitchResources] = None,
    filename: str = "<middlebox>",
    verify: bool = True,
) -> CompilationResult:
    """Run the full Gallium pipeline on middlebox source text."""
    lowered = lower_program(parse_program(source, filename))
    return compile_lowered(lowered, limits, verify=verify)


def compile_lowered(
    lowered: LoweredMiddlebox,
    limits: Optional[SwitchResources] = None,
    verify: bool = True,
) -> CompilationResult:
    """Run the pipeline from an already-lowered middlebox.

    With ``verify`` (the default) the static verification layer runs over
    the compiled artifacts and any error-severity diagnostic aborts the
    compilation with a :class:`repro.verify.VerificationError`.
    """
    plan, switch_program = compile_middlebox(lowered, limits)
    shim_to_server = switch_program.shim_to_server
    shim_to_switch = switch_program.shim_to_switch
    p4_source = emit_p4_program(switch_program)
    cpp_source = emit_cpp_program(plan, shim_to_server, shim_to_switch)
    result = CompilationResult(
        lowered=lowered,
        plan=plan,
        switch_program=switch_program,
        shim_to_server=shim_to_server,
        shim_to_switch=shim_to_switch,
        p4_source=p4_source,
        cpp_source=cpp_source,
    )
    if verify:
        from repro.verify import VerificationError, verify_compilation

        report = verify_compilation(result)
        if not report.ok:
            raise VerificationError(report)
    return result
