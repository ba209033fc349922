"""Stage 3 — P4 resource lint (codes P4L001-P4L010).

Holds the finished switch program (pipeline CFGs + table/register specs,
the structure the ``.p4`` text is printed from) to the constraint-1..5
limits: no loops, only P4-expressible instructions, every state access
backed and applied at most once, switch memory, dependency depth, scratchpad
metadata, register width, table count.  The numbers come from
:func:`repro.partition.constraints.measure_pipeline` and
:meth:`SwitchProgram.stages` — what the partitioner's budget search
reads — applied here to the artifact's own ``pre`` / ``post``, after the
partitioner has returned.  This is the only
acceptability check a switch program gets: ``SwitchProgram.validate()``
raises its first error.
"""

from __future__ import annotations

from typing import List

from repro.analysis.distance import _stage_cost
from repro.partition.constraints import co_reachable, measure_pipeline
from repro.switchsim.program import SwitchProgram

from repro.verify.diagnostics import Diagnostic, STAGE_P4LINT, error, warning

#: Widest register a single-stage ALU operation can update atomically.
REGISTER_WIDTH_LIMIT = 64

#: Stage-costing instructions per block beyond which a compiled action is
#: unlikely to fit a single stage's VLIW budget (lint warning only), counted
#: by constraint 2's own ``_stage_cost``.
ACTION_COMPLEXITY_LIMIT = 32


def lint_switch_program(program: SwitchProgram) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for label in ("pre", "post"):
        out.extend(_lint_pipeline(program, label))
    out.extend(_lint_memory(program))
    out.extend(_lint_registers(program))
    return out


def _lint_pipeline(program: SwitchProgram, label: str) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    function = getattr(program, label)
    usage = measure_pipeline(function)
    metadata_bytes = program.stages(label)[1].total_bytes
    cyclic = usage.reachability.cyclic_blocks
    if cyclic:
        out.append(
            error(
                "P4L004",
                STAGE_P4LINT,
                f"control-flow loop through blocks {sorted(cyclic)}",
                function=function.name,
            )
        )
    for inst in usage.unsupported:
        out.append(
            error(
                "P4L001",
                STAGE_P4LINT,
                f"instruction not expressible in P4: {inst!r}",
                function=function.name,
                location=inst.location,
            )
        )
    for state, sites in sorted(usage.sites.items()):
        if state not in program.tables and state not in program.registers:
            for inst in sites:
                out.append(
                    error(
                        "P4L002",
                        STAGE_P4LINT,
                        f"access to state {state!r} that has no switch"
                        " table or register backing it",
                        function=function.name,
                        location=inst.location,
                    )
                )
        # Registers tolerate accesses on mutually exclusive paths; a
        # match-action table may be applied only once per pipeline.
        if len(sites) > 1 and (
            state not in program.registers
            or co_reachable(usage.reachability, sites)
        ):
            out.append(
                error(
                    "P4L003",
                    STAGE_P4LINT,
                    f"state {state!r} accessed {len(sites)} times in the"
                    f" {label} pipeline (a table applies at most once)",
                    function=function.name,
                    location=sites[1].location,
                )
            )
    tables_applied = [state for state in usage.sites if state in program.tables]
    if len(tables_applied) > program.limits.pipeline_depth:
        out.append(
            error(
                "P4L009",
                STAGE_P4LINT,
                f"{len(tables_applied)} tables applied in the {label}"
                f" pipeline (> {program.limits.pipeline_depth} stages)",
                function=function.name,
            )
        )
    if metadata_bytes > program.limits.metadata_bytes:
        out.append(
            error(
                "P4L007",
                STAGE_P4LINT,
                f"allocated metadata {metadata_bytes}B exceeds the"
                f" {program.limits.metadata_bytes}B scratchpad",
                function=function.name,
            )
        )
    # Depth is undefined over cyclic pipelines (P4L004 already rejects those).
    if not cyclic and usage.depth > program.limits.pipeline_depth:
        out.append(
            error(
                "P4L006",
                STAGE_P4LINT,
                f"dependency chain of {usage.depth} stages exceeds the"
                f" {program.limits.pipeline_depth}-stage pipeline",
                function=function.name,
            )
        )
    for block_name, block in function.blocks.items():
        body = sum(_stage_cost(inst) for inst in block.body)
        if body > ACTION_COMPLEXITY_LIMIT:
            out.append(
                warning(
                    "P4L010",
                    STAGE_P4LINT,
                    f"{body} stage-costing instructions in one block"
                    f" (> {ACTION_COMPLEXITY_LIMIT}); the compiled action"
                    " may not fit a single stage",
                    function=function.name,
                    block=block_name,
                )
            )
    return out


def _lint_memory(program: SwitchProgram) -> List[Diagnostic]:
    total = program.memory_bytes()
    if total > program.limits.memory_bytes:
        return [
            error(
                "P4L005",
                STAGE_P4LINT,
                f"tables and registers need {total}B of switch memory"
                f" (> {program.limits.memory_bytes}B, constraint 1)",
            )
        ]
    return []


def _lint_registers(program: SwitchProgram) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for name, spec in sorted(program.registers.items()):
        if spec.width_bits > REGISTER_WIDTH_LIMIT:
            out.append(
                error(
                    "P4L008",
                    STAGE_P4LINT,
                    f"register {name!r} is {spec.width_bits} bits wide"
                    f" (> {REGISTER_WIDTH_LIMIT}-bit ALU datapath)",
                )
            )
    return out
