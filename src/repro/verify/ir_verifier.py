"""Stage 1 — structural well-formedness of IR functions (codes IR001-IR010).

:func:`verify_structure` is the repo's one structural IR check (block
shape, branch targets, single assignment, definition before use, CFG
reachability); :func:`repro.ir.validate.validate_function` raises its
first error.  :func:`verify_ir` adds conservative operand typing and
extern signature conformance against :data:`repro.ir.externs.EXTERN_SPECS`.

Projected partition functions read some registers from the shim header
rather than defining them locally; callers pass those names as
``boundary_inputs`` so the def-before-use dataflow treats them as defined
on entry instead of reporting false IR007s.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.ir import instructions as irin
from repro.ir.externs import EXTERN_SPECS
from repro.ir.function import Function
from repro.ir.validate import undefined_uses
from repro.ir.values import Reg
from repro.lang.types import VOID, bit_width_of

from repro.verify.diagnostics import Diagnostic, STAGE_IR, error, warning


def verify_structure(
    function: Function,
    boundary_inputs: FrozenSet[str] = frozenset(),
) -> Tuple[Diagnostic, ...]:
    """IR001-IR008: is this a CFG whose every read has a definition?
    Answered once per shape of ``function`` and set of inputs."""
    found: Tuple[Diagnostic, ...] = function.once(
        _verify_structure, boundary_inputs
    )
    return found


def _verify_structure(
    function: Function, boundary_inputs: FrozenSet[str]
) -> Tuple[Diagnostic, ...]:
    if function.entry not in function.blocks:
        return (
            error(
                "IR001",
                STAGE_IR,
                f"entry block {function.entry!r} missing",
                function=function.name,
            ),
        )
    return (
        *_check_blocks(function),
        *_check_ssa(function),
        *_check_reachability(function),
        *_check_defs_before_use(function, boundary_inputs),
    )


def verify_ir(
    function: Function,
    boundary_inputs: FrozenSet[str] = frozenset(),
) -> List[Diagnostic]:
    """Run every stage-1 check; return all diagnostics found."""
    out = list(verify_structure(function, boundary_inputs))
    if function.entry in function.blocks:
        out.extend(_check_types(function))
        out.extend(_check_externs(function))
    return out


def _check_blocks(function: Function) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for name, block in function.blocks.items():
        if not block.instructions:
            out.append(
                error(
                    "IR002",
                    STAGE_IR,
                    "empty basic block",
                    function=function.name,
                    block=name,
                )
            )
            continue
        last = block.instructions[-1]
        if not last.is_terminator:
            out.append(
                error(
                    "IR003",
                    STAGE_IR,
                    f"block falls through after {last!r}",
                    function=function.name,
                    block=name,
                    location=last.location,
                )
            )
        for inst in block.instructions[:-1]:
            if inst.is_terminator:
                out.append(
                    error(
                        "IR004",
                        STAGE_IR,
                        f"terminator {inst!r} before end of block",
                        function=function.name,
                        block=name,
                        location=inst.location,
                    )
                )
        for target in block.successors():
            if target not in function.blocks:
                out.append(
                    error(
                        "IR005",
                        STAGE_IR,
                        f"branch to unknown block {target!r}",
                        function=function.name,
                        block=name,
                        location=last.location,
                    )
                )
    return out


def _check_ssa(function: Function) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    temp_defs: Dict[str, List[irin.Instruction]] = {}
    for inst in function.instructions():
        for reg in inst.defs():
            if reg.is_temp:
                temp_defs.setdefault(reg.name, []).append(inst)
    for name, sites in temp_defs.items():
        if len(sites) > 1:
            out.append(
                error(
                    "IR006",
                    STAGE_IR,
                    f"temp %{name} assigned {len(sites)} times",
                    function=function.name,
                    location=sites[1].location,
                )
            )
    return out


def _check_reachability(function: Function) -> List[Diagnostic]:
    successors = function.successors()
    reachable: Set[str] = set()
    stack = [function.entry]
    while stack:
        name = stack.pop()
        if name in reachable or name not in successors:
            continue
        reachable.add(name)
        stack.extend(successors[name])
    out: List[Diagnostic] = []
    for name in function.blocks:
        if name not in reachable:
            out.append(
                warning(
                    "IR008",
                    STAGE_IR,
                    "block is unreachable from the entry",
                    function=function.name,
                    block=name,
                )
            )
    return out


def _check_defs_before_use(
    function: Function, boundary_inputs: FrozenSet[str]
) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    seen: Set[str] = set()
    for block, inst, reg in undefined_uses(function, boundary_inputs):
        if reg.name in seen:
            continue
        seen.add(reg.name)
        out.append(
            error(
                "IR007",
                STAGE_IR,
                f"%{reg.name} may be read before definition in {inst!r}",
                function=function.name,
                block=block,
                location=inst.location,
            )
        )
    return out


def _width(reg_or_const: object) -> Optional[int]:
    """Bits, or ``None`` where the operand has no type to ask."""
    width = bit_width_of(getattr(reg_or_const, "type", None), -1)
    return None if width < 0 else width


def _check_types(function: Function) -> List[Diagnostic]:
    """Conservative operand typing: flag only provable inconsistencies."""
    out: List[Diagnostic] = []

    def bad(inst: irin.Instruction, block: str, message: str) -> None:
        out.append(
            error(
                "IR009",
                STAGE_IR,
                message,
                function=function.name,
                block=block,
                location=inst.location,
            )
        )

    for name, block in function.blocks.items():
        for inst in block.instructions:
            if isinstance(inst, irin.BinOp):
                kind = inst.op
                boolean = kind.is_comparison or kind in (
                    irin.BinOpKind.LAND,
                    irin.BinOpKind.LOR,
                )
                if boolean and _width(inst.dst) not in (None, 1):
                    bad(
                        inst,
                        name,
                        f"comparison result %{inst.dst.name} is"
                        f" {_width(inst.dst)} bits wide (expected 1)",
                    )
            elif isinstance(inst, irin.Cast):
                if (
                    inst.dst.type is not None
                    and inst.to_type is not None
                    and inst.dst.type != inst.to_type
                ):
                    bad(
                        inst,
                        name,
                        f"cast destination %{inst.dst.name} typed"
                        f" {inst.dst.type!r}, cast target {inst.to_type!r}",
                    )
            elif isinstance(inst, irin.MapFind):
                if _width(inst.found) not in (None, 1):
                    bad(
                        inst,
                        name,
                        f"map-find hit flag %{inst.found.name} is"
                        f" {_width(inst.found)} bits wide (expected 1)",
                    )
            elif isinstance(inst, irin.Branch):
                if isinstance(inst.cond, Reg) and _width(inst.cond) not in (
                    None,
                    1,
                ):
                    bad(
                        inst,
                        name,
                        f"branch condition %{inst.cond.name} is"
                        f" {_width(inst.cond)} bits wide (expected 1)",
                    )
    return out


def _check_externs(function: Function) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for name, block in function.blocks.items():
        for inst in block.instructions:
            if not isinstance(inst, irin.ExternCall):
                continue
            spec = EXTERN_SPECS.get(inst.name)
            location = inst.location

            def bad(message: str) -> None:
                out.append(
                    error(
                        "IR010",
                        STAGE_IR,
                        message,
                        function=function.name,
                        block=name,
                        location=location,
                    )
                )

            if spec is None:
                bad(f"call to undeclared extern {inst.name!r}")
                continue
            if len(inst.args) != len(spec.params):
                bad(
                    f"extern {inst.name!r} called with {len(inst.args)}"
                    f" args (declares {len(spec.params)})"
                )
            if spec.return_type == VOID and inst.dst is not None:
                bad(f"void extern {inst.name!r} assigned to %{inst.dst.name}")
            if spec.return_type != VOID and inst.dst is None:
                bad(f"result of extern {inst.name!r} discarded")
            declared_reads = {loc.name for loc in spec.reads}
            declared_writes = {loc.name for loc in spec.writes}
            actual_reads = {loc.name for loc in inst.extra_reads}
            actual_writes = {loc.name for loc in inst.extra_writes}
            if actual_reads != declared_reads:
                bad(
                    f"extern {inst.name!r} effect mismatch:"
                    f" reads {sorted(actual_reads)}"
                    f" (declares {sorted(declared_reads)})"
                )
            if actual_writes != declared_writes:
                bad(
                    f"extern {inst.name!r} effect mismatch:"
                    f" writes {sorted(actual_writes)}"
                    f" (declares {sorted(declared_writes)})"
                )
    return out
