"""The projection the budget search used to build three times per move.

``repro.partition.projection`` decides what a projection keeps, needs and
defines on the source function and builds a ``Function`` only from that
decision.  This is the path it replaced, kept literal as the oracle of
``test_transfer_model.py``: project the source onto one partition block by
block (join, guarded region, written regions and definition counts
re-derived from the source on every call), prune, rematerialize, and only
then ask the built function what it needs (``unsatisfied_uses``) and
defines (:func:`build_transfers`).  Nothing here reads the statics.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.lang.types import BOOL
from repro.ir import instructions as irin
from repro.ir.function import Function
from repro.ir.validate import unsatisfied_uses
from repro.ir.values import Const, Reg, aliased_packet_region
from repro.partition.labels import Partition
from repro.partition.plan import TransferSpec

NEEDS_SERVER = "__needs_server"

EXIT_BLOCK = "__exit"


def _effectful(inst: irin.Instruction) -> bool:
    """Foreign work that forces the packet through the server."""
    if inst.is_verdict:
        return True
    if isinstance(inst, (irin.Jump, irin.Branch, irin.Return)):
        return False
    for loc in inst.writes():
        if loc.is_global or loc.is_packet:
            return True
    if isinstance(inst, irin.ExternCall) and inst.extra_writes:
        return True
    return False


def _immediate_postdominator(
    function: Function, postdominators: Dict[str, Set[str]], block: str
) -> Optional[str]:
    """The nearest strict postdominator of ``block`` (None if it exits)."""
    strict = postdominators.get(block, set()) - {block}
    if not strict:
        return None
    # The immediate postdominator is the strict postdominator that is
    # postdominated by every other strict postdominator.
    for candidate in strict:
        others = strict - {candidate}
        candidate_post = postdominators.get(candidate, set())
        if others <= candidate_post:
            return candidate
    return None


def project_partition(
    function: Function,
    assignment: Dict[int, Partition],
    partition: Partition,
    postdominators: Dict[str, Set[str]],
) -> Function:
    """Project ``function`` onto one partition (see module docstring)."""
    projected = Function(f"{function.name}.{partition.name.lower()}", function.entry)
    needs_server = Reg(NEEDS_SERVER, BOOL, is_temp=False)
    track_flag = partition is Partition.PRE

    for name in function.blocks:
        projected.add_block(name)
    exit_block = projected.add_block(EXIT_BLOCK)
    exit_block.append(irin.Return())

    for name, block in function.blocks.items():
        new_block = projected.blocks[name]
        if track_flag and name == function.entry:
            new_block.append(irin.Assign(needs_server, Const(0, BOOL)))
        flagged_here = False
        for inst in block.body:
            inst_partition = assignment.get(inst.id, Partition.NON_OFF)
            if inst_partition is partition:
                new_block.append(inst)
            elif (
                inst_partition.value > partition.value
                and track_flag
                and not flagged_here
                and _effectful(inst)
            ):
                new_block.append(irin.Assign(needs_server, Const(1, BOOL)))
                flagged_here = True
        terminator = block.terminator
        if terminator is None:
            new_block.append(irin.Jump(EXIT_BLOCK))
            continue
        term_partition = assignment.get(terminator.id, Partition.NON_OFF)
        if isinstance(terminator, irin.Jump):
            new_block.append(irin.Jump(terminator.target,
                                       stmt_id=terminator.stmt_id))
        elif isinstance(terminator, irin.Branch):
            if term_partition.value <= partition.value and _region_has_work(
                function, assignment, partition, name, postdominators
            ):
                new_block.append(
                    irin.Branch(terminator.cond, terminator.if_true,
                                terminator.if_false,
                                stmt_id=terminator.stmt_id)
                )
            else:
                # The guarded region holds no instructions of this
                # partition (always true for later-partition branches, and
                # for loops whose body lives elsewhere): skip to the join.
                # This also keeps foreign loop skeletons out of switch
                # pipelines, which cannot loop.
                if track_flag and _region_effectful(
                    function, assignment, partition, name, postdominators
                ):
                    new_block.append(irin.Assign(needs_server, Const(1, BOOL)))
                join = _immediate_postdominator(function, postdominators, name)
                new_block.append(irin.Jump(join if join else EXIT_BLOCK))
        elif terminator.is_verdict:
            if term_partition is partition:
                new_block.append(terminator)
            else:
                if (
                    track_flag
                    and term_partition.value > partition.value
                    and not flagged_here
                ):
                    new_block.append(irin.Assign(needs_server, Const(1, BOOL)))
                new_block.append(irin.Jump(EXIT_BLOCK))
        elif isinstance(terminator, irin.Return):
            new_block.append(irin.Jump(EXIT_BLOCK))
        else:  # pragma: no cover - exhaustive above
            raise TypeError(f"unknown terminator {terminator!r}")

    projected.prune_unreachable()
    _simplify_empty_blocks(projected)
    if partition is not Partition.PRE:
        _rematerialize_pure_slices(function, projected, partition)
    return projected


def _rematerialize_pure_slices(
    original: Function, projected: Function, partition: Partition
) -> None:
    """Recompute pure values locally instead of shipping them in the shim.

    A value the projection needs from an earlier partition can be
    recomputed locally when its defining slice is *pure*: header loads of
    regions the program never rewrites, ALU ops, casts and copies over
    other pure values or constants.  The packet itself carries the header
    bytes, so re-reading them is free — this is what keeps the 5-tuple out
    of the shim and the constraint-5 budget honest (paper §4.3.2's 20-byte
    budget assumes exactly this).

    Table lookups, register reads, externs, and multiply-assigned locals
    stay in the shim: recomputing a lookup would double the table access
    (constraint 3) and multiply-assigned values are path-dependent.

    When the destination partition is a switch pipeline (POST), the slice
    must additionally be P4-expressible — rematerializing a multiply or
    division there would synthesize an instruction the switch cannot run
    (caught by ``SwitchProgram.validate``); such values ride the shim
    instead.
    """
    written_regions = {
        aliased_packet_region(inst.region)
        for inst in original.instructions()
        if isinstance(inst, irin.StorePacketField)
    }
    # Single-definition pure instructions of the original program.
    def_count: Dict[str, int] = {}
    def_inst: Dict[str, irin.Instruction] = {}
    for inst in original.instructions():
        for reg in inst.defs():
            def_count[reg.name] = def_count.get(reg.name, 0) + 1
            def_inst[reg.name] = inst

    # Names already defined inside the projection must not be re-defined by
    # a remat slice (and cannot be read at the entry point), so any slice
    # touching them is ineligible.
    proj_defs = projected.defined_regs()

    pure_cache: Dict[str, bool] = {}

    def is_pure(name: str) -> bool:
        if name in pure_cache:
            return pure_cache[name]
        pure_cache[name] = False  # break cycles conservatively
        if name in proj_defs:
            return False
        if def_count.get(name, 0) != 1:
            return False
        inst = def_inst[name]
        if partition is Partition.POST and not inst.p4_supported():
            ok = False
        elif isinstance(inst, irin.LoadPacketField):
            ok = aliased_packet_region(inst.region) not in written_regions or (
                inst.region == "meta" and inst.field == "ingress_port"
            )
        elif isinstance(inst, (irin.Assign, irin.Cast, irin.BinOp, irin.UnOp)):
            ok = all(is_pure(reg.name) for reg in inst.uses())
        else:
            ok = False
        pure_cache[name] = ok
        return ok

    needed = unsatisfied_uses(projected)
    slice_names: List[str] = []
    seen: set = set()

    def collect(name: str) -> None:
        if name in seen:
            return
        seen.add(name)
        for reg in def_inst[name].uses():
            collect(reg.name)
        slice_names.append(name)

    for name in sorted(needed):
        if is_pure(name):
            collect(name)
    if not slice_names:
        return
    entry = projected.blocks[projected.entry]
    insert_at = 0
    # Keep the needs-server flag initialization first if present.
    if entry.instructions and isinstance(entry.instructions[0], irin.Assign):
        first = entry.instructions[0]
        if first.dst.name == NEEDS_SERVER:
            insert_at = 1
    clones = [def_inst[name] for name in slice_names]
    entry.instructions[insert_at:insert_at] = clones


def _region_has_work(
    function: Function,
    assignment: Dict[int, Partition],
    partition: Partition,
    branch_block: str,
    postdominators: Dict[str, Set[str]],
) -> bool:
    """Does the branch's guarded region (or the branch's own verdict arms)
    contain any instruction assigned to ``partition``?"""
    join = _immediate_postdominator(function, postdominators, branch_block)
    seen: Set[str] = set()
    stack = list(function.blocks[branch_block].successors())
    while stack:
        current = stack.pop()
        if current in seen or current == join or current not in function.blocks:
            continue
        seen.add(current)
        block = function.blocks[current]
        for inst in block.instructions:
            if isinstance(inst, (irin.Jump,)):
                continue
            if assignment.get(inst.id, Partition.NON_OFF) is partition:
                return True
        stack.extend(block.successors())
    return False


def _region_effectful(
    function: Function,
    assignment: Dict[int, Partition],
    partition: Partition,
    branch_block: str,
    postdominators: Dict[str, Set[str]],
) -> bool:
    """Does the region guarded by ``branch_block``'s branch do foreign work?"""
    join = _immediate_postdominator(function, postdominators, branch_block)
    seen: Set[str] = set()
    stack = list(function.blocks[branch_block].successors())
    while stack:
        current = stack.pop()
        if current in seen or current == join or current not in function.blocks:
            continue
        seen.add(current)
        block = function.blocks[current]
        for inst in block.instructions:
            inst_partition = assignment.get(inst.id, Partition.NON_OFF)
            if inst_partition.value > partition.value and _effectful(inst):
                return True
        stack.extend(block.successors())
    return False


def _simplify_empty_blocks(function: Function) -> None:
    """Forward jumps through blocks that contain only a Jump."""
    forward: Dict[str, str] = {}
    for name, block in function.blocks.items():
        if name == function.entry:
            continue
        if len(block.instructions) == 1 and isinstance(
            block.instructions[0], irin.Jump
        ):
            forward[name] = block.instructions[0].target

    def resolve(name: str) -> str:
        seen = set()
        while name in forward and name not in seen:
            seen.add(name)
            name = forward[name]
        return name

    for block in function.blocks.values():
        term = block.terminator
        if isinstance(term, irin.Jump):
            target = resolve(term.target)
            if target != term.target:
                block.instructions[-1] = irin.Jump(target, stmt_id=term.stmt_id)
        elif isinstance(term, irin.Branch):
            new_true = resolve(term.if_true)
            new_false = resolve(term.if_false)
            if new_true != term.if_true or new_false != term.if_false:
                block.instructions[-1] = irin.Branch(
                    term.cond, new_true, new_false, stmt_id=term.stmt_id
                )
    function.prune_unreachable()


def build_transfers(
    pre: Function, non_off: Function, post: Function
) -> Tuple[TransferSpec, TransferSpec]:
    """Shim contents from the built projections' unsatisfied uses."""
    pre_defs = pre.defined_regs()
    non_off_defs = non_off.defined_regs()
    non_off_needs = unsatisfied_uses(non_off)
    post_needs = unsatisfied_uses(post)
    to_server_regs: Dict[str, Reg] = {}
    for name, reg in non_off_needs.items():
        if name in pre_defs:
            to_server_regs[name] = reg
    for name, reg in post_needs.items():
        if name in pre_defs and name not in non_off_defs:
            to_server_regs[name] = reg
    to_switch_regs = {
        name: reg
        for name, reg in post_needs.items()
        if name in pre_defs or name in non_off_defs
    }
    to_server = TransferSpec(
        [to_server_regs[name] for name in sorted(to_server_regs)]
    )
    to_switch = TransferSpec(
        [to_switch_regs[name] for name in sorted(to_switch_regs)]
    )
    return to_server, to_switch
