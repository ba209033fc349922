"""Switch resource model (paper §4.2.2, constraints 1–5).

Defaults mirror the paper's Tofino-class description (§2.2): a few tens of
MB of table memory, 10–20 pipeline stages (we default to the conservative
12 the paper alludes to), under ~100 bytes of per-packet scratchpad
metadata, and a 20-byte budget for the shim header that carries temporary
state between switch and server.

This module also owns the numbers those limits are held against:
:func:`measure_pipeline` is the one measurement of a switch pipeline and
its stage schedule (the partitioner's budget search, its final
:class:`ConstraintReport`, the P4 lint and tenancy's table slots all read
the same :class:`PipelineUsage`, whose ``staged`` ops are the order
:func:`allocate_metadata` and the P4 text follow), :func:`co_reachable`
the one constraint-3 collision test, :func:`entry_bytes` the one
constraint-1 memory formula, and :meth:`ConstraintReport.violations` the
one constraint 1–5 accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.depgraph import build_dependency_graph
from repro.analysis.distance import distances_from_entry
from repro.analysis.reachability import ReachabilityInfo, compute_reachability
from repro.ir import instructions as irin
from repro.ir.function import Function, per_shape
from repro.ir.values import Operand, Reg


class PartitionError(Exception):
    """Raised when no feasible partitioning exists (should not happen:
    all-server is always feasible; this signals an internal bug or an
    unannotated structure the caller must fix)."""


@dataclass(frozen=True)
class SwitchResources:
    """Resource limits the generated P4 program must respect."""

    #: Constraint 1 — total switch memory for global state, in bytes.
    memory_bytes: int = 16 * 1024 * 1024
    #: Constraint 2 — match-action pipeline depth (longest dependency
    #: chain).  §2.2 puts physical stage counts "around 10 to 20"; every
    #: chain step in our metric is a stage-consuming op, so we default to
    #: the upper end.
    pipeline_depth: int = 20
    #: Constraint 4 — per-packet scratchpad metadata, in bytes.
    metadata_bytes: int = 96
    #: Constraint 5 — per-direction shim-header budget, in bytes.
    transfer_bytes: int = 20

    @classmethod
    def tofino_like(cls) -> "SwitchResources":
        return cls()

    @classmethod
    def tiny(cls) -> "SwitchResources":
        """A deliberately starved switch, used by constraint-pressure tests."""
        return cls(
            memory_bytes=4096,
            pipeline_depth=6,
            metadata_bytes=16,
            transfer_bytes=8,
        )


def entry_bytes(widths: Sequence[int]) -> int:
    """Constraint 1's one memory formula: the switch bytes one table entry
    or register holds, each field rounded up to whole bytes.  The
    partitioner's placements, the program's lint (P4L005) and tenancy's
    SRAM carve all price state through it."""
    return sum((width + 7) // 8 for width in widths)


@dataclass
class ConstraintReport:
    """Measured resource usage of a candidate partitioning."""

    memory_bytes: int = 0
    pipeline_depth_pre: int = 0
    pipeline_depth_post: int = 0
    metadata_bytes_pre: int = 0
    metadata_bytes_post: int = 0
    transfer_bytes_to_server: int = 0
    transfer_bytes_to_switch: int = 0
    #: state name -> number of offloaded access sites (constraint 3)
    state_access_sites: Dict[str, int] = field(default_factory=dict)

    def violations(self, limits: SwitchResources) -> List[str]:
        """Constraint 1–5 violations of one measured partitioning."""
        problems: List[str] = []
        if self.memory_bytes > limits.memory_bytes:
            problems.append(
                f"constraint 1: switch memory {self.memory_bytes} >"
                f" {limits.memory_bytes}"
            )
        depth = max(self.pipeline_depth_pre, self.pipeline_depth_post)
        if depth > limits.pipeline_depth:
            problems.append(
                f"constraint 2: dependency chain {depth} >"
                f" pipeline depth {limits.pipeline_depth}"
            )
        for state, sites in self.state_access_sites.items():
            if sites > 1:
                problems.append(
                    f"constraint 3: state {state!r} has {sites} offloaded"
                    " access sites"
                )
        metadata = max(self.metadata_bytes_pre, self.metadata_bytes_post)
        if metadata > limits.metadata_bytes:
            problems.append(
                f"constraint 4: per-packet metadata {metadata} bytes >"
                f" {limits.metadata_bytes}"
            )
        transfer = max(
            self.transfer_bytes_to_server, self.transfer_bytes_to_switch
        )
        if transfer > limits.transfer_bytes:
            problems.append(
                f"constraint 5: shim transfer {transfer} bytes >"
                f" {limits.transfer_bytes}"
            )
        return problems


#: IR instructions that access a switch table or register.
SWITCH_STATE_OPS = (
    irin.MapFind,
    irin.VectorGet,
    irin.LoadState,
    irin.RegisterRMW,
)

#: Depth reported for a pipeline with a control-flow loop: no stage count
#: fits it (the partitioner evicts, the lint reports P4L004).
UNBOUNDED_DEPTH = 10**9


#: When an op runs: where one of these conjunctions of ``(branch condition,
#: polarity)`` pairs holds (``((),)``: always).
Guard = Tuple[Tuple[Tuple[Operand, int], ...], ...]
#: An op as the switch runs it: the instruction, its stage and its guard.
StagedOp = Tuple[irin.Instruction, int, Guard]


@dataclass
class PipelineUsage:
    """What one switch pipeline (a projected pre or post function) uses."""

    reachability: ReachabilityInfo
    #: constraint 2 — the stages it occupies, its schedule's deepest
    depth: int
    #: every op in (stage, program position) order, its stage the longest
    #: stage-costing dependency chain ending at it (the last for a Return,
    #: the exit pre's punt copies the shim out at); empty for a loop
    staged: Tuple[StagedOp, ...]
    #: constraint 3 — state name -> the instructions accessing it
    sites: Dict[str, List[irin.Instruction]]
    #: instructions no P4 pipeline can express
    unsupported: List[irin.Instruction]


@per_shape
def measure_pipeline(function: Function) -> PipelineUsage:
    """Measure ``function`` as the switch would run it.

    The only argument is the function, and it must be the *projection*:
    CFG projection rematerializes pure slices into the pipeline (header
    re-reads, ALU recomputation), so the emitted dependency chain can be
    longer than the source function's distance metric accounts for.
    Measured once per shape of it: the budget search, the program's lint,
    the verify stage and tenancy's table slots read one
    :class:`PipelineUsage`.
    """
    info = compute_reachability(function)
    staged: Sequence[StagedOp] = ()
    depth = UNBOUNDED_DEPTH
    if not info.cyclic_blocks:
        # Built, scheduled and dropped: nothing reads a projection's graph
        # twice, and a kept one would sit in memory while packets run.
        schedule = distances_from_entry(build_dependency_graph(function))
        depth = max(schedule.values(), default=0)
        guards = _guards(function, info)
        staged = sorted(
            (
                (inst, depth if isinstance(inst, irin.Return)
                 else schedule[inst.id], guards[info.inst_block[inst.id]])
                for inst in function.instructions()
            ),
            key=lambda op: op[1],
        )
    sites: Dict[str, List[irin.Instruction]] = {}
    unsupported: List[irin.Instruction] = []
    for inst in function.instructions():
        if isinstance(inst, SWITCH_STATE_OPS):
            sites.setdefault(inst.state, []).append(inst)
        elif not inst.p4_supported():
            unsupported.append(inst)
    return PipelineUsage(
        reachability=info,
        depth=depth,
        staged=tuple(staged),
        sites=sites,
        unsupported=unsupported,
    )


def _guards(function: Function, info: ReachabilityInfo) -> Dict[str, Guard]:
    """Block -> its guard, a conjunction per way the walk reaches it: a
    branch's arms run under its condition up to its immediate
    postdominator, where its own guard resumes.  A guard reads its
    conditions where its op runs: one written after its branch is refused."""
    guards: Dict[str, list] = {}
    branches: Dict[str, set] = {}  # condition -> the branches on it
    regions = [(function.entry, None, ())]
    while regions:
        block, stop, conjunction = regions.pop()
        while block is not None and block != stop:
            guards.setdefault(block, []).append(conjunction)
            end = function.blocks[block].terminator
            if isinstance(end, irin.Branch):
                branches.setdefault(getattr(end.cond, "name", ""), set()).add(end)
                block = info.immediate_postdominator(block)
                regions += [
                    (end.if_false, block, conjunction + ((end.cond, 0),)),
                    (end.if_true, block, conjunction + ((end.cond, 1),)),
                ]
            else:
                block = end.target if isinstance(end, irin.Jump) else None
    for inst in function.instructions():
        for reg in inst.facts.defs:
            if any(info.can_happen_after(b, inst) for b in branches.get(reg.name, ())):
                raise PartitionError(
                    f"{function.name}: PART007: {reg} is written after the branch on it"
                )
    return {block: tuple(found) for block, found in guards.items()}


def co_reachable(
    info: ReachabilityInfo, sites: Sequence[irin.Instruction]
) -> Optional[Tuple[irin.Instruction, irin.Instruction]]:
    """The first two of ``sites`` one traversal can both execute, if any.

    Register accesses on mutually exclusive control paths — a NAT reading
    its external-IP register on both the hit and the miss arm — share a
    stage; only co-reachable ones collide (constraint 3).
    """
    for i, first in enumerate(sites):
        for second in sites[i + 1:]:
            if info.can_happen_after(first, second) or info.can_happen_after(
                second, first
            ):
                return first, second
    return None


@dataclass(frozen=True)
class MetadataAllocation:
    """Byte offsets assigned to each register in the scratchpad."""

    offsets: Dict[str, Tuple[int, int]]  # name -> (offset, size)
    total_bytes: int


def allocate_metadata(
    function: Function,
    held_from_entry: Iterable[str],
    held_to_exit: Iterable[str],
) -> MetadataAllocation:
    """Constraint 4's one answer, §4.3.1's reuse of dead temporaries:
    scratchpad byte offsets for every register of the acyclic pipeline
    ``function``, once per shape and boundary — ``held_from_entry`` are
    copied in before its first op, ``held_to_exit`` out after its last."""
    return function.once(
        _linear_scan, frozenset(held_from_entry), frozenset(held_to_exit)
    )


def _linear_scan(
    function: Function,
    held_from_entry: FrozenSet[str],
    held_to_exit: FrozenSet[str],
) -> MetadataAllocation:
    """A linear-scan register allocator over bytes: a register lives
    from its first to its last position in the staged order — an op holds
    its results, its operands and its guard's conditions — and registers
    sorted by start each take the lowest byte offset whose previous
    occupant's range has ended.  Ranges are inclusive, so the operands and
    the results of one op never share a byte."""
    staged = measure_pipeline(function).staged
    ranges: Dict[str, Tuple[int, int]] = {}
    for position, (inst, _, guard) in enumerate(staged):
        conditions = [
            cond for conjunction in guard for cond, _ in conjunction
            if isinstance(cond, Reg)
        ]
        for reg in (*inst.defs(), *inst.uses(), *conditions):
            first, _ = ranges.get(reg.name, (position, position))
            ranges[reg.name] = (first, position)
    for name in held_from_entry & ranges.keys():
        ranges[name] = (-1, ranges[name][1])
    for name in held_to_exit & ranges.keys():
        ranges[name] = (ranges[name][0], len(staged))
    registers = function.registers()
    offsets: Dict[str, Tuple[int, int]] = {}
    active: List[Tuple[int, int, int]] = []  # (end, offset, size)
    total = 0
    for name in sorted(ranges, key=lambda name: ranges[name][0]):
        start, end = ranges[name]
        size = registers[name].bytes
        active = [entry for entry in active if entry[0] >= start]
        offset = 0
        for lo, hi in sorted([(at, at + sz) for _, at, sz in active]):
            if offset + size <= lo:
                break
            offset = max(offset, hi)
        offsets[name] = (offset, size)
        active.append((end, offset, size))
        total = max(total, offset + size)
    return MetadataAllocation(offsets, total)
