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
the same :class:`PipelineUsage`), :func:`co_reachable`
the one constraint-3 collision test, :func:`entry_bytes` the one
constraint-1 memory formula, and :meth:`ConstraintReport.violations` the
one constraint 1–5 accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.depgraph import build_dependency_graph
from repro.analysis.distance import dependency_distances
from repro.analysis.reachability import ReachabilityInfo, compute_reachability
from repro.ir import instructions as irin
from repro.ir.function import Function, per_shape


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


@dataclass
class PipelineUsage:
    """What one switch pipeline (a projected pre or post function) uses."""

    reachability: ReachabilityInfo
    #: instruction id -> the stage it runs in: the longest stage-costing
    #: dependency chain ending at it (0 for a free copy nothing costly
    #: precedes); empty for a pipeline with a control-flow loop
    schedule: Dict[int, int]
    #: constraint 2 — the stages it occupies, its schedule's deepest
    depth: int
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
    schedule: Dict[int, int] = {}
    depth = UNBOUNDED_DEPTH
    if not info.cyclic_blocks:
        # Built, scheduled and dropped: nothing reads a projection's graph
        # twice, and a kept one would sit in memory while packets run.
        schedule, _ = dependency_distances(build_dependency_graph(function))
        depth = max(schedule.values(), default=0)
    sites: Dict[str, List[irin.Instruction]] = {}
    unsupported: List[irin.Instruction] = []
    for inst in function.instructions():
        if isinstance(inst, SWITCH_STATE_OPS):
            sites.setdefault(inst.state, []).append(inst)
        elif not inst.p4_supported():
            unsupported.append(inst)
    return PipelineUsage(
        reachability=info,
        schedule=schedule,
        depth=depth,
        sites=sites,
        unsupported=unsupported,
    )


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
