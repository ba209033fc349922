"""Partition plan: the partitioner's output consumed by code generation.

A :class:`PartitionPlan` bundles the per-instruction assignment, the three
projected CFGs (Figure 4), the cross-partition transfer sets (Figure 5),
the per-state placement decisions (Figure 6), and the measured resource
usage.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ir.function import Function
from repro.ir.lowering import LoweredMiddlebox, StateMember
from repro.ir.values import Reg
from repro.partition.constraints import ConstraintReport, SwitchResources
from repro.partition.labels import Partition


class PlacementKind(enum.Enum):
    """Where a state member lives at runtime (paper Figure 6 + §4.3.3)."""

    #: Map/vector on the switch as a match-action table, never written on
    #: the packet path (configure-time contents installed via control plane).
    SWITCH_TABLE = "switch_table"
    #: Map/vector replicated: read on the switch, written by the server,
    #: synchronized with write-back tables + atomic bit.
    REPLICATED_TABLE = "replicated_table"
    #: Scalar on the switch as a P4 register (read/RMW on the switch only).
    SWITCH_REGISTER = "switch_register"
    #: Scalar replicated: read on switch, written by the server.
    REPLICATED_REGISTER = "replicated_register"
    #: State that never reaches the switch.
    SERVER_ONLY = "server_only"


@dataclass
class StatePlacement:
    member: StateMember
    kind: PlacementKind
    #: capacity used for switch memory accounting (entries)
    entries: int = 0
    #: bytes of switch memory this placement consumes
    memory_bytes: int = 0

    @property
    def on_switch(self) -> bool:
        return self.kind is not PlacementKind.SERVER_ONLY

    @property
    def replicated(self) -> bool:
        return self.kind in (
            PlacementKind.REPLICATED_TABLE,
            PlacementKind.REPLICATED_REGISTER,
        )


@dataclass
class TransferSpec:
    """Variables crossing one partition boundary (one shim direction)."""

    regs: List[Reg] = field(default_factory=list)

    def byte_size(self) -> int:
        return sum(reg.bytes for reg in self.regs)

    def names(self) -> List[str]:
        return [reg.name for reg in self.regs]


@dataclass
class PartitionPlan:
    """Everything downstream stages need about the partitioning."""

    middlebox: LoweredMiddlebox
    limits: SwitchResources
    #: instruction id -> partition
    assignment: Dict[int, Partition]
    #: the three projected functions (Figure 4)
    pre: Function
    non_offloaded: Function
    post: Function
    #: shim contents: switch -> server and server -> switch (Figure 5)
    to_server: TransferSpec
    to_switch: TransferSpec
    #: per-state placement decisions
    placements: Dict[str, StatePlacement]
    report: ConstraintReport
    #: name of the synthetic needs-server flag register in the pre function
    needs_server_reg: Optional[str] = None

    def offloaded_fraction(self) -> float:
        total = len(self.assignment)
        if not total:
            return 0.0
        offloaded = sum(
            1 for p in self.assignment.values() if p is not Partition.NON_OFF
        )
        return offloaded / total

    def counts(self) -> Dict[str, int]:
        out = {"pre": 0, "non_off": 0, "post": 0}
        for partition in self.assignment.values():
            if partition is Partition.PRE:
                out["pre"] += 1
            elif partition is Partition.POST:
                out["post"] += 1
            else:
                out["non_off"] += 1
        return out

    def summary(self) -> str:
        counts = self.counts()
        placements = ", ".join(
            f"{name}:{placement.kind.value}"
            for name, placement in sorted(self.placements.items())
        )
        return (
            f"{self.middlebox.name}: pre={counts['pre']}"
            f" non_off={counts['non_off']} post={counts['post']};"
            f" shim {self.to_server.byte_size()}B/"
            f"{self.to_switch.byte_size()}B; state [{placements}]"
        )
