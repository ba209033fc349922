"""The dependency graph (paper §4.1, Figure 3).

Vertices are IR instructions; a directed edge S1 → S2 means **S2 depends on
S1** ("S2 must run after S1").  Edge kinds follow the paper's program
dependence graph plus one reproduction-specific kind:

* ``DATA`` — S1 writes state S2 reads or writes (read-after-write and
  write-after-write),
* ``ANTI`` — S1 reads state S2 modifies (write-after-read; the paper's
  "reverse data dependency"),
* ``CONTROL`` — S1 is a branch that determines whether S2 executes,
* ``OUTPUT_COMMIT`` — S1 mutates global (cross-packet) state and S2 is a
  packet-release verdict reachable from S1.  This encodes the output-commit
  requirement of §4.3.3 — a packet that triggers state updates must not be
  released before those updates — directly as an ordering edge, so the
  label-removing rules 1–2 automatically keep such verdicts off the
  fast path.  Output-commit edges are excluded from the "same global state"
  rules 3–4 (they are ordering constraints, not table accesses).

Edges only exist where "S2 can happen after S1" holds (CFG reachability).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.ir.function import Function
from repro.ir.instructions import Branch, Instruction
from repro.ir.values import Location
from repro.analysis.reachability import (
    ReachabilityInfo,
    compute_reachability,
    control_dependence_sources,
)


class DependencyKind(enum.Enum):
    DATA = "data"
    ANTI = "anti"
    CONTROL = "control"
    OUTPUT_COMMIT = "output_commit"


@dataclass
class DependencyGraph:
    """Instruction-level dependency graph with its transitive closure.

    The closure is kept as one Python-int bitset per instruction, indexed
    by :attr:`position`, and computed on first use: the label rules read
    it on the source function's graph, the depth measurement of a
    projected pipeline never does.  A graph is not modified once built.
    """

    function: Function
    reachability: ReachabilityInfo
    instructions: List[Instruction]
    #: (src_id, dst_id) -> set of kinds; edge means dst depends on src
    edges: Dict[Tuple[int, int], Set[DependencyKind]]
    #: successors in the dependency graph: src_id -> {dst_id}
    dependents: Dict[int, Set[int]]
    #: predecessors: dst_id -> {src_id}
    dependencies: Dict[int, Set[int]]
    #: what :mod:`repro.partition.labels` derives from this graph alone,
    #: kept here so that it is built once per graph
    label_statics: Optional[Any] = field(
        default=None, repr=False, compare=False
    )
    #: likewise what :mod:`repro.partition.projection` derives from it
    projection_statics: Optional[Any] = field(
        default=None, repr=False, compare=False
    )

    def by_id(self, inst_id: int) -> Instruction:
        return self._index[inst_id]

    def __post_init__(self):
        self._index = {inst.id: inst for inst in self.instructions}
        #: instruction id -> its bit in every closure bitset (program order)
        self.position: Dict[int, int] = {
            inst.id: at for at, inst in enumerate(self.instructions)
        }

    @cached_property
    def descendants(self) -> List[int]:
        """Per position, the bitset of everything depending on it (⇝*)."""
        return self._closure(self.dependents, last_first=True)

    @cached_property
    def ancestors(self) -> List[int]:
        """Per position, the bitset of everything it depends on (⇝*)."""
        return self._closure(self.dependencies, last_first=False)

    def _closure(
        self, neighbours: Dict[int, Set[int]], last_first: bool
    ) -> List[int]:
        """Per position, what one or more ``neighbours`` steps reach.

        Swept to a fixpoint.  Dependency edges run forward in program
        order except around loops, so a sweep that visits each node after
        its neighbours settles an acyclic graph at once (one more sweep
        confirms it).
        """
        position = self.position
        steps = [
            [position[other] for other in neighbours[inst.id]]
            for inst in self.instructions
        ]
        rows = [sum(1 << other for other in step) for step in steps]
        order = range(len(rows))
        changed = True
        while changed:
            changed = False
            for at in reversed(order) if last_first else order:
                row = rows[at]
                for other in steps[at]:
                    row |= rows[other]
                if row != rows[at]:
                    rows[at] = row
                    changed = True
        return rows

    def depends_transitively(self, later: Instruction, earlier: Instruction) -> bool:
        """True if ``later`` depends on ``earlier`` via any chain (⇝*)."""
        row = self.descendants[self.position[earlier.id]]
        return bool(row >> self.position[later.id] & 1)

    def self_dependent(self, inst: Instruction) -> bool:
        return self.depends_transitively(inst, inst)

    def edge_kinds(self, src: Instruction, dst: Instruction) -> Set[DependencyKind]:
        return self.edges.get((src.id, dst.id), set())

    def statement_edges(self) -> Set[Tuple[int, int]]:
        """Edges lifted to source-statement granularity (for Figure 3)."""
        out: Set[Tuple[int, int]] = set()
        for (src_id, dst_id) in self.edges:
            src_stmt = self._index[src_id].stmt_id
            dst_stmt = self._index[dst_id].stmt_id
            if src_stmt >= 0 and dst_stmt >= 0 and src_stmt != dst_stmt:
                out.add((src_stmt, dst_stmt))
        return out


def build_dependency_graph(
    function: Function, reachability: Optional[ReachabilityInfo] = None
) -> DependencyGraph:
    info = reachability or compute_reachability(function)
    instructions = list(function.instructions())
    edges: Dict[Tuple[int, int], Set[DependencyKind]] = {}

    def add_edge(src: Instruction, dst: Instruction, kind: DependencyKind) -> None:
        edges.setdefault((src.id, dst.id), set()).add(kind)

    # Data / anti dependencies: two instructions are related only through
    # a location both touch, so pair them per location.
    readers: Dict[Location, List[Instruction]] = {}
    writers: Dict[Location, List[Instruction]] = {}
    for inst in instructions:
        for loc in inst.reads():
            readers.setdefault(loc, []).append(inst)
        for loc in inst.writes():
            writers.setdefault(loc, []).append(inst)
    after = info.can_happen_after
    for loc, loc_writers in writers.items():
        loc_readers = readers.get(loc, [])
        for first in loc_writers:
            for second in loc_readers + loc_writers:
                if after(first, second):
                    add_edge(first, second, DependencyKind.DATA)
        for first in loc_readers:
            for second in loc_writers:
                if after(first, second):
                    add_edge(first, second, DependencyKind.ANTI)

    # Control dependencies: branch -> every instruction in dependent blocks.
    cdep = control_dependence_sources(function, info)
    branch_by_id = {
        inst.id: inst for inst in instructions if isinstance(inst, Branch)
    }
    for block_name, branch_ids in cdep.items():
        block = function.blocks.get(block_name)
        if block is None:
            continue
        for branch_id in branch_ids:
            branch = branch_by_id.get(branch_id)
            if branch is None:
                continue
            for inst in block.instructions:
                if inst.id != branch.id:
                    add_edge(branch, inst, DependencyKind.CONTROL)
                elif info.in_cycle(inst):
                    # A loop-header branch controls its own re-execution.
                    add_edge(branch, inst, DependencyKind.CONTROL)

    # Output-commit edges: global-state mutation -> reachable verdicts.
    mutators = [
        inst
        for inst in instructions
        if any(loc.is_global for loc in inst.writes())
    ]
    verdicts = [inst for inst in instructions if inst.is_verdict]
    for mutator in mutators:
        for verdict in verdicts:
            if info.can_happen_after(mutator, verdict):
                add_edge(mutator, verdict, DependencyKind.OUTPUT_COMMIT)

    dependents: Dict[int, Set[int]] = {inst.id: set() for inst in instructions}
    dependencies: Dict[int, Set[int]] = {inst.id: set() for inst in instructions}
    for (src_id, dst_id) in edges:
        dependents[src_id].add(dst_id)
        dependencies[dst_id].add(src_id)

    return DependencyGraph(
        function=function,
        reachability=info,
        instructions=instructions,
        edges=edges,
        dependents=dependents,
        dependencies=dependencies,
    )
