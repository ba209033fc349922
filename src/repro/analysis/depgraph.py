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
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, FrozenSet, List, Set, Tuple

from repro.ir.function import Function, per_shape
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


#: One bit per kind while a graph is built, and the set each combination
#: stands for: an edge holds one of these sixteen, not a set of its own.
_DATA, _ANTI, _CONTROL, _OUTPUT_COMMIT = (1 << at for at in range(4))
_KIND_SETS = [
    frozenset(
        kind for at, kind in enumerate(DependencyKind) if mask >> at & 1
    )
    for mask in range(16)
]


@dataclass
class DependencyGraph:
    """Instruction-level dependency graph with its transitive closure.

    The closure is kept as one Python-int bitset per instruction, indexed
    by :attr:`position`, and computed on first use: the label rules read
    it on the source function's graph, the depth measurement of a
    projected pipeline never does.  A graph is not modified once built;
    a function keeps its own (:func:`dependency_graph`), so a graph does
    not point back at the function.
    """

    reachability: ReachabilityInfo
    instructions: List[Instruction]
    #: (src_id, dst_id) -> set of kinds; edge means dst depends on src
    edges: Dict[Tuple[int, int], FrozenSet[DependencyKind]]
    #: successors in the dependency graph: src_id -> {dst_id}
    dependents: Dict[int, Set[int]]
    #: predecessors: dst_id -> {src_id}
    dependencies: Dict[int, Set[int]]
    def once(self, derive: Callable[["DependencyGraph"], Any]) -> Any:
        """``derive(self)``, computed once per graph: what other modules
        (the label rules) derive from the graph alone."""
        try:
            return self._derived[derive]
        except KeyError:
            derived = self._derived[derive] = derive(self)
            return derived

    def by_id(self, inst_id: int) -> Instruction:
        return self._index[inst_id]

    def __post_init__(self):
        self._derived: Dict[Callable[..., Any], Any] = {}
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


def build_dependency_graph(function: Function) -> DependencyGraph:
    """Build the graph of ``function`` as it is now, for a caller that
    reads it once; :func:`dependency_graph` is the one a function keeps."""
    info = compute_reachability(function)
    instructions = list(function.instructions())
    kinds: Dict[Tuple[int, int], int] = {}

    def add_edge(src: Instruction, dst: Instruction, kind: int) -> None:
        pair = (src.id, dst.id)
        kinds[pair] = kinds.get(pair, 0) | kind

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
                    add_edge(first, second, _DATA)
        for first in loc_readers:
            for second in loc_writers:
                if after(first, second):
                    add_edge(first, second, _ANTI)

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
                    add_edge(branch, inst, _CONTROL)
                elif info.in_cycle(inst):
                    # A loop-header branch controls its own re-execution.
                    add_edge(branch, inst, _CONTROL)

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
                add_edge(mutator, verdict, _OUTPUT_COMMIT)

    dependents: Dict[int, Set[int]] = {inst.id: set() for inst in instructions}
    dependencies: Dict[int, Set[int]] = {inst.id: set() for inst in instructions}
    edges = {pair: _KIND_SETS[mask] for pair, mask in kinds.items()}
    for (src_id, dst_id) in edges:
        dependents[src_id].add(dst_id)
        dependencies[dst_id].add(src_id)

    return DependencyGraph(
        reachability=info,
        instructions=instructions,
        edges=edges,
        dependents=dependents,
        dependencies=dependencies,
    )


@per_shape
def dependency_graph(function: Function) -> DependencyGraph:
    """The graph of ``function``, built once per shape of it and kept by
    it — for the source function, whose graph the partitioner, the
    projection and the partition verifier all read."""
    return build_dependency_graph(function)
