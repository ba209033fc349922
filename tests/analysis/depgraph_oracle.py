"""The dependency graph as it was built before the bitset builder: the
oracle of ``tests/analysis/test_depgraph_oracle.py``.

``repro.analysis.depgraph`` builds a graph's edges from per-location
position bitsets ANDed with a per-instruction "can happen after" bitset,
and ``repro.analysis.distance`` measures chains over those rows.  This is
the path they replaced, kept literal: every writer of a location paired
with every reader and writer of it through ``can_happen_after``, edges in
a dictionary, block reachability and postdominators as sets of names, the
closure swept to a fixpoint and the distances taken in Kahn's order.
Nothing here reads the new graph or the new reachability.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.depgraph import DependencyKind
from repro.analysis.distance import _stage_cost
from repro.ir.function import Function
from repro.ir.instructions import Branch, Instruction
from repro.ir.values import Location

_DATA, _ANTI, _CONTROL, _OUTPUT_COMMIT = (1 << at for at in range(4))
_KIND_SETS = [
    frozenset(
        kind for at, kind in enumerate(DependencyKind) if mask >> at & 1
    )
    for mask in range(16)
]


@dataclass
class PairwiseReachability:
    """The reachability facts the pairwise builder read, as sets."""

    #: block -> set of blocks reachable from it (excluding itself unless on
    #: a cycle through it)
    block_reachable: Dict[str, Set[str]]
    #: blocks that lie on some CFG cycle
    cyclic_blocks: Set[str]
    #: block -> its postdominator set (blocks that postdominate it)
    postdominators: Dict[str, Set[str]]
    #: instruction id -> block name
    inst_block: Dict[int, str]
    #: instruction id -> index within its block
    inst_index: Dict[int, int]

    def can_happen_after(self, first: Instruction, second: Instruction) -> bool:
        """True if ``second`` can execute after ``first`` on some trace."""
        block_a = self.inst_block[first.id]
        block_b = self.inst_block[second.id]
        if block_a == block_b:
            if self.inst_index[second.id] > self.inst_index[first.id]:
                return True
            # Same block, second at or before first: only via a cycle.
            return block_a in self.block_reachable[block_a]
        return block_b in self.block_reachable[block_a]

    def in_cycle(self, inst: Instruction) -> bool:
        return self.inst_block[inst.id] in self.cyclic_blocks

    def immediate_postdominator(self, block: str) -> Optional[str]:
        """The nearest strict postdominator of ``block`` (None if it exits):
        the one every other strict postdominator postdominates."""
        strict = self.postdominators.get(block, set()) - {block}
        for candidate in strict:
            if strict - {candidate} <= self.postdominators.get(candidate, set()):
                return candidate
        return None


def compute_reachability(function: Function) -> PairwiseReachability:
    blocks = function.blocks
    successors = function.successors()
    # Forward reachability via DFS from each block's successors.
    block_reachable: Dict[str, Set[str]] = {}
    for name in blocks:
        seen: Set[str] = set()
        stack = list(successors[name])
        while stack:
            current = stack.pop()
            if current in seen or current not in blocks:
                continue
            seen.add(current)
            stack.extend(successors[current])
        block_reachable[name] = seen
    cyclic_blocks = {name for name in blocks if name in block_reachable[name]}
    postdominators = _compute_postdominators(function)
    inst_block: Dict[int, str] = {}
    inst_index: Dict[int, int] = {}
    for name, block in blocks.items():
        for index, inst in enumerate(block.instructions):
            inst_block[inst.id] = name
            inst_index[inst.id] = index
    return PairwiseReachability(
        block_reachable=block_reachable,
        cyclic_blocks=cyclic_blocks,
        postdominators=postdominators,
        inst_block=inst_block,
        inst_index=inst_index,
    )


def _compute_postdominators(function: Function) -> Dict[str, Set[str]]:
    """Standard iterative postdominator sets over a virtual exit node.

    Exit nodes are blocks whose terminator has no successors (verdicts and
    returns).  A block with no path to an exit (infinite loop) keeps the
    full set, which conservatively suppresses control-dependence pruning —
    loops are forced off the switch by rule 5 anyway.
    """
    successors = function.successors()
    exits = [name for name, targets in successors.items() if not targets]
    all_blocks: Set[str] = set(successors)
    post: Dict[str, Set[str]] = {}
    for name in successors:
        post[name] = {name} if name in exits else set(all_blocks)
    changed = True
    while changed:
        changed = False
        for name, targets in successors.items():
            if name in exits:
                continue
            succs = [s for s in targets if s in post]
            if not succs:
                continue
            meet: Set[str] = set(all_blocks)
            for succ in succs:
                meet &= post[succ]
            candidate = {name} | meet
            if candidate != post[name]:
                post[name] = candidate
                changed = True
    return post


def control_dependence_sources(
    function: Function, info: PairwiseReachability
) -> Dict[str, Set[int]]:
    """For each block, the set of Branch instruction ids it is control
    dependent on (classic CDG construction via postdominance).

    Block B is control dependent on branch A (in block N) when A has a
    successor S such that B postdominates S (or B == S), but B does not
    strictly postdominate N.  Note ``info.postdominators[x]`` includes x.
    """
    post = info.postdominators
    result: Dict[str, Set[int]] = {name: set() for name in function.blocks}
    for name, block in function.blocks.items():
        term = block.terminator
        if not isinstance(term, Branch):
            continue
        strict_post_of_branch = post.get(name, set()) - {name}
        for succ in term.successors():
            if succ not in function.blocks:
                continue
            for candidate in function.blocks:
                if candidate not in post.get(succ, set()):
                    continue
                if candidate not in strict_post_of_branch:
                    result[candidate].add(term.id)
    return result


@dataclass
class PairwiseGraph:
    """What the pairwise builder returned, less what the label rules
    read."""

    reachability: PairwiseReachability
    instructions: List[Instruction]
    #: (src_id, dst_id) -> set of kinds; edge means dst depends on src
    edges: Dict[Tuple[int, int], FrozenSet[DependencyKind]]
    #: successors in the dependency graph: src_id -> {dst_id}
    dependents: Dict[int, Set[int]]
    #: predecessors: dst_id -> {src_id}
    dependencies: Dict[int, Set[int]]

    def __post_init__(self):
        self.position: Dict[int, int] = {
            inst.id: at for at, inst in enumerate(self.instructions)
        }

    @cached_property
    def descendants(self) -> List[int]:
        return self._closure(self.dependents, last_first=True)

    @cached_property
    def ancestors(self) -> List[int]:
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

    def self_dependent(self, inst: Instruction) -> bool:
        row = self.descendants[self.position[inst.id]]
        return bool(row >> self.position[inst.id] & 1)


def build_dependency_graph(function: Function) -> PairwiseGraph:
    """The graph of ``function``, one ``can_happen_after`` call per
    candidate pair."""
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

    return PairwiseGraph(
        reachability=info,
        instructions=instructions,
        edges=edges,
        dependents=dependents,
        dependencies=dependencies,
    )


def dependency_distances(graph: PairwiseGraph) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Return ``(from_entry, to_exit)`` longest-chain stage counts.

    ``from_entry[i]`` is the longest dependency chain (in stage costs,
    inclusive of ``i``) ending at instruction ``i``; ``to_exit[i]`` is the
    longest chain starting at ``i``.  Instructions on dependency cycles get
    a large sentinel (they can never be offloaded anyway).
    """
    cost = {inst.id: _stage_cost(inst) for inst in graph.instructions}
    # Kahn's algorithm drains every node exactly when nothing is cyclic;
    # only a graph with a dependency cycle has to consult the closure.
    cyclic: Set[int] = set()
    order = _topological_order(graph, cyclic)
    if len(order) != len(graph.instructions):
        cyclic = {
            inst.id for inst in graph.instructions if graph.self_dependent(inst)
        }
        order = _topological_order(graph, cyclic)
    from_entry: Dict[int, int] = {}
    sentinel = 10**9
    for inst in graph.instructions:
        if inst.id in cyclic:
            from_entry[inst.id] = sentinel
        else:
            from_entry[inst.id] = cost[inst.id]
    for node in order:
        for dep in graph.dependencies.get(node, ()):  # dep -> node
            if dep in cyclic or node in cyclic:
                continue
            from_entry[node] = max(
                from_entry[node], from_entry[dep] + cost[node]
            )
    to_exit: Dict[int, int] = {}
    for inst in graph.instructions:
        to_exit[inst.id] = sentinel if inst.id in cyclic else cost[inst.id]
    for node in reversed(order):
        for dep in graph.dependents.get(node, ()):  # node -> dep
            if dep in cyclic or node in cyclic:
                continue
            to_exit[node] = max(to_exit[node], to_exit[dep] + cost[node])
    return from_entry, to_exit


def _topological_order(graph: PairwiseGraph, cyclic: Set[int]):
    """Kahn's algorithm over the nodes outside ``cyclic``.

    Returns the nodes it could drain: all of them when the sub-graph is
    acyclic (it is once every self-dependent node is excluded), fewer
    when a cycle holds some back.
    """
    indegree: Dict[int, int] = {}
    nodes = [inst.id for inst in graph.instructions if inst.id not in cyclic]
    node_set = set(nodes)
    for node in nodes:
        indegree[node] = sum(
            1 for dep in graph.dependencies.get(node, ()) if dep in node_set
        )
    ready = [node for node in nodes if indegree[node] == 0]
    order = []
    while ready:
        node = ready.pop()
        order.append(node)
        for succ in graph.dependents.get(node, ()):
            if succ in node_set:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
    return order
