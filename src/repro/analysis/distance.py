"""Dependency-distance metrics (paper §4.2.2, constraint 2).

*"The dependency distance between two program points is the length of the
longest dependency chain connecting the two points."*  The partitioner
removes "pre" labels from statements farther than the pipeline depth ``k``
from the program entry, and "post" labels from statements farther than ``k``
from the exit.

Chains are measured over the dependency graph restricted to its acyclic
part: instructions involved in dependency cycles (loops) are excluded —
rule 5 forces them off the switch regardless, and excluding them keeps the
longest-path computation well-defined.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.analysis.depgraph import DependencyGraph
from repro.ir import instructions as irin


def _stage_cost(inst) -> int:
    """Pipeline stages an instruction consumes.

    Pure copies are free — a real compiler coalesces them into the
    producing or consuming stage — while table lookups, register ops, ALU
    ops, branches and header accesses each occupy a stage slot.
    """
    if isinstance(inst, (irin.Assign, irin.Cast, irin.Jump, irin.Return)):
        return 0
    return 1


def dependency_distances(graph: DependencyGraph) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Return ``(from_entry, to_exit)`` longest-chain stage counts.

    ``from_entry[i]`` is the longest dependency chain (in stage costs,
    inclusive of ``i``) ending at instruction ``i``; ``to_exit[i]`` is the
    longest chain starting at ``i``.  Instructions on dependency cycles get
    a large sentinel (they can never be offloaded anyway).
    """
    own, cyclic, order = _chain_basis(graph)
    to_exit = list(own)
    for at in reversed(order):
        longest = 0
        row = graph.successors[at] & ~cyclic
        while row:
            low = row & -row
            row ^= low
            other = to_exit[low.bit_length() - 1]
            if other > longest:
                longest = other
        to_exit[at] += longest
    ids = [inst.id for inst in graph.instructions]
    return (dict(zip(ids, _from_entry(graph, own, cyclic, order))),
            dict(zip(ids, to_exit)))


def distances_from_entry(graph: DependencyGraph) -> Dict[int, int]:
    """``from_entry`` of :func:`dependency_distances` alone: a pipeline's
    stage schedule needs no chain to the exit."""
    ids = [inst.id for inst in graph.instructions]
    return dict(zip(ids, _from_entry(graph, *_chain_basis(graph))))


def _chain_basis(graph: DependencyGraph) -> Tuple[List[int], int, Sequence[int]]:
    """What both directions start from: each instruction's own stage cost
    (the sentinel on a dependency cycle), the cycle's positions as a
    bitset, and an order in which every other edge runs forward."""
    instructions = graph.instructions
    cost = [_stage_cost(inst) for inst in instructions]
    # Edges run forward in program order unless the CFG loops; only then
    # can a dependency cycle exist, and the closure say who is on one.
    cyclic = 0
    order: Sequence[int] = range(len(instructions))
    if not graph.forward:
        for at, inst in enumerate(instructions):
            if graph.self_dependent(inst):
                cyclic |= 1 << at
        order = _topological_order(graph.successors, cyclic)
    sentinel = 10**9
    own = [sentinel if cyclic >> at & 1 else cost[at] for at in range(len(cost))]
    return own, cyclic, order


def _from_entry(graph: DependencyGraph, own: List[int], cyclic: int,
                order: Sequence[int]) -> List[int]:
    """The longest chain ending at each position, in ``order``."""
    from_entry = list(own)
    for at in order:
        reach = from_entry[at]
        row = graph.successors[at] & ~cyclic
        while row:
            low = row & -row
            row ^= low
            other = low.bit_length() - 1
            if reach + own[other] > from_entry[other]:
                from_entry[other] = reach + own[other]
    return from_entry


def _topological_order(successors: List[int], cyclic: int) -> List[int]:
    """Kahn's algorithm over the positions outside ``cyclic``, which must
    leave an acyclic graph."""
    indegree = [0] * len(successors)
    for at, row in enumerate(successors):
        if not cyclic >> at & 1:
            row &= ~cyclic
            while row:
                low = row & -row
                row ^= low
                indegree[low.bit_length() - 1] += 1
    ready = [
        at for at, degree in enumerate(indegree)
        if not degree and not cyclic >> at & 1
    ]
    order = []
    while ready:
        at = ready.pop()
        order.append(at)
        row = successors[at] & ~cyclic
        while row:
            low = row & -row
            row ^= low
            other = low.bit_length() - 1
            indegree[other] -= 1
            if not indegree[other]:
                ready.append(other)
    return order
