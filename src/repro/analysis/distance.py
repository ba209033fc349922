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

from typing import Dict, Set, Tuple

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


def _topological_order(graph: DependencyGraph, cyclic: Set[int]):
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
