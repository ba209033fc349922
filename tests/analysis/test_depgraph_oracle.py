"""The bitset dependency graph is the pairwise one it replaced.

``repro.analysis.depgraph`` builds each instruction's edges as bitsets —
per-location reader / writer positions ANDed with the instruction's "can
happen after" row — over block reachability and postdominators that
``repro.analysis.reachability`` now keeps as bitsets too, and
``repro.analysis.distance`` measures chains over those rows.
``depgraph_oracle.py`` keeps the path they replaced, literal: one
``can_happen_after`` call per candidate pair, sets of block names, Kahn's
order.  Over the six bundled middleboxes and the 60 generated programs of
``make cpp-check``, the source function and the three projections the
partitioner returns under ``tofino_like`` and under ``tiny`` (a program a
limit refuses adds its source function alone), the new graph must have
the oracle's ``edges`` (pairs and kind sets), its ``dependents`` and
``dependencies`` (the successor and predecessor rows, by instruction
id), closure and ``dependency_distances``, and the new
reachability the old one's cyclic blocks, block-to-block reachability,
immediate postdominators and control dependences.  Twelve of the
programs loop, so the paths for a CFG cycle run too.

A seeded mutant of each new path must make the comparison fail.
"""

import contextlib
import inspect
import re
from typing import Dict, List, Optional, Tuple
from unittest import mock

import pytest

from repro.analysis import depgraph, distance, reachability
from repro.ir import lower_program
from repro.ir.function import Function
from repro.lang import parse_program
from repro.partition.constraints import SwitchResources
from repro.partition.partitioner import PartitionError, partition_middlebox
from tests.analysis import depgraph_oracle as oracle
from tests.codegen.cpp_check import GENERATED, sources

LIMITS = (SwitchResources.tofino_like, SwitchResources.tiny)
SOURCES: Dict[str, str] = dict(sources(GENERATED))
_FUNCTIONS: Dict[str, List[Tuple[str, Function]]] = {}


def functions(label: str) -> List[Tuple[str, Function]]:
    """``(where, function)``: the source function, then each limit's
    projections."""
    if label not in _FUNCTIONS:
        lowered = lower_program(parse_program(SOURCES[label]))
        found = [(label, lowered.process)]
        for limits in LIMITS:
            try:
                plan = partition_middlebox(lowered, limits())
            except PartitionError:
                continue
            found += [
                (f"{label} {limits.__name__} {side}", getattr(plan, side))
                for side in ("pre", "non_offloaded", "post")
            ]
        _FUNCTIONS[label] = found
    return _FUNCTIONS[label]


def by_id(graph, rows: List[int]) -> Dict[int, set]:
    """Per-position rows as the pairwise builder's id -> ids dictionary."""
    ids = [inst.id for inst in graph.instructions]
    return {
        ids[at]: {ids[other] for other in depgraph.set_bits(row)}
        for at, row in enumerate(rows)
    }


def disagreement(function: Function) -> Optional[str]:
    """What the new graph or reachability says that the oracle does not,
    or None."""
    old = oracle.build_dependency_graph(function)
    new = depgraph.build_dependency_graph(function)
    if new.edges != old.edges:
        return "edges"
    if by_id(new, new.successors) != old.dependents:
        return "dependents"
    if by_id(new, new.predecessors) != old.dependencies:
        return "dependencies"
    if (new.descendants, new.ancestors) != (old.descendants, old.ancestors):
        return "closure"
    if distance.dependency_distances(new) != oracle.dependency_distances(old):
        return "dependency_distances"
    info, sets = new.reachability, old.reachability
    if info.cyclic_blocks != sets.cyclic_blocks:
        return "cyclic_blocks"
    for name in function.blocks:
        reached = {
            other for other in function.blocks
            if info.reach[info.index[name]] >> info.index[other] & 1
        }
        if reached != sets.block_reachable[name]:
            return f"blocks reachable from {name}"
        if info.immediate_postdominator(name) != sets.immediate_postdominator(
            name
        ):
            return f"immediate postdominator of {name}"
    dependent = {
        branch: {info.blocks[at] for at in depgraph.set_bits(blocks)}
        for branch, blocks in reachability.control_dependence_sources(
            function, info
        ).items()
    }
    expected: Dict[int, set] = {}
    for name, branches in oracle.control_dependence_sources(
        function, sets
    ).items():
        for branch in branches:
            expected.setdefault(branch, set()).add(name)
    if {branch: found for branch, found in dependent.items() if found} != (
        expected
    ):
        return "control dependences"
    return None


def first_disagreement(labels) -> Optional[str]:
    for label in labels:
        for where, function in functions(label):
            found = disagreement(function)
            if found is not None:
                return f"{where}: {found}"
    return None


@pytest.mark.parametrize("label", sorted(SOURCES))
def test_the_bitset_graph_is_the_pairwise_one(label):
    assert first_disagreement([label]) is None


def looping(label: str) -> bool:
    return bool(depgraph.build_dependency_graph(
        functions(label)[0][1]
    ).reachability.cyclic_blocks)


def test_the_sweep_has_loops_and_projections():
    assert sum(map(looping, SOURCES)) >= 10
    assert sum(len(functions(label)) for label in SOURCES) > 5 * len(SOURCES)


# -- seeded mutants -------------------------------------------------------------


def rewritten(module, pattern: str, replacement: str) -> dict:
    """The namespace of ``module`` run afresh with one piece of its
    source rewritten (so a ``per_shape`` analysis in it is a new question,
    computed anew for every function)."""
    source = inspect.getsource(module)
    mutated, hits = re.subn(pattern, replacement, source)
    assert hits == 1, pattern
    namespace = {"__name__": module.__name__}
    exec(compile(mutated, module.__file__, "exec"), namespace)
    return namespace


#: name -> (module, pattern, replacement, the names it rebinds); each
#: breaks one new path: the ANTI rows, the loop-header branch's control
#: of itself, the reachability sweep around a loop, a block among its own
#: postdominators, the distances' test for a graph that is not in program
#: order.
GRAPH = [(depgraph, "build_dependency_graph")]
REACH = [
    (depgraph, "compute_reachability"),
    (depgraph, "control_dependence_sources"),
    (reachability, "control_dependence_sources"),
]
MUTANTS = {
    "no ANTI": (
        depgraph, r"anti\[at\] = later & overwritten", "anti[at] = 0", GRAPH,
    ),
    "loop header": (
        depgraph,
        r"own = 0 if info\.in_cycle\(instructions\[at\]\) else 1 << at",
        "own = 1 << at", GRAPH,
    ),
    "one reach sweep": (
        reachability,
        r"reach\[at\] = row\n                changed = True",
        "reach[at] = row", REACH,
    ),
    "strict postdominators": (
        reachability, r"meet \|= 1 << at", "pass", REACH,
    ),
    "always forward": (
        distance, r"if not graph\.forward:", "if False:",
        [(distance, "dependency_distances")],
    ),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_each_mutant_is_caught(mutant):
    module, pattern, replacement, names = MUTANTS[mutant]
    # Looping programs first: three of the mutants show only there.
    labels = sorted(sorted(SOURCES), key=lambda label: not looping(label))
    namespace = rewritten(module, pattern, replacement)
    with contextlib.ExitStack() as stack:
        for target, name in names:
            stack.enter_context(
                mock.patch.object(target, name, namespace[name])
            )
        assert first_disagreement(labels) is not None, (
            f"{mutant} went unnoticed"
        )
