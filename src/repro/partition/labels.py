"""The label-removing algorithm (paper §4.2.1).

**Specification.**  Each instruction starts with the label set
``{pre, post, non_off}`` if P4 can express it, else ``{non_off}``.  Rules
are applied to a fixpoint:

1. ``S' ⇝* S  ∧  post ∉ L(S)   ⟹  post ∉ L(S')``
2. ``S' ⇝* S  ∧  pre ∉ L(S')   ⟹  pre ∉ L(S)``
3. ``S' ⇝* S  ∧  same global state  ∧  pre ∈ L(S')   ⟹  pre ∉ L(S)``
4. ``S' ⇝* S  ∧  same global state  ∧  post ∈ L(S)   ⟹  post ∉ L(S')``
5. ``S ⇝* S  ⟹  L(S) = {non_off}`` (loops never offload)

where ``S' ⇝* S`` means S transitively depends on S'.  The algorithm
terminates because the total number of labels decreases monotonically.

Partition assignment from the final label sets: ``pre ∈ L`` → PRE;
else ``post ∈ L`` → POST; else NON_OFF.  (This is the maximal-offload
reading of the paper's assignment rule and reproduces Figure 4.)

*Pins* let later passes force instructions into the non-offloaded
partition (resource-constraint refinement re-runs the rules after each
pin, as §4.2.2 prescribes).  A pin is a bit: ``pinned_pre`` /
``pinned_post`` are bitsets over the graph's positions, and a
:class:`LabelAssignment` carries the pins it was computed from.

**Implementation.**  Nothing here iterates the rules: on a transitive
``⇝*`` their fixpoint has a closed form (DESIGN.md, "Partitioner", has the
argument).  Of two accesses to one global ordered by ``⇝*`` the later
always loses ``pre`` and the earlier always loses ``post``, so::

    no_pre  = seeds  ∪ descendants(seeds)
    no_post = seeds' ∪ ancestors(seeds')

with seeds = no P4 form ∪ rule 5 ∪ pinned ``pre`` ∪ every later access
(seeds': pinned ``post``, every earlier access), over the per-instruction
bitsets of :class:`DependencyGraph`.  All but the pins is built once per
graph (:class:`LabelStatics`).  The rule-by-rule sweep lives on as the
oracle of ``tests/partition/test_label_engine.py``, which holds this
module to it label set by label set.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.depgraph import DependencyGraph
from repro.ir.values import Location


class Partition(enum.Enum):
    """Final partition assignment; ordered by execution phase."""

    PRE = 0
    NON_OFF = 1
    POST = 2


@dataclass
class LabelAssignment:
    """Result of the label-removing algorithm, as bitsets over
    ``graph.position``."""

    graph: DependencyGraph
    #: instructions whose ``pre`` / ``post`` a refinement pass pinned away
    pinned_pre: int
    pinned_post: int
    #: instructions that lost ``pre`` / ``post``
    no_pre: int
    no_post: int

    def assignment(self) -> Dict[int, Partition]:
        """Instruction id -> its partition (what a plan records)."""
        return {
            inst.id: (
                Partition.PRE if not self.no_pre >> at & 1
                else Partition.POST if not self.no_post >> at & 1
                else Partition.NON_OFF
            )
            for at, inst in enumerate(self.graph.instructions)
        }

    @property
    def offloaded(self) -> int:
        """The instructions assigned to the switch."""
        return self.members(Partition.PRE) | self.members(Partition.POST)

    def members(self, partition: Partition) -> int:
        """The instructions assigned to ``partition``, as a bitset."""
        if partition is Partition.PRE:
            return ~self.no_pre & (1 << len(self.graph.instructions)) - 1
        if partition is Partition.POST:
            return self.no_pre & ~self.no_post
        return self.no_pre & self.no_post

    def through(self, partition: Partition) -> int:
        """The instructions assigned to ``partition`` or an earlier one."""
        if partition is Partition.PRE:
            return self.members(partition)
        everything = (1 << len(self.graph.instructions)) - 1
        if partition is Partition.NON_OFF:
            return everything & ~(self.no_pre & ~self.no_post)
        return everything


@dataclass(frozen=True)
class LabelStatics:
    """What rules 1–5 settle from the graph alone, before any pin."""

    no_pre: int
    no_post: int

    @classmethod
    def of(cls, graph: DependencyGraph) -> "LabelStatics":
        statics: LabelStatics = graph.once(cls.build)
        return statics

    @classmethod
    def build(cls, graph: DependencyGraph) -> "LabelStatics":
        descendants = graph.descendants
        # Never offloadable: no P4 form (the initial sets), or rule 5 — on
        # a dependency cycle or a CFG cycle.
        server_only = 0
        sites: Dict[Location, List[int]] = {}
        for at, inst in enumerate(graph.instructions):
            bit = 1 << at
            if (
                not inst.p4_supported()
                or descendants[at] & bit
                or graph.reachability.in_cycle(inst)
            ):
                server_only |= bit
            for loc in inst.global_state_accesses():
                sites.setdefault(loc, []).append(at)
        # Rules 3 and 4: of two accesses to one global ordered by ⇝*, the
        # earlier is never post and the later never pre.
        earlier = later = 0
        for positions in sites.values():
            accessors = sum(1 << at for at in positions)
            for at in positions:
                after = descendants[at] & accessors & ~(1 << at)
                if after:
                    earlier |= 1 << at
                    later |= after
        return cls(
            no_pre=_spread(server_only | later, descendants),
            no_post=_spread(server_only | earlier, graph.ancestors),
        )


def _spread(seeds: int, rows: List[int]) -> int:
    """``seeds`` and everything their ``rows`` reach.

    ``rows`` is a transitive closure, so a seed another seed's row covers
    adds nothing of its own and is skipped.
    """
    reached = seeds
    while seeds:
        low = seeds & -seeds
        row = rows[low.bit_length() - 1]
        reached |= row
        seeds &= ~(row | low)
    return reached


def run_label_removal(
    graph: DependencyGraph, pinned_pre: int, pinned_post: int
) -> LabelAssignment:
    """The fixpoint of rules 1–5 over ``graph`` with the ``pinned_pre``
    instructions' ``pre`` and the ``pinned_post`` ones' ``post`` removed."""
    statics = LabelStatics.of(graph)
    no_pre, no_post = statics.no_pre, statics.no_post
    return LabelAssignment(
        graph, pinned_pre, pinned_post,
        no_pre=no_pre | _spread(pinned_pre & ~no_pre, graph.descendants),
        no_post=no_post | _spread(pinned_post & ~no_post, graph.ancestors),
    )
