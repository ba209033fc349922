"""Control-flow reachability: the "can happen after" relation (§4.1).

The paper: *"Whether S2 can happen after S1 is simply whether S2 is
reachable from S1 in the control-flow graph."*  We compute this at
instruction granularity: B can happen after A if B follows A in the same
block, or B's block is reachable from A's block's successors.  Instructions
in CFG cycles can happen after themselves.

Also provides postdominators (for control dependencies) and the set of
blocks on cycles (for the paper's loop rule 5).  Block sets are Python-int
bitsets over :attr:`ReachabilityInfo.blocks` (the function's block order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.ir.function import Function, per_shape
from repro.ir.instructions import Branch, Instruction


@dataclass
class ReachabilityInfo:
    """Precomputed reachability facts for one function (of one shape:
    :func:`compute_reachability`)."""

    #: the blocks in ``Function.block_order()``: bit ``i`` of a block set
    #: is ``blocks[i]``
    blocks: List[str]
    index: Dict[str, int]
    #: per block, the blocks reachable from it (excluding itself unless on
    #: a cycle through it)
    reach: List[int]
    #: per block, the blocks that postdominate it (itself included)
    post: List[int]
    #: blocks that lie on some CFG cycle
    cyclic_blocks: Set[str]
    #: instruction id -> block name
    inst_block: Dict[int, str]
    #: instruction id -> index within its block
    inst_index: Dict[int, int]

    def can_happen_after(self, first: Instruction, second: Instruction) -> bool:
        """True if ``second`` can execute after ``first`` on some trace."""
        block_a = self.inst_block[first.id]
        block_b = self.inst_block[second.id]
        if block_a == block_b and (
            self.inst_index[second.id] > self.inst_index[first.id]
        ):
            return True
        # Another block, or same block at or before first: only via a cycle.
        return bool(self.reach[self.index[block_a]] >> self.index[block_b] & 1)

    def in_cycle(self, inst: Instruction) -> bool:
        return self.inst_block[inst.id] in self.cyclic_blocks

    def immediate_postdominator(self, block: str) -> Optional[str]:
        """The nearest strict postdominator of ``block`` (None if it exits):
        the one every other strict postdominator postdominates."""
        at = self.index.get(block)
        if at is None:
            return None
        strict = self.post[at] & ~(1 << at)
        rest = strict
        while rest:
            low = rest & -rest
            rest ^= low
            candidate = low.bit_length() - 1
            if not strict & ~low & ~self.post[candidate]:
                return self.blocks[candidate]
        return None


@per_shape
def compute_reachability(function: Function) -> ReachabilityInfo:
    names = list(function.block_order())
    index = {name: at for at, name in enumerate(names)}
    successors = [
        [index[target] for target in function.blocks[name].successors()
         if target in index]
        for name in names
    ]
    # Forward reachability: a block reaches its successors and what they
    # reach.  Reverse post-order visits successors first but across a back
    # edge, so one sweep settles an acyclic CFG; around a loop it repeats.
    reach = [0] * len(names)
    changed = True
    while changed:
        changed = False
        for at in reversed(range(len(names))):
            row = reach[at]
            for target in successors[at]:
                row |= 1 << target | reach[target]
            if row != reach[at]:
                reach[at] = row
                changed = True
    cyclic_blocks = {
        name for at, name in enumerate(names) if reach[at] >> at & 1
    }
    inst_block: Dict[int, str] = {}
    inst_index: Dict[int, int] = {}
    for name, block in function.blocks.items():
        for position, inst in enumerate(block.instructions):
            inst_block[inst.id] = name
            inst_index[inst.id] = position
    return ReachabilityInfo(
        blocks=names,
        index=index,
        reach=reach,
        post=_postdominators(
            successors,
            [not function.blocks[name].successors() for name in names],
        ),
        cyclic_blocks=cyclic_blocks,
        inst_block=inst_block,
        inst_index=inst_index,
    )


def _postdominators(
    successors: List[List[int]], exits: List[bool]
) -> List[int]:
    """Standard iterative postdominator sets over a virtual exit node.

    Exit nodes are blocks whose terminator has no successors (verdicts and
    returns).  A block with no path to an exit (infinite loop) keeps the
    full set, which conservatively suppresses control-dependence pruning —
    loops are forced off the switch by rule 5 anyway.
    """
    every = (1 << len(successors)) - 1
    post = [1 << at if exit else every for at, exit in enumerate(exits)]
    changed = True
    while changed:
        changed = False
        for at in reversed(range(len(successors))):
            targets = successors[at]
            if exits[at] or not targets:
                continue
            meet = every
            for target in targets:
                meet &= post[target]
            meet |= 1 << at
            if meet != post[at]:
                post[at] = meet
                changed = True
    return post


def control_dependence_sources(
    function: Function, info: ReachabilityInfo
) -> Dict[int, int]:
    """For each Branch instruction id, the blocks (a bitset) control
    dependent on it (classic CDG construction via postdominance).

    Block B is control dependent on branch A (in block N) when A has a
    successor S such that B postdominates S (or B == S), but B does not
    strictly postdominate N.  Note ``info.post[x]`` includes x.
    """
    post, index = info.post, info.index
    result: Dict[int, int] = {}
    for at, name in enumerate(info.blocks):
        term = function.blocks[name].terminator
        if not isinstance(term, Branch):
            continue
        outside = ~(post[at] & ~(1 << at))
        dependent = 0
        for succ in term.successors():
            if succ in index:
                dependent |= post[index[succ]] & outside
        result[term.id] = dependent
    return result
