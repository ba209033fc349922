"""Control-flow reachability: the "can happen after" relation (§4.1).

The paper: *"Whether S2 can happen after S1 is simply whether S2 is
reachable from S1 in the control-flow graph."*  We compute this at
instruction granularity: B can happen after A if B follows A in the same
block, or B's block is reachable from A's block's successors.  Instructions
in CFG cycles can happen after themselves.

Also provides postdominators (for control dependencies) and the set of
blocks on cycles (for the paper's loop rule 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.ir.function import Function, per_shape
from repro.ir.instructions import Branch, Instruction


@dataclass
class ReachabilityInfo:
    """Precomputed reachability facts for one function (of one shape:
    :func:`compute_reachability`)."""

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


@per_shape
def compute_reachability(function: Function) -> ReachabilityInfo:
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
    return ReachabilityInfo(
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
    function: Function, info: ReachabilityInfo
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
