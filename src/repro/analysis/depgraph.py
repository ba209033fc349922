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
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Tuple

from repro.ir.function import Function, per_shape
from repro.ir.instructions import Instruction
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

    # A member is equal only to itself: hash it by identity, in C.
    __hash__ = object.__hash__


#: The set each combination of kinds stands for, indexed by a mask with
#: one bit per kind in declaration order: an edge holds one of these
#: sixteen, not a set of its own.
_KIND_SETS = [
    frozenset(
        kind for at, kind in enumerate(DependencyKind) if mask >> at & 1
    )
    for mask in range(16)
]


def set_bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class DependencyGraph:
    """Instruction-level dependency graph with its transitive closure.

    Everything is a Python-int bitset per instruction, indexed by
    :attr:`position` (program order): ``rows[kind][at]`` holds the
    instructions depending on the one at ``at`` through an edge of that
    kind, :attr:`successors` their union.  The paper's view —
    :attr:`edges` by instruction id — and the closure are derived from the
    rows on first use: the label rules read the closure of the source
    function's graph, the depth measurement of a projected pipeline reads
    only :attr:`successors`.  A graph is not modified once built; a function
    keeps its own (:func:`dependency_graph`), so a graph does not point
    back at the function.
    """

    reachability: ReachabilityInfo
    instructions: List[Instruction]
    #: kind -> per position, the positions depending on it by that kind
    rows: Dict[DependencyKind, List[int]]

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
        #: instruction id -> its bit in every bitset (program order)
        self.position: Dict[int, int] = {
            inst.id: at for at, inst in enumerate(self.instructions)
        }
        #: per position, everything depending on it directly
        self.successors: List[int] = [
            data | anti | control | commit
            for data, anti, control, commit in zip(*self.rows.values())
        ]

    @cached_property
    def forward(self) -> bool:
        """Whether every edge runs forward in program order — always, but
        around a CFG loop — so position order is a topological order."""
        for at, row in enumerate(self.successors):
            if row & ((2 << at) - 1):
                return False
        return True

    @cached_property
    def predecessors(self) -> List[int]:
        """Per position, everything it depends on directly."""
        rows = [0] * len(self.successors)
        for at, row in enumerate(self.successors):
            bit = 1 << at
            while row:
                low = row & -row
                row ^= low
                rows[low.bit_length() - 1] |= bit
        return rows

    @cached_property
    def descendants(self) -> List[int]:
        """Per position, the bitset of everything depending on it (⇝*)."""
        return _closure(self.successors, self.forward, last_first=True)

    @cached_property
    def ancestors(self) -> List[int]:
        """Per position, the bitset of everything it depends on (⇝*)."""
        return _closure(self.predecessors, self.forward, last_first=False)

    @cached_property
    def edges(self) -> Dict[Tuple[int, int], FrozenSet[DependencyKind]]:
        """(src_id, dst_id) -> its kinds; an edge means dst depends on
        src."""
        ids = [inst.id for inst in self.instructions]
        kind_rows = [self.rows[kind] for kind in DependencyKind]
        edges = {}
        for at, row in enumerate(self.successors):
            for other in set_bits(row):
                mask = 0
                for shift, rows in enumerate(kind_rows):
                    mask |= (rows[at] >> other & 1) << shift
                edges[ids[at], ids[other]] = _KIND_SETS[mask]
        return edges

    def depends_transitively(self, later: Instruction, earlier: Instruction) -> bool:
        """True if ``later`` depends on ``earlier`` via any chain (⇝*)."""
        row = self.descendants[self.position[earlier.id]]
        return bool(row >> self.position[later.id] & 1)

    def self_dependent(self, inst: Instruction) -> bool:
        return self.depends_transitively(inst, inst)


def _closure(steps: List[int], forward: bool, last_first: bool) -> List[int]:
    """Per position, what one or more ``steps`` reach.

    When every edge runs forward in program order one sweep that visits
    each node after its neighbours settles it; around a loop the sweep
    repeats to a fixpoint.
    """
    rows = list(steps)
    order = range(len(rows))
    if last_first:
        order = order[::-1]
    changed = True
    while changed:
        changed = False
        for at in order:
            row = rows[at]
            step = steps[at]
            while step:
                low = step & -step
                step ^= low
                row |= rows[low.bit_length() - 1]
            if row != rows[at]:
                rows[at] = row
                changed = True
        if forward:
            break
    return rows


def _union(runs: List[int], blocks: int) -> int:
    """The instructions of a block set: its blocks' runs together."""
    union = 0
    while blocks:
        low = blocks & -blocks
        blocks ^= low
        union |= runs[low.bit_length() - 1]
    return union


def build_dependency_graph(function: Function) -> DependencyGraph:
    """Build the graph of ``function`` as it is now, for a caller that
    reads it once; :func:`dependency_graph` is the one a function keeps.

    Positions are program order, and ``function.instructions()`` lists a
    block's instructions together, so a block is one run of bits.  What
    can happen after an instruction is the rest of its block's run and
    every run its block reaches (its own whole run around a loop); an
    edge to a location's reader or writer is that bitset ANDed with the
    location's readers or writers.
    """
    info = compute_reachability(function)
    instructions = list(function.instructions())
    count = len(instructions)
    blocks = function.blocks

    runs: List[int] = []
    start = 0
    for name in info.blocks:
        end = start + len(blocks[name].instructions)
        runs.append((1 << end) - (1 << start))
        start = end
    after = []
    for run, reach in zip(runs, info.reach):
        reached = _union(runs, reach)
        while run:
            low = run & -run
            run ^= low
            after.append(reached | run)

    # Data / anti dependencies: two instructions are related only through
    # a location both touch — a write to what a later one reads or writes,
    # a read of what a later one writes.
    readers: Dict[Location, int] = {}
    writers: Dict[Location, int] = {}
    verdicts = 0
    facts = [inst.facts for inst in instructions]
    for at, (reads, writes, _, _, _) in enumerate(facts):
        bit = 1 << at
        for loc in reads:
            readers[loc] = readers.get(loc, 0) | bit
        for loc in writes:
            writers[loc] = writers.get(loc, 0) | bit
        if instructions[at].is_verdict:
            verdicts |= bit
    data = [0] * count
    anti = [0] * count
    commit = [0] * count
    for at, (reads, writes, global_state, _, _) in enumerate(facts):
        touched = overwritten = 0
        for loc in writes:
            touched |= writers[loc] | readers.get(loc, 0)
        for loc in reads:
            overwritten |= writers.get(loc, 0)
        later = after[at]
        data[at] = later & touched
        anti[at] = later & overwritten
        # Output commit: a global-state mutation -> every reachable verdict.
        if writes & global_state:
            commit[at] = later & verdicts

    # Control dependencies: branch -> every instruction in dependent
    # blocks; a loop-header branch controls its own re-execution.
    control = [0] * count
    position = {inst.id: at for at, inst in enumerate(instructions)}
    for branch_id, dependent in control_dependence_sources(
        function, info
    ).items():
        at = position[branch_id]
        own = 0 if info.in_cycle(instructions[at]) else 1 << at
        control[at] = _union(runs, dependent) & ~own

    return DependencyGraph(
        reachability=info,
        instructions=instructions,
        rows={
            DependencyKind.DATA: data,
            DependencyKind.ANTI: anti,
            DependencyKind.CONTROL: control,
            DependencyKind.OUTPUT_COMMIT: commit,
        },
    )


@per_shape
def dependency_graph(function: Function) -> DependencyGraph:
    """The graph of ``function``, built once per shape of it and kept by
    it — for the source function, whose graph the partitioner, the
    projection and the partition verifier all read."""
    return build_dependency_graph(function)
