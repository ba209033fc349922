"""CFG projection: split the program into per-partition CFGs (Figure 4).

Each partition's CFG mirrors the original control structure but contains
only that partition's instructions.  Branches assigned to an *earlier*
partition are kept — their condition values arrive through the shim header
(Figure 5 allocates bits for exactly these).  Branches assigned to a
*later* partition guard no instructions of this partition (the label rules
guarantee dependency order PRE ≤ NON_OFF ≤ POST along every edge), so the
projection skips the whole guarded region by jumping to the branch's
immediate postdominator.

The PRE projection additionally maintains a ``__needs_server`` flag: it is
set whenever the projection skips *effectful* foreign work (global-state
mutation, extern side effect, verdict).  When the PRE program falls off the
end without a verdict, the switch punts the packet to the middlebox server
— the fast-path / slow-path decision of Figure 1.

**Deciding before building.**  What a projection keeps, and so which
registers it needs from earlier partitions and which it defines, is a
question about the *source* function and one bitset, the partition's
members: :meth:`ProjectionStatics.decide` answers it with a dataflow pass
over the source blocks along the edges the projection would have, and
allocates nothing.  :func:`project_partition` builds the ``Function`` from
that same answer, so the budget search of §4.2.2 can reject a move on its
shim bytes without a CFG and build only what it accepts (DESIGN.md,
"What a move costs", has the argument that the two agree).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.depgraph import dependency_graph, set_bits
from repro.lang.types import BOOL
from repro.ir import instructions as irin
from repro.ir.function import Function
from repro.ir.values import Const, Reg, aliased_packet_region
from repro.partition.labels import LabelAssignment, Partition

NEEDS_SERVER = "__needs_server"

EXIT_BLOCK = "__exit"


def _effectful(inst: irin.Instruction) -> bool:
    """Foreign work that forces the packet through the server."""
    if inst.is_verdict:
        return True
    if isinstance(inst, (irin.Jump, irin.Branch, irin.Return)):
        return False
    # Every location is asked, so the work does not depend on the set's
    # order (`make compile-calls` counts it the same on every run).
    if any([loc.is_global or loc.is_packet for loc in inst.facts.writes]):
        return True
    if isinstance(inst, irin.ExternCall) and inst.extra_writes:
        return True
    return False


@dataclass
class _Block:
    """One source block, as far as no assignment can change it."""

    name: str
    #: index in ``ProjectionStatics.order`` (reverse post-order)
    index: int
    #: ``(bit, instruction, used registers, defined registers)`` in order
    instructions: List[Tuple[int, irin.Instruction, int, int]]
    #: the bits of its instructions, and of those but its jumps
    bits: int = 0
    body: int = 0
    #: successors in the source CFG
    successors: Tuple[int, ...] = ()
    terminator: Optional[irin.Terminator] = None
    #: for a block ending in a ``Branch``: the branch's bit, where a
    #: projection that skips it jumps (its immediate postdominator; empty
    #: when that is the exit), and every instruction but the jumps of the
    #: region it guards (the blocks between it and that join)
    branch: int = 0
    skip: Tuple[int, ...] = ()
    region: int = 0


@dataclass(frozen=True)
class Boundary:
    """What one partition's projection keeps, needs and defines.

    Decided on the source function (:meth:`ProjectionStatics.decide`);
    instruction sets are bitsets over ``DependencyGraph.position``, block
    sets over ``ProjectionStatics.order``, register sets over
    ``ProjectionStatics.regs``.
    """

    partition: Partition
    #: the partition's instructions, and those of it and earlier ones
    members: int
    not_later: int
    #: the branches the projection keeps (the others jump to their join)
    kept: int
    #: the source blocks the projection can reach
    reachable: int
    #: needed registers recomputed at the entry instead of shipped
    remat_roots: int
    #: registers read before any definition / defined, the slices included
    needs: int
    defs: int
    #: the must-defined dataflow the decision ran
    flow: "MustDefined"


@dataclass(frozen=True)
class MustDefined:
    """The must-defined dataflow of one decision, over the source blocks
    along the projection's edges: per block (by index in
    ``ProjectionStatics.order``; lists, read and never written once
    made), the registers its present instructions read before defining
    and define, and those defined on every path to its entry and exit.
    A later decision over the same edges starts from it
    (:meth:`ProjectionStatics.decide`)."""

    #: the instructions the projection keeps: members and kept branches
    present: int
    #: the blocks it reaches, in reverse post-order, and its edges
    live: List[int]
    successors: List[Tuple[int, ...]]
    predecessors: List[List[int]]
    exposed: List[int]
    defined: List[int]
    at_entry: List[int]
    at_exit: List[int]
    #: whether every edge runs forward in reverse post-order: then the
    #: dataflow has one fixpoint, not a greatest among several
    acyclic: bool


@dataclass(eq=False)
class ProjectionStatics:
    """What every projection of one source function shares.

    Built once per shape of it (:meth:`of`) and kept by it, so like the
    dependency graph it does not point back at the function: the blocks in
    reverse post-order with their joins and guarded regions,
    per-instruction register bitsets, and the single-definition pure slices
    a destination partition may recompute (see :meth:`pure_slice`).
    """

    #: the source function's name and entry
    name: str
    entry: str
    #: every register the function names, sorted by name (so a register
    #: bitset read lowest bit first is in shim order), and name -> index
    regs: List[Reg]
    reg_index: Dict[str, int]
    #: the blocks, in reverse post-order, and as the source lists them
    order: List[_Block]
    layout: List[_Block]
    #: the instructions a projection takes over as they are when they are
    #: its own: all but ``Jump`` / ``Branch`` / ``Return``
    carried: int
    effectful: int
    #: register -> its defining instruction, where there is exactly one
    single_def: Dict[int, irin.Instruction]
    #: the blocks ending in a branch
    branches: List[_Block]
    #: destination partition -> pure register -> its slice
    closures: Dict[Partition, Dict[int, int]]

    @classmethod
    def of(cls, function: Function) -> "ProjectionStatics":
        statics: ProjectionStatics = function.once(cls.build)
        return statics

    @classmethod
    def build(cls, function: Function) -> "ProjectionStatics":
        graph = dependency_graph(function)
        position = graph.position
        regs = sorted(function.registers().values(), key=lambda reg: reg.name)
        reg_index = {reg.name: at for at, reg in enumerate(regs)}

        def mask(registers: Tuple[Reg, ...]) -> int:
            bits = 0
            for reg in registers:
                bits |= 1 << reg_index[reg.name]
            return bits

        names = function.block_order()
        index = {name: at for at, name in enumerate(names)}
        order: List[_Block] = []
        carried = effectful = 0
        def_count: Dict[int, int] = {}
        single_def: Dict[int, irin.Instruction] = {}
        written_regions = set()
        for name in names:
            block = function.blocks[name]
            rows = []
            bits = body = 0
            for inst in block.instructions:
                bit = 1 << position[inst.id]
                facts = inst.facts
                rows.append((bit, inst, mask(facts.uses), mask(facts.defs)))
                bits |= bit
                if not isinstance(inst, irin.Jump):
                    body |= bit
                if not isinstance(inst, (irin.Jump, irin.Branch, irin.Return)):
                    carried |= bit
                if _effectful(inst):
                    effectful |= bit
                if isinstance(inst, irin.StorePacketField):
                    written_regions.add(aliased_packet_region(inst.region))
                for reg in facts.defs:
                    at = reg_index[reg.name]
                    def_count[at] = def_count.get(at, 0) + 1
                    single_def[at] = inst
            order.append(_Block(
                name, index[name], rows, bits, body,
                tuple(index[s] for s in block.successors() if s in index),
                block.terminator,
            ))
        for at, count in def_count.items():
            if count != 1:
                del single_def[at]

        for block in order:
            if not isinstance(block.terminator, irin.Branch):
                continue
            join = graph.reachability.immediate_postdominator(block.name)
            block.branch = 1 << position[block.terminator.id]
            block.skip = () if join is None else (index[join],)
            seen = set(block.skip)
            stack = list(block.successors)
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                block.region |= order[current].body
                stack.extend(order[current].successors)

        # A switch pipeline recomputes only what it can run: a slice is
        # POST's when no definition in it lacks a P4 form.
        anywhere = _pure_closures(single_def, reg_index, written_regions)
        not_p4 = 0
        for at, inst in single_def.items():
            if not inst.p4_supported():
                not_p4 |= 1 << at
        closures = {
            Partition.NON_OFF: anywhere,
            Partition.POST: {
                at: closure for at, closure in anywhere.items()
                if not closure & not_p4
            },
        }
        return cls(
            function.name, function.entry, regs, reg_index, order,
            [order[index[name]] for name in function.blocks],
            carried, effectful, single_def,
            [block for block in order if block.branch],
            closures,
        )

    # -- the decisions, one definition each -----------------------------------

    def kept_branches(self, members: int, not_later: int) -> int:
        """The branches a projection keeps: those of its own or an earlier
        partition whose guarded region holds something of its own.

        Any other guards no instruction of this partition (always true of a
        later partition's branch, and of a loop whose body lives elsewhere)
        and is skipped to its join, which also keeps foreign loop skeletons
        out of switch pipelines, which cannot loop.
        """
        kept = 0
        for block in self.branches:
            if block.branch & not_later and block.region & members:
                kept |= block.branch
        return kept

    def pure_slice(
        self, destination: Partition, needs: int, defined: int
    ) -> Tuple[int, int]:
        """Recompute pure values locally instead of shipping them in the shim.

        A value the projection needs from an earlier partition can be
        recomputed locally when its defining slice is *pure*: header loads
        of regions the program never rewrites, ALU ops, casts and copies
        over other pure values or constants, each defined exactly once.
        The packet itself carries the header bytes, so re-reading them is
        free — this is what keeps the 5-tuple out of the shim and the
        constraint-5 budget honest (paper §4.3.2's 20-byte budget assumes
        exactly this).

        Table lookups, register reads, externs, and multiply-assigned
        locals stay in the shim: recomputing a lookup would double the
        table access (constraint 3) and multiply-assigned values are
        path-dependent.  Names ``defined`` inside the projection must not
        be re-defined by a slice (and cannot be read at the entry point),
        so any slice touching them is ineligible.

        When the destination partition is a switch pipeline (POST), the
        slice must additionally be P4-expressible — rematerializing a
        multiply or division there would synthesize an instruction the
        switch cannot run (caught by ``SwitchProgram.validate``); such
        values ride the shim instead.

        Returns the needed registers that are recomputed and the registers
        of their whole slices.
        """
        closures = self.closures[destination]
        roots = whole = 0
        while needs:
            low = needs & -needs
            needs ^= low
            closure = closures.get(low.bit_length() - 1)
            if closure is not None and not closure & defined:
                roots |= low
                whole |= closure
        return roots, whole

    def decide(
        self,
        assignment: LabelAssignment,
        partition: Partition,
        previous: Optional[Boundary] = None,
    ) -> Boundary:
        """What projecting onto ``partition`` would keep, need and define.

        The projection's blocks are the source's, so its must-defined
        dataflow runs here over the source blocks along the projection's
        edges (a skipped branch's region holds nothing of the partition and
        drops out as unreachable); the slices land at the entry, so they
        are defined everywhere and leave ``needs − slices`` to the shim.

        ``previous``, the side's last decision, is where the dataflow
        starts when it applies: same kept branches, so the same edges, and
        either no instruction present that was not present then, or no
        cycle among the edges.  Fewer definitions only lower the greatest
        fixpoint, so iterating down from the old one reaches the new one;
        without a cycle the fixpoint is the only one, so any start reaches
        it.  Either way only the blocks whose definitions changed, and
        what their exits reach, are revisited.  Otherwise it is solved
        from the top.
        """
        members = assignment.members(partition)
        not_later = assignment.through(partition)
        kept = self.kept_branches(members, not_later)
        present = members & self.carried | kept
        if (
            previous is not None
            and previous.kept == kept
            and (
                previous.flow.acyclic
                or not present & ~previous.flow.present
            )
        ):
            reachable = previous.reachable
            flow = self._rebased(previous.flow, present)
        else:
            reachable, flow = self._must_defined(kept, present)

        needs = defs = 0
        for at in flow.live:
            needs |= flow.exposed[at] & ~flow.at_entry[at]
            defs |= flow.defined[at]
        roots = whole = 0
        if partition is not Partition.PRE:
            roots, whole = self.pure_slice(partition, needs, defs)
        return Boundary(
            partition=partition,
            members=members,
            not_later=not_later,
            kept=kept,
            reachable=reachable,
            remat_roots=roots,
            needs=needs & ~whole,
            defs=defs | whole,
            flow=flow,
        )

    def _block_flow(self, at: int, present: int) -> Tuple[int, int]:
        """Registers block ``at``'s present instructions read before a
        definition in it, and define."""
        reads = writes = 0
        for bit, _, uses, defs in self.order[at].instructions:
            if present & bit:
                reads |= uses & ~writes
                writes |= defs
        return reads, writes

    def _must_defined(self, kept: int, present: int) -> Tuple[int, MustDefined]:
        """The blocks the projection reaches, and its dataflow solved from
        the top."""
        order = self.order
        edges = [
            block.skip if block.branch & ~kept else block.successors
            for block in order
        ]
        reachable = 0
        stack = [0]
        while stack:
            current = stack.pop()
            if reachable >> current & 1:
                continue
            reachable |= 1 << current
            stack.extend(edges[current])
        # in reverse post-order of the source
        live = [at for at in range(len(order)) if reachable >> at & 1]

        exposed = [0] * len(order)
        defined = [0] * len(order)
        predecessors: List[List[int]] = [[] for _ in order]
        for at in live:
            exposed[at], defined[at] = self._block_flow(at, present)
            for successor in edges[at]:
                predecessors[successor].append(at)

        top = (1 << len(self.regs)) - 1
        at_entry = [top] * len(order)
        at_exit = [top] * len(order)
        at_entry[0] = 0
        acyclic = True
        for at in live:
            for successor in edges[at]:
                if successor <= at:
                    acyclic = False
        flow = MustDefined(
            present, live, edges, predecessors, exposed, defined,
            at_entry, at_exit, acyclic,
        )
        self._settle(flow, live[::-1])
        return reachable, flow

    def _rebased(self, old: MustDefined, present: int) -> MustDefined:
        """``old`` with ``present`` its instructions instead, over the same
        edges: the blocks whose instructions changed, and then what their
        exits reach, re-solved from where ``old`` stood."""
        changed = old.present ^ present
        exposed, defined = list(old.exposed), list(old.defined)
        work = []
        for at in old.live:
            if self.order[at].bits & changed:
                exposed[at], defined[at] = self._block_flow(at, present)
                if defined[at] != old.defined[at]:
                    work.append(at)
        flow = MustDefined(
            present, old.live, old.successors, old.predecessors, exposed,
            defined, list(old.at_entry), list(old.at_exit), old.acyclic,
        )
        self._settle(flow, work)
        return flow

    def _settle(self, flow: MustDefined, work: List[int]) -> None:
        """Take ``flow``, while it is being made, from where it stands down
        to the greatest fixpoint: the blocks of ``work`` (the last first),
        and again every block whose entry a changed exit reaches.  Nothing
        is defined at the entry, whatever jumps back to it."""
        top = (1 << len(self.regs)) - 1
        predecessors, successors = flow.predecessors, flow.successors
        at_entry, at_exit, defined = flow.at_entry, flow.at_exit, flow.defined
        pending = set(work)
        while work:
            at = work.pop()
            pending.discard(at)
            if at:
                incoming = top
                for predecessor in predecessors[at]:
                    incoming &= at_exit[predecessor]
                at_entry[at] = incoming
            outgoing = at_entry[at] | defined[at]
            if outgoing != at_exit[at]:
                at_exit[at] = outgoing
                for successor in successors[at]:
                    if successor not in pending:
                        pending.add(successor)
                        work.append(successor)

    def registers(self, mask: int) -> List[Reg]:
        """The registers of a bitset, sorted by name."""
        regs = self.regs
        found = []
        while mask:
            low = mask & -mask
            mask ^= low
            found.append(regs[low.bit_length() - 1])
        return found


def _pure_closures(
    single_def: Dict[int, irin.Instruction],
    reg_index: Dict[str, int],
    written_regions: set,
) -> Dict[int, int]:
    """Register -> its slice, for every register with a pure one (the
    static half of :meth:`ProjectionStatics.pure_slice`)."""

    def pure(inst: irin.Instruction) -> bool:
        if isinstance(inst, irin.LoadPacketField):
            return aliased_packet_region(
                inst.region
            ) not in written_regions or (
                inst.region == "meta" and inst.field == "ingress_port"
            )
        return isinstance(inst, (irin.Assign, irin.Cast, irin.BinOp, irin.UnOp))

    pure_def = {at: inst for at, inst in single_def.items() if pure(inst)}
    memo: Dict[int, Optional[int]] = {}
    closures = {}
    for at in single_def:
        closure = _closure_of(at, pure_def, reg_index, memo)
        if closure is not None:
            closures[at] = closure
    return closures


def _closure_of(
    at: int,
    pure_def: Dict[int, irin.Instruction],
    reg_index: Dict[str, int],
    memo: Dict[int, Optional[int]],
) -> Optional[int]:
    """The slice of register ``at``: itself and the slices of what its one,
    pure definition reads, or None where one of them has no such
    definition.  (A module-level function: one that recursed through its
    own closure would be a reference cycle holding the statics.)"""
    if at in memo:
        return memo[at]
    memo[at] = None  # break cycles conservatively
    inst = pure_def.get(at)
    if inst is None:
        return None
    closure = 1 << at
    for reg in inst.uses():
        operand = _closure_of(reg_index[reg.name], pure_def, reg_index, memo)
        if operand is None:
            return None
        closure |= operand
    memo[at] = closure
    return closure


def project_partition(statics: ProjectionStatics, boundary: Boundary) -> Function:
    """Build the projection ``boundary`` decided (see module docstring)."""
    partition = boundary.partition
    members, kept = boundary.members, boundary.kept
    projected = Function(
        f"{statics.name}.{partition.name.lower()}", statics.entry
    )
    needs_server = Reg(NEEDS_SERVER, BOOL, is_temp=False)
    # Later partitions' effectful work, which the PRE projection flags.
    flagged = 0
    if partition is Partition.PRE:
        flagged = statics.effectful & ~boundary.not_later

    live = [
        block for block in statics.layout
        if boundary.reachable >> block.index & 1
    ]
    for block in live:
        projected.add_block(block.name)
    projected.add_block(EXIT_BLOCK).append(irin.Return())

    for block in live:
        new_block = projected.blocks[block.name]
        if partition is Partition.PRE and not block.index:
            new_block.append(irin.Assign(needs_server, Const(0, BOOL)))
        flagged_here = False
        rows = block.instructions
        terminator = block.terminator
        for bit, inst, _, _ in rows if terminator is None else rows[:-1]:
            if members & bit:
                new_block.append(inst)
            elif flagged & bit and not flagged_here:
                new_block.append(irin.Assign(needs_server, Const(1, BOOL)))
                flagged_here = True
        if isinstance(terminator, irin.Jump):
            new_block.append(irin.Jump(terminator.target,
                                       stmt_id=terminator.stmt_id))
        elif isinstance(terminator, irin.Branch):
            if kept & block.branch:
                new_block.append(
                    irin.Branch(terminator.cond, terminator.if_true,
                                terminator.if_false,
                                stmt_id=terminator.stmt_id)
                )
            else:
                if flagged & block.region:
                    new_block.append(irin.Assign(needs_server, Const(1, BOOL)))
                new_block.append(irin.Jump(
                    statics.order[block.skip[0]].name if block.skip
                    else EXIT_BLOCK
                ))
        elif terminator is not None and terminator.is_verdict:
            bit = rows[-1][0]
            if members & bit:
                new_block.append(terminator)
            else:
                if flagged & bit and not flagged_here:
                    new_block.append(irin.Assign(needs_server, Const(1, BOOL)))
                new_block.append(irin.Jump(EXIT_BLOCK))
        else:  # a Return, or no terminator at all
            new_block.append(irin.Jump(EXIT_BLOCK))

    _simplify_empty_blocks(projected)
    projected.blocks[projected.entry].instructions[0:0] = _slice_order(
        statics, boundary.remat_roots
    )
    return projected


def _slice_order(
    statics: ProjectionStatics, roots: int
) -> List[irin.Instruction]:
    """The defining instructions of ``roots``' slices, operands first."""
    ordered: List[irin.Instruction] = []
    seen: set = set()
    for root in set_bits(roots):
        _collect_slice(statics, root, seen, ordered)
    return ordered


def _collect_slice(
    statics: ProjectionStatics,
    at: int,
    seen: set,
    ordered: List[irin.Instruction],
) -> None:
    if at in seen:
        return
    seen.add(at)
    inst = statics.single_def[at]
    for reg in inst.uses():
        _collect_slice(statics, statics.reg_index[reg.name], seen, ordered)
    ordered.append(inst)


def _simplify_empty_blocks(function: Function) -> None:
    """Forward jumps through blocks that contain only a Jump."""
    forward: Dict[str, str] = {}
    for name, block in function.blocks.items():
        if name == function.entry:
            continue
        if len(block.instructions) == 1 and isinstance(
            block.instructions[0], irin.Jump
        ):
            forward[name] = block.instructions[0].target

    def resolve(name: str) -> str:
        seen = set()
        while name in forward and name not in seen:
            seen.add(name)
            name = forward[name]
        return name

    for block in function.blocks.values():
        term = block.terminator
        if isinstance(term, irin.Jump):
            target = resolve(term.target)
            if target != term.target:
                block.instructions[-1] = irin.Jump(target, stmt_id=term.stmt_id)
        elif isinstance(term, irin.Branch):
            new_true = resolve(term.if_true)
            new_false = resolve(term.if_false)
            if new_true != term.if_true or new_false != term.if_false:
                block.instructions[-1] = irin.Branch(
                    term.cond, new_true, new_false, stmt_id=term.stmt_id
                )
    function.prune_unreachable()
