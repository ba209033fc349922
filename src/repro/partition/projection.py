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

from repro.analysis.depgraph import dependency_graph
from repro.lang.types import BOOL
from repro.ir import instructions as irin
from repro.ir.function import Function
from repro.ir.values import Const, Reg, aliased_packet_region
from repro.partition.labels import LabelAssignment, Partition, set_bits

NEEDS_SERVER = "__needs_server"

EXIT_BLOCK = "__exit"


def _effectful(inst: irin.Instruction) -> bool:
    """Foreign work that forces the packet through the server."""
    if inst.is_verdict:
        return True
    if isinstance(inst, (irin.Jump, irin.Branch, irin.Return)):
        return False
    for loc in inst.writes():
        if loc.is_global or loc.is_packet:
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

        def mask(registers: List[Reg]) -> int:
            return sum({1 << reg_index[reg.name] for reg in registers})

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
            for inst in block.instructions:
                bit = 1 << position[inst.id]
                rows.append((bit, inst, mask(inst.uses()), mask(inst.defs())))
                if not isinstance(inst, (irin.Jump, irin.Branch, irin.Return)):
                    carried |= bit
                if _effectful(inst):
                    effectful |= bit
                if isinstance(inst, irin.StorePacketField):
                    written_regions.add(aliased_packet_region(inst.region))
                for reg in inst.defs():
                    at = reg_index[reg.name]
                    def_count[at] = def_count.get(at, 0) + 1
                    single_def[at] = inst
            order.append(_Block(
                name, index[name], rows,
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
                for bit, inst, _, _ in order[current].instructions:
                    if not isinstance(inst, irin.Jump):
                        block.region |= bit
                stack.extend(order[current].successors)

        closures = {
            destination: _pure_closures(
                single_def, reg_index, written_regions,
                p4_only=destination is Partition.POST,
            )
            for destination in (Partition.NON_OFF, Partition.POST)
        }
        return cls(
            function.name, function.entry, regs, reg_index, order,
            [order[index[name]] for name in function.blocks],
            carried, effectful, single_def, closures,
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
        for block in self.order:
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
        for at in set_bits(needs):
            closure = closures.get(at)
            if closure is not None and not closure & defined:
                roots |= 1 << at
                whole |= closure
        return roots, whole

    def decide(
        self, assignment: LabelAssignment, partition: Partition
    ) -> Boundary:
        """What projecting onto ``partition`` would keep, need and define.

        The projection's blocks are the source's, so its must-defined
        dataflow runs here over the source blocks along the projection's
        edges (a skipped branch's region holds nothing of the partition and
        drops out as unreachable); the slices land at the entry, so they
        are defined everywhere and leave ``needs − slices`` to the shim.
        """
        members = assignment.members(partition)
        not_later = assignment.through(partition)
        kept = self.kept_branches(members, not_later)
        present = members & self.carried | kept

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
        live = list(set_bits(reachable))  # reverse post-order of the source

        # Per block: registers read before a definition in it, and defined.
        exposed = [0] * len(order)
        defined = [0] * len(order)
        predecessors: List[List[int]] = [[] for _ in order]
        for at in live:
            reads = writes = 0
            for bit, _, uses, defs in order[at].instructions:
                if present & bit:
                    reads |= uses & ~writes
                    writes |= defs
            exposed[at], defined[at] = reads, writes
            for successor in edges[at]:
                predecessors[successor].append(at)

        # Forward must-dataflow to the greatest fixpoint; nothing is
        # defined at the entry, whatever jumps back to it.
        top = (1 << len(self.regs)) - 1
        at_entry = [top] * len(order)
        at_exit = [top] * len(order)
        at_entry[0] = 0
        changed = True
        while changed:
            changed = False
            for at in live:
                if at:
                    incoming = top
                    for predecessor in predecessors[at]:
                        incoming &= at_exit[predecessor]
                    at_entry[at] = incoming
                outgoing = at_entry[at] | defined[at]
                if outgoing != at_exit[at]:
                    at_exit[at] = outgoing
                    changed = True

        needs = defs = 0
        for at in live:
            needs |= exposed[at] & ~at_entry[at]
            defs |= defined[at]
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
        )

    def registers(self, mask: int) -> List[Reg]:
        """The registers of a bitset, sorted by name."""
        return [self.regs[at] for at in set_bits(mask)]


def _pure_closures(
    single_def: Dict[int, irin.Instruction],
    reg_index: Dict[str, int],
    written_regions: set,
    p4_only: bool,
) -> Dict[int, int]:
    """Register -> its slice, for every register with a pure one (the
    static half of :meth:`ProjectionStatics.pure_slice`)."""

    def pure(inst: irin.Instruction) -> bool:
        if p4_only and not inst.p4_supported():
            return False
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
