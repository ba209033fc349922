"""The partitioning driver (paper §4.2.2).

Order of operations follows the paper:

1. run the label-removing algorithm (expressiveness + dependencies only),
2. constraint 2 — prune pre/post labels past the pipeline-depth distance,
3. constraint 1 — evict switch state (in reverse/forward program order)
   until the table memory fits,
4. constraint 3 — exhaustive per-state placement search keeping at most
   one offloaded access site per global state,
5. constraints 4 & 5 — greedily move boundary statements to the server
   until the scratchpad and shim budgets fit,
6. project the three partition CFGs, compute transfer sets and state
   placements, and return the :class:`PartitionPlan`.

Every refinement step re-runs the label rules, as the paper prescribes
("Each time a statement is moved, Gallium runs the label-removing algorithm
to ensure that the dependency constraints are met").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.depgraph import DependencyGraph, dependency_graph
from repro.analysis.distance import dependency_distances
from repro.ir import instructions as irin
from repro.ir.function import Function
from repro.ir.lowering import LoweredMiddlebox, StateMember
from repro.partition.constraints import (
    ConstraintReport,
    PartitionError,
    PipelineUsage,
    SwitchResources,
    allocate_metadata,
    co_reachable,
    entry_bytes,
    measure_pipeline,
)
from repro.partition.labels import (
    LabelAssignment,
    Partition,
    run_label_removal,
    set_bits,
)
from repro.partition.plan import (
    PartitionPlan,
    PlacementKind,
    StatePlacement,
    TransferSpec,
)
from repro.partition.projection import (
    NEEDS_SERVER,
    Boundary,
    ProjectionStatics,
    project_partition,
)


_MAX_ENUM_SITES = 8

#: Table size assumed for an offloaded map with no size annotation: none —
#: the paper requires the developer's annotation before a map can be
#: offloaded.
DEFAULT_MAP_ENTRIES: Optional[int] = None
#: Table size assumed for an offloaded read-only vector with no annotation.
DEFAULT_VECTOR_ENTRIES = 1024


def partition_middlebox(
    lowered: LoweredMiddlebox,
    limits: Optional[SwitchResources] = None,
) -> PartitionPlan:
    limits = limits or SwitchResources.tofino_like()
    graph = dependency_graph(lowered.process)
    assignment = run_label_removal(graph, 0, 0)

    # -- constraint 2: pipeline depth ------------------------------------
    from_entry, to_exit = dependency_distances(graph)
    masks = _Masks(lowered, graph, from_entry, to_exit)
    depth = limits.pipeline_depth
    too_far_pre = too_far_post = 0
    for at, inst in enumerate(graph.instructions):
        if from_entry[inst.id] > depth:
            too_far_pre |= 1 << at
        if to_exit[inst.id] > depth:
            too_far_post |= 1 << at
    if too_far_pre | too_far_post:
        assignment = _pin(assignment, too_far_pre, too_far_post)

    # -- constraint 1: switch memory ---------------------------------------
    assignment = _enforce_memory(lowered, masks, assignment, limits)

    # -- constraint 3: one offloaded access site per global state -----------
    assignment = _enforce_single_access(lowered, masks, assignment)

    # -- one-directional replication: state written on the switch must not
    # also be accessed on the server (write-back only flows server->switch,
    # so a server access would observe a stale copy) -------------------------
    assignment = _enforce_write_locality(masks, assignment)

    # -- constraints 4 & 5: metadata + shim budgets -------------------------
    # Budget refinement can move a state access to the server, which may
    # strand an offloaded write of the same state; re-check write locality
    # until both are stable (each pin strictly shrinks the offloaded set).
    while True:
        assignment, projections, transfers, measured = _enforce_budgets(
            lowered, masks, assignment, limits
        )
        stranded = _stranded_writers(masks, assignment)
        if not stranded:
            break
        assignment = _pin(assignment, stranded, stranded)

    pre, non_offloaded, post = projections
    to_server, to_switch = transfers
    placements = _derive_placements(lowered, masks, assignment)
    report = _report(
        lowered, masks, assignment, placements, measured, *transfers
    )
    violations = report.violations(limits)
    if violations:
        raise PartitionError(
            f"{lowered.name}: partitioning left violations: {violations}"
        )
    return PartitionPlan(
        middlebox=lowered,
        limits=limits,
        assignment=assignment.assignment(),
        pre=pre,
        non_offloaded=non_offloaded,
        post=post,
        to_server=to_server,
        to_switch=to_switch,
        placements=placements,
        report=report,
        needs_server_reg=NEEDS_SERVER,
    )


class _Masks:
    """What the refinement passes ask of an instruction, as bitsets over
    ``graph.position`` (program order), built once per source function."""

    def __init__(
        self,
        lowered: LoweredMiddlebox,
        graph: DependencyGraph,
        from_entry: Dict[int, int],
        to_exit: Dict[int, int],
    ):
        self.graph = graph
        state = lowered.state
        #: state member -> the instructions accessing it as data / reading
        #: it / writing it
        self.accessors = dict.fromkeys(state, 0)
        self.readers = dict.fromkeys(state, 0)
        self.writers = dict.fromkeys(state, 0)
        #: instructions accessing any global state as data
        self.stateful = 0
        self.verdicts = self.branches = self.jumps = 0
        for at, inst in enumerate(graph.instructions):
            bit = 1 << at
            accesses = inst.global_state_accesses()
            if accesses:
                self.stateful |= bit
            for loc in accesses:
                if loc.name in state:
                    self.accessors[loc.name] |= bit
            for locations, members in (
                (inst.reads(), self.readers), (inst.writes(), self.writers)
            ):
                for loc in locations:
                    if loc.is_global and loc.name in state:
                        members[loc.name] |= bit
            if inst.is_verdict:
                self.verdicts |= bit
            if isinstance(inst, irin.Branch):
                self.branches |= bit
            if isinstance(inst, (irin.Jump, irin.Return)):
                self.jumps |= bit
        #: positions farthest from the entry / exit first, program order
        #: among equals: where the budget search looks for its next move
        self.pre_order = self._by_distance(from_entry)
        self.post_order = self._by_distance(to_exit)

    def _by_distance(self, distance: Dict[int, int]) -> List[int]:
        far = [-distance[inst.id] for inst in self.graph.instructions]
        return sorted(range(len(far)), key=far.__getitem__)

    def instructions(self, mask: int) -> List[irin.Instruction]:
        """The instructions of ``mask``, in program order."""
        return [self.graph.instructions[at] for at in set_bits(mask)]


def _pin(assignment: LabelAssignment, pre: int, post: int) -> LabelAssignment:
    """Re-run the label rules with ``pre`` / ``post`` pinned away as well."""
    return run_label_removal(
        assignment.graph,
        assignment.pinned_pre | pre,
        assignment.pinned_post | post,
    )


# ---------------------------------------------------------------------------
# Constraint 1 — switch memory
# ---------------------------------------------------------------------------


def _state_entries(member: StateMember) -> Optional[int]:
    """Capacity for switch accounting; None = cannot be placed on switch."""
    if member.kind == "scalar":
        return 1
    if member.max_entries is not None:
        return member.max_entries
    return DEFAULT_MAP_ENTRIES if member.kind == "map" else DEFAULT_VECTOR_ENTRIES


def _switch_states(masks: _Masks, assignment: LabelAssignment) -> Dict[str, int]:
    """Global states with at least one offloaded access site -> those sites."""
    offloaded = assignment.offloaded
    return {
        name: accessors & offloaded
        for name, accessors in masks.accessors.items()
        if accessors & offloaded
    }


def _memory_usage(lowered: LoweredMiddlebox, states: Dict[str, int]) -> int:
    total = 0
    for name in states:
        member = lowered.state[name]
        entries = _state_entries(member)
        if entries is None:
            continue  # handled by the annotation pinning pass
        total += entries * entry_bytes(member.field_widths())
    return total


def _enforce_memory(
    lowered: LoweredMiddlebox,
    masks: _Masks,
    assignment: LabelAssignment,
    limits: SwitchResources,
) -> LabelAssignment:
    # First pin away accesses to maps that carry no size annotation: the
    # paper requires the developer annotation before a map can be offloaded.
    unsized = 0
    for name, member in lowered.state.items():
        if _state_entries(member) is None:
            unsized |= masks.accessors[name]
    if unsized & ~(assignment.pinned_pre & assignment.pinned_post):
        assignment = _pin(assignment, unsized, unsized)

    # Evict state until memory fits: remove "pre" labels in reverse program
    # order and "post" labels in program order (paper §4.2.2).
    while (
        _memory_usage(lowered, _switch_states(masks, assignment))
        > limits.memory_bytes
    ):
        pre = assignment.members(Partition.PRE) & masks.stateful
        post = assignment.members(Partition.POST) & masks.stateful
        if pre:
            assignment = _pin(assignment, 1 << (pre.bit_length() - 1), 0)
        elif post:
            assignment = _pin(assignment, 0, post & -post)
        else:
            break  # nothing left on the switch
    return assignment


# ---------------------------------------------------------------------------
# Constraint 3 — single offloaded access site per state
# ---------------------------------------------------------------------------


def _enforce_single_access(
    lowered: LoweredMiddlebox,
    masks: _Masks,
    assignment: LabelAssignment,
) -> LabelAssignment:
    while True:
        sites = _find_multi_access_state(lowered, masks, assignment)
        if sites is None:
            return assignment
        if len(sites) > _MAX_ENUM_SITES:
            # Far too many sites to enumerate: keep the first site only.
            keep_options = sites[:1]
        else:
            keep_options = sites
        every_site = sum(sites)
        best_trial = assignment
        best_count = -1
        for keep in keep_options:
            # A trial pins both labels on every other site.
            others = every_site & ~keep
            trial = _pin(assignment, others, others)
            count = _placement_score(masks, trial)
            if count > best_count:
                best_count = count
                best_trial = trial
        assignment = best_trial


def _stranded_writers(masks: _Masks, assignment: LabelAssignment) -> int:
    """Offloaded writes of server-accessed state, to be pinned to the server.

    State replication is one-directional: the server's write journal is
    folded into switch tables/registers, but a switch-side write (a
    ``RegisterRMW`` in an offloaded partition) never flows back into the
    server's ``StateStore``.  If the server also reads or writes that
    state, it would observe a stale copy — so any state member with both
    an offloaded write site and a non-offloaded access site must have its
    offloaded write sites moved to the server.
    """
    server = assignment.members(Partition.NON_OFF)
    stranded = 0
    for name, writers in masks.writers.items():
        if (writers | masks.readers[name]) & server:
            stranded |= writers & ~server
    return stranded


def _enforce_write_locality(
    masks: _Masks, assignment: LabelAssignment
) -> LabelAssignment:
    """Fixpoint of :func:`_stranded_writers`.

    Pinning a write site turns it into a server access site, which can in
    turn strand another offloaded writer of the same state, so iterate;
    the offloaded set shrinks monotonically, guaranteeing termination.
    """
    stranded = _stranded_writers(masks, assignment)
    while stranded:
        assignment = _pin(assignment, stranded, stranded)
        stranded = _stranded_writers(masks, assignment)
    return assignment


def _placement_score(masks: _Masks, trial: LabelAssignment) -> int:
    """Objective for the constraint-3 placement search.

    The paper maximizes the number of offloaded statements and notes (§7)
    that this pure count can pick sub-optimal placements because it values
    an integer addition as much as a table lookup.  We keep the statement
    count but weight offloaded *verdicts* heavily: a verdict on the switch
    is what creates a fast path (packets complete without the server), and
    that dominates any constant number of offloaded ALU ops.  A verdict in
    the PRE partition — the fast path itself — counts 10, any other
    offloaded statement 1.
    """
    fast_path = trial.members(Partition.PRE) & masks.verdicts
    return trial.offloaded.bit_count() + 9 * fast_path.bit_count()


def _find_multi_access_state(
    lowered: LoweredMiddlebox,
    masks: _Masks,
    assignment: LabelAssignment,
) -> Optional[List[int]]:
    """The offloaded access sites (one bit each) of a state that violates
    constraint 3.

    *Registers* (scalar globals) collide only where two sites are
    co-reachable (:func:`co_reachable`).  *Tables* (maps/vectors) follow the
    paper strictly: a match-action table can be applied only once in the
    pipeline, so at most one access site may stay on the switch regardless
    of path exclusivity.
    """
    states = _switch_states(masks, assignment)
    for name in sorted(states):
        sites = states[name]
        if not sites & (sites - 1):
            continue  # a single site
        if lowered.state[name].kind != "scalar":
            return [1 << at for at in set_bits(sites)]
        collision = co_reachable(
            masks.graph.reachability, masks.instructions(sites)
        )
        if collision is not None:
            position = masks.graph.position
            return [1 << position[inst.id] for inst in collision]
    return None


# ---------------------------------------------------------------------------
# Constraints 4 & 5 — scratchpad metadata and shim transfer budgets
# ---------------------------------------------------------------------------


class _Side:
    """One partition across the budget search.

    What its projection needs and defines (its :class:`Boundary`) is a pure
    function of which instructions are its own and which are earlier — for
    a switch pipeline, of its member set alone: a post-side move cannot
    change the pre pipeline — so an iteration that left those alone reuses
    the boundary and, where one was built, the projection (which keeps
    its measured usage).  Only the boundary is needed to size a shim; the
    projection is built when a pipeline must be measured, or the plan is
    accepted.
    """

    def __init__(self, statics: ProjectionStatics, partition: Partition):
        self._statics = statics
        self._partition = partition
        self._key: Optional[Tuple[int, int]] = None
        self._function: Optional[Function] = None
        self.boundary: Boundary

    def decide(self, assignment: LabelAssignment) -> Boundary:
        key = (
            assignment.members(self._partition),
            assignment.through(self._partition),
        )
        if key != self._key:
            self.boundary = self._statics.decide(assignment, self._partition)
            self._key = key
            self._function = None
        return self.boundary

    def function(self) -> Function:
        if self._function is None:
            self._function = project_partition(self._statics, self.boundary)
        return self._function

    def over_budget(
        self, transfer: TransferSpec, limits: SwitchResources
    ) -> Tuple[bool, Optional[Tuple[PipelineUsage, int]]]:
        """Does this pipeline break constraint 5, 2 or 4?  Also returns
        its measured usage and metadata bytes — its allocation with
        ``transfer`` held to pre's exit or from post's entry — unless the
        shim (the cheap test: measuring builds the projection and its
        graph) or the depth (only a pipeline that fits has a stage order
        to allocate) decided."""
        if transfer.byte_size() > limits.transfer_bytes:
            return True, None
        function = self.function()
        usage = measure_pipeline(function)
        if usage.depth > limits.pipeline_depth:
            return True, None
        held, pre = transfer.names(), self._partition is Partition.PRE
        metadata = allocate_metadata(
            function, () if pre else held, held if pre else ()
        ).total_bytes
        return metadata > limits.metadata_bytes, (usage, metadata)


def _build_transfers(
    statics: ProjectionStatics, pre: Boundary, non_off: Boundary, post: Boundary
) -> Tuple[TransferSpec, TransferSpec]:
    """Shim contents from the projections' unsatisfied uses.

    A projection's *needs* are exactly the values it must get from earlier
    partitions (local rematerialization already removed everything the
    partition can recompute itself).  A value the post partition needs
    but the server partition does not still flows through the server, so it
    appears in both shims.
    """
    to_server = (
        non_off.needs & pre.defs | post.needs & pre.defs & ~non_off.defs
    )
    to_switch = post.needs & (pre.defs | non_off.defs)
    return (
        TransferSpec(statics.registers(to_server)),
        TransferSpec(statics.registers(to_switch)),
    )


def _enforce_budgets(
    lowered: LoweredMiddlebox,
    masks: _Masks,
    assignment: LabelAssignment,
    limits: SwitchResources,
):
    """Greedy boundary movement (paper's single linear scan, generalized).

    While a budget is violated, move the offloaded instruction nearest the
    violated boundary (deepest dependency distance) to the server and
    re-run the label rules.  Terminates: each move strictly shrinks the
    offloaded set, and the all-server partitioning satisfies everything.

    Constraint 5 is read off the source function (:class:`_Side`);
    constraints 2 and 4 are measured on the projections — the pipelines
    the switch runs — so remat-induced chains count.  Returns the three
    projections, the transfer sets and each side's measured usage and
    metadata bytes of the accepted iteration with the assignment.
    """
    statics = ProjectionStatics.of(lowered.process)
    pre_side, _, post_side = sides = [
        _Side(statics, partition) for partition in Partition
    ]
    while True:
        to_server, to_switch = _build_transfers(
            statics, *(side.decide(assignment) for side in sides)
        )
        over_pre, measured_pre = pre_side.over_budget(to_server, limits)
        over_post, measured_post = post_side.over_budget(to_switch, limits)
        if not over_pre and not over_post:
            return (
                assignment,
                tuple(side.function() for side in sides),
                (to_server, to_switch),
                (measured_pre, measured_post),
            )
        if over_pre and (moved := _deepest(
            masks, masks.pre_order, assignment.members(Partition.PRE)
        )):
            assignment = _pin(assignment, moved, 0)
        elif over_post and (moved := _deepest(
            masks, masks.post_order, assignment.members(Partition.POST)
        )):
            assignment = _pin(assignment, 0, moved)
        else:
            # Nothing left to move yet a budget is still violated — the
            # projections are effectively empty, so this cannot happen
            # unless the limits are inconsistent.
            raise PartitionError(
                f"{lowered.name}: cannot satisfy metadata/transfer budgets"
            )


def _deepest(masks: _Masks, order: List[int], members: int) -> int:
    """The offloaded instruction farthest along the dependency order
    (closest to the partition boundary), as a bit; 0 if there is none.

    Prefers compute/state instructions (moving control flow alone rarely
    frees budget), but falls back to branches and verdicts when nothing
    else is left — the all-server partition trivially satisfies every
    budget, so the refinement loop must always be able to make progress.
    """
    movable = members & ~masks.jumps
    control = masks.verdicts | masks.branches
    for candidates in (movable & ~control, movable & control):
        for at in order:
            if candidates >> at & 1:
                return 1 << at
    return 0


# ---------------------------------------------------------------------------
# Placement + the final report
# ---------------------------------------------------------------------------


def _derive_placements(
    lowered: LoweredMiddlebox,
    masks: _Masks,
    assignment: LabelAssignment,
) -> Dict[str, StatePlacement]:
    placements: Dict[str, StatePlacement] = {}
    switch_states = _switch_states(masks, assignment)
    server = assignment.members(Partition.NON_OFF)
    for name, member in lowered.state.items():
        if name not in switch_states:
            placements[name] = StatePlacement(member, PlacementKind.SERVER_ONLY)
            continue
        written_on_server = bool(masks.writers[name] & server)
        entries = _state_entries(member) or 0
        memory = entries * entry_bytes(member.field_widths())
        if member.kind == "scalar":
            kind = (
                PlacementKind.REPLICATED_REGISTER
                if written_on_server
                else PlacementKind.SWITCH_REGISTER
            )
        else:
            kind = (
                PlacementKind.REPLICATED_TABLE
                if written_on_server
                else PlacementKind.SWITCH_TABLE
            )
        placements[name] = StatePlacement(member, kind, entries, memory)
    return placements


def _report(
    lowered: LoweredMiddlebox,
    masks: _Masks,
    assignment: LabelAssignment,
    placements: Dict[str, StatePlacement],
    measured: Tuple[Tuple[PipelineUsage, int], Tuple[PipelineUsage, int]],
    to_server: TransferSpec,
    to_switch: TransferSpec,
) -> ConstraintReport:
    (usage_pre, metadata_pre), (usage_post, metadata_post) = measured
    # Constraint 3 is a question about the *source* function's assignment:
    # register reads on mutually exclusive paths share a stage; table
    # applications never do (Tofino applies a table at most once).
    sites: Dict[str, int] = {}
    for name, mask in _switch_states(masks, assignment).items():
        if lowered.state[name].kind != "scalar":
            sites[name] = mask.bit_count()
        else:
            sites[name] = 2 if co_reachable(
                masks.graph.reachability, masks.instructions(mask)
            ) else 1
    return ConstraintReport(
        memory_bytes=sum(p.memory_bytes for p in placements.values()),
        pipeline_depth_pre=usage_pre.depth,
        pipeline_depth_post=usage_post.depth,
        metadata_bytes_pre=metadata_pre,
        metadata_bytes_post=metadata_post,
        transfer_bytes_to_server=to_server.byte_size(),
        transfer_bytes_to_switch=to_switch.byte_size(),
        state_access_sites=sites,
    )
