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

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.depgraph import DependencyGraph, dependency_graph
from repro.analysis.distance import dependency_distances
from repro.ir import instructions as irin
from repro.ir.function import Function
from repro.ir.lowering import LoweredMiddlebox, StateMember
from repro.partition.constraints import (
    ConstraintReport,
    PipelineUsage,
    SwitchResources,
    co_reachable,
    measure_pipeline,
)
from repro.partition.labels import (
    Label,
    LabelAssignment,
    Partition,
    run_label_removal,
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


class PartitionError(Exception):
    """Raised when no feasible partitioning exists (should not happen:
    all-server is always feasible; this signals an internal bug or an
    unannotated structure the caller must fix)."""


_OFFLOAD_LABELS = {Label.PRE, Label.POST}
_MAX_ENUM_SITES = 8


def partition_middlebox(
    lowered: LoweredMiddlebox,
    limits: Optional[SwitchResources] = None,
) -> PartitionPlan:
    limits = limits or SwitchResources.tofino_like()
    graph = dependency_graph(lowered.process)
    removed: Dict[int, Set[Label]] = {}

    assignment = run_label_removal(graph, removed)

    # -- constraint 2: pipeline depth ------------------------------------
    from_entry, to_exit = dependency_distances(graph)
    depth = limits.pipeline_depth
    changed = False
    for inst in graph.instructions:
        if from_entry[inst.id] > depth:
            removed.setdefault(inst.id, set()).add(Label.PRE)
            changed = True
        if to_exit[inst.id] > depth:
            removed.setdefault(inst.id, set()).add(Label.POST)
            changed = True
    if changed:
        assignment = run_label_removal(graph, removed)

    # -- constraint 1: switch memory ---------------------------------------
    assignment = _enforce_memory(lowered, graph, removed, assignment, limits)

    # -- constraint 3: one offloaded access site per global state -----------
    assignment = _enforce_single_access(lowered, graph, removed, assignment)

    # -- one-directional replication: state written on the switch must not
    # also be accessed on the server (write-back only flows server->switch,
    # so a server access would observe a stale copy) -------------------------
    assignment = _enforce_write_locality(lowered, graph, removed, assignment)

    # -- constraints 4 & 5: metadata + shim budgets -------------------------
    # Budget refinement can move a state access to the server, which may
    # strand an offloaded write of the same state; re-check write locality
    # until both are stable (each pin strictly shrinks the offloaded set).
    while True:
        assignment, projections, transfers, usage = _enforce_budgets(
            lowered, graph, removed, assignment, limits, from_entry, to_exit
        )
        if not _pin_stranded_offloaded_writers(lowered, graph, removed, assignment):
            break
        assignment = run_label_removal(graph, removed)

    pre, non_offloaded, post = projections
    to_server, to_switch = transfers
    placements = _derive_placements(lowered, graph, assignment, limits)
    report = _report(
        lowered, graph, assignment, placements, usage, to_server, to_switch
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


# ---------------------------------------------------------------------------
# Constraint 1 — switch memory
# ---------------------------------------------------------------------------


def _state_entries(member: StateMember, limits: SwitchResources) -> Optional[int]:
    """Capacity for switch accounting; None = cannot be placed on switch."""
    if member.kind == "map":
        if member.max_entries is not None:
            return member.max_entries
        return limits.default_map_entries
    if member.kind == "vector":
        if member.max_entries is not None:
            return member.max_entries
        return limits.default_vector_entries
    return 1


def _switch_states(
    lowered: LoweredMiddlebox,
    graph: DependencyGraph,
    assignment: LabelAssignment,
) -> Dict[str, List[irin.Instruction]]:
    """Global states with at least one offloaded access site."""
    out: Dict[str, List[irin.Instruction]] = {}
    for inst in graph.instructions:
        if assignment.partition_of(inst) is Partition.NON_OFF:
            continue
        for loc in inst.global_state_accesses():
            if loc.name in lowered.state:
                out.setdefault(loc.name, []).append(inst)
    return out


def _memory_usage(
    lowered: LoweredMiddlebox,
    states: Dict[str, List[irin.Instruction]],
    limits: SwitchResources,
) -> int:
    total = 0
    for name in states:
        member = lowered.state[name]
        entries = _state_entries(member, limits)
        if entries is None:
            continue  # handled by the annotation pinning pass
        total += entries * member.byte_cost_per_entry()
    return total


def _enforce_memory(
    lowered: LoweredMiddlebox,
    graph: DependencyGraph,
    removed: Dict[int, Set[Label]],
    assignment: LabelAssignment,
    limits: SwitchResources,
) -> LabelAssignment:
    # First pin away accesses to maps that carry no size annotation: the
    # paper requires the developer annotation before a map can be offloaded.
    changed = False
    for inst in graph.instructions:
        for loc in inst.global_state_accesses():
            member = lowered.state.get(loc.name)
            if member is None:
                continue
            if _state_entries(member, limits) is None:
                if removed.setdefault(inst.id, set()) >= _OFFLOAD_LABELS:
                    continue
                removed[inst.id] |= _OFFLOAD_LABELS
                changed = True
    if changed:
        assignment = run_label_removal(graph, removed)

    # Evict state until memory fits: remove "pre" labels in reverse program
    # order and "post" labels in program order (paper §4.2.2).
    program_order = list(lowered.process.instructions())
    while True:
        states = _switch_states(lowered, graph, assignment)
        if _memory_usage(lowered, states, limits) <= limits.memory_bytes:
            return assignment
        evicted = False
        for inst in reversed(program_order):
            if (
                assignment.partition_of(inst) is Partition.PRE
                and inst.global_state_accesses()
            ):
                removed.setdefault(inst.id, set()).add(Label.PRE)
                evicted = True
                break
        if not evicted:
            for inst in program_order:
                if (
                    assignment.partition_of(inst) is Partition.POST
                    and inst.global_state_accesses()
                ):
                    removed.setdefault(inst.id, set()).add(Label.POST)
                    evicted = True
                    break
        if not evicted:
            return assignment  # nothing left on the switch
        assignment = run_label_removal(graph, removed)


# ---------------------------------------------------------------------------
# Constraint 3 — single offloaded access site per state
# ---------------------------------------------------------------------------


def _enforce_single_access(
    lowered: LoweredMiddlebox,
    graph: DependencyGraph,
    removed: Dict[int, Set[Label]],
    assignment: LabelAssignment,
) -> LabelAssignment:
    while True:
        conflict = _find_multi_access_state(lowered, graph, assignment)
        if conflict is None:
            return assignment
        state_name, sites = conflict
        if len(sites) > _MAX_ENUM_SITES:
            # Far too many sites to enumerate: keep the first site only.
            keep_options = [sites[0]]
        else:
            keep_options = sites
        best_choice = None
        best_trial = None
        best_count = -1
        for keep in keep_options:
            # A trial pins both labels, so whatever a site had pinned
            # already is covered: overlay, do not copy.
            trial_removed = {
                **removed,
                **{
                    site.id: _OFFLOAD_LABELS
                    for site in sites
                    if site.id != keep.id
                },
            }
            trial = run_label_removal(graph, trial_removed)
            count = _placement_score(graph, trial)
            if count > best_count:
                best_count = count
                best_choice = keep
                best_trial = trial
        for site in sites:
            if site.id != best_choice.id:
                removed.setdefault(site.id, set()).update(_OFFLOAD_LABELS)
        # ``removed`` now equals the winning trial's pins.
        assignment = best_trial


def _pin_stranded_offloaded_writers(
    lowered: LoweredMiddlebox,
    graph: DependencyGraph,
    removed: Dict[int, Set[Label]],
    assignment: LabelAssignment,
) -> bool:
    """Pin offloaded writes of server-accessed state to the server.

    State replication is one-directional: the server's write journal is
    folded into switch tables/registers, but a switch-side write (a
    ``RegisterRMW`` in an offloaded partition) never flows back into the
    server's ``StateStore``.  If the server also reads or writes that
    state, it would observe a stale copy — so any state member with both
    an offloaded write site and a non-offloaded access site must have its
    offloaded write sites moved to the server.  Returns True if anything
    was pinned (caller re-runs label removal).
    """
    offloaded_writers: Dict[str, List[irin.Instruction]] = {}
    server_accessed: Set[str] = set()
    for inst in graph.instructions:
        partition = assignment.partition_of(inst)
        for loc in inst.writes():
            if loc.is_global and loc.name in lowered.state:
                if partition is Partition.NON_OFF:
                    server_accessed.add(loc.name)
                else:
                    offloaded_writers.setdefault(loc.name, []).append(inst)
        if partition is Partition.NON_OFF:
            for loc in inst.reads():
                if loc.is_global and loc.name in lowered.state:
                    server_accessed.add(loc.name)
    pinned = False
    for name, writers in offloaded_writers.items():
        if name not in server_accessed:
            continue
        for inst in writers:
            removed.setdefault(inst.id, set()).update(_OFFLOAD_LABELS)
            pinned = True
    return pinned


def _enforce_write_locality(
    lowered: LoweredMiddlebox,
    graph: DependencyGraph,
    removed: Dict[int, Set[Label]],
    assignment: LabelAssignment,
) -> LabelAssignment:
    """Fixpoint of :func:`_pin_stranded_offloaded_writers`.

    Pinning a write site turns it into a server access site, which can in
    turn strand another offloaded writer of the same state, so iterate;
    the offloaded set shrinks monotonically, guaranteeing termination.
    """
    while _pin_stranded_offloaded_writers(lowered, graph, removed, assignment):
        assignment = run_label_removal(graph, removed)
    return assignment


def _placement_score(graph: DependencyGraph, trial: LabelAssignment) -> int:
    """Objective for the constraint-3 placement search.

    The paper maximizes the number of offloaded statements and notes (§7)
    that this pure count can pick sub-optimal placements because it values
    an integer addition as much as a table lookup.  We keep the statement
    count but weight offloaded *verdicts* heavily: a verdict on the switch
    is what creates a fast path (packets complete without the server), and
    that dominates any constant number of offloaded ALU ops.
    """
    score = 0
    for inst in graph.instructions:
        partition = trial.partition_of(inst)
        if partition is Partition.NON_OFF:
            continue
        # A verdict in the PRE partition completes packets on the switch
        # without any server involvement — that is the fast path itself.
        if inst.is_verdict and partition is Partition.PRE:
            score += 10
        else:
            score += 1
    return score


def _find_multi_access_state(
    lowered: LoweredMiddlebox,
    graph: DependencyGraph,
    assignment: LabelAssignment,
) -> Optional[Tuple[str, List[irin.Instruction]]]:
    """Find a state whose offloaded access sites violate constraint 3.

    *Registers* (scalar globals) collide only where two sites are
    co-reachable (:func:`co_reachable`).  *Tables* (maps/vectors) follow the
    paper strictly: a match-action table can be applied only once in the
    pipeline, so at most one access site may stay on the switch regardless
    of path exclusivity.
    """
    states = _switch_states(lowered, graph, assignment)
    for name in sorted(states):
        sites = states[name]
        if len(sites) < 2:
            continue
        if lowered.state[name].kind != "scalar":
            return name, sites
        collision = co_reachable(graph.reachability, sites)
        if collision is not None:
            return name, list(collision)
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
    ) -> Tuple[bool, Optional[PipelineUsage]]:
        """Does this pipeline break constraint 5, 4 or 2?  Also returns
        its measured usage, unless the shim alone decided (the cheap test
        goes first: measuring builds the projection and its dependency
        graph)."""
        if transfer.byte_size() > limits.transfer_bytes:
            return True, None
        usage = measure_pipeline(self.function())
        return (
            usage.metadata_bytes > limits.metadata_bytes
            or usage.depth > limits.pipeline_depth
        ), usage


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
    graph: DependencyGraph,
    removed: Dict[int, Set[Label]],
    assignment: LabelAssignment,
    limits: SwitchResources,
    from_entry: Dict[int, int],
    to_exit: Dict[int, int],
):
    """Greedy boundary movement (paper's single linear scan, generalized).

    While a budget is violated, move the offloaded instruction nearest the
    violated boundary (deepest dependency distance) to the server and
    re-run the label rules.  Terminates: each move strictly shrinks the
    offloaded set, and the all-server partitioning satisfies everything.

    Constraint 5 is read off the source function (:class:`_Side`);
    constraints 2 and 4 are measured on the projections — the pipelines
    the switch runs — so remat-induced chains count.  Returns the three
    projections, the transfer sets and the :class:`PipelineUsage` pair of
    the accepted iteration with the assignment.
    """
    statics = ProjectionStatics.of(lowered.process)
    pre_side, _, post_side = sides = [
        _Side(statics, partition) for partition in Partition
    ]
    while True:
        to_server, to_switch = _build_transfers(
            statics, *(side.decide(assignment) for side in sides)
        )
        over_pre, usage_pre = pre_side.over_budget(to_server, limits)
        over_post, usage_post = post_side.over_budget(to_switch, limits)
        if not over_pre and not over_post:
            return (
                assignment,
                tuple(side.function() for side in sides),
                (to_server, to_switch),
                (usage_pre, usage_post),
            )
        moved = False
        if over_pre:
            candidate = _deepest(
                graph, assignment, Partition.PRE, from_entry
            )
            if candidate is not None:
                removed.setdefault(candidate.id, set()).add(Label.PRE)
                moved = True
        if over_post and not moved:
            candidate = _deepest(
                graph, assignment, Partition.POST, to_exit
            )
            if candidate is not None:
                removed.setdefault(candidate.id, set()).add(Label.POST)
                moved = True
        if not moved:
            # Nothing left to move yet a budget is still violated — the
            # projections are effectively empty, so this cannot happen
            # unless the limits are inconsistent.
            raise PartitionError(
                f"{lowered.name}: cannot satisfy metadata/transfer budgets"
            )
        assignment = run_label_removal(graph, removed)


def _deepest(
    graph: DependencyGraph,
    assignment: LabelAssignment,
    partition: Partition,
    distance: Dict[int, int],
) -> Optional[irin.Instruction]:
    """The offloaded instruction farthest along the dependency order
    (closest to the partition boundary).

    Prefers compute/state instructions (moving control flow alone rarely
    frees budget), but falls back to branches and verdicts when nothing
    else is left — the all-server partition trivially satisfies every
    budget, so the refinement loop must always be able to make progress.
    """
    best = None
    best_distance = -1
    fallback = None
    fallback_distance = -1
    for inst in graph.instructions:
        if assignment.partition_of(inst) is not partition:
            continue
        if isinstance(inst, (irin.Jump, irin.Return)):
            continue
        inst_distance = distance.get(inst.id, 0)
        if inst.is_verdict or isinstance(inst, irin.Branch):
            if inst_distance > fallback_distance:
                fallback_distance = inst_distance
                fallback = inst
            continue
        if inst_distance > best_distance:
            best_distance = inst_distance
            best = inst
    return best if best is not None else fallback


# ---------------------------------------------------------------------------
# Placement + the final report
# ---------------------------------------------------------------------------


def _derive_placements(
    lowered: LoweredMiddlebox,
    graph: DependencyGraph,
    assignment: LabelAssignment,
    limits: SwitchResources,
) -> Dict[str, StatePlacement]:
    placements: Dict[str, StatePlacement] = {}
    switch_states = _switch_states(lowered, graph, assignment)
    server_writers: Dict[str, bool] = {}
    for inst in graph.instructions:
        if assignment.partition_of(inst) is Partition.NON_OFF:
            for loc in inst.writes():
                if loc.is_global and loc.name in lowered.state:
                    server_writers[loc.name] = True
    for name, member in lowered.state.items():
        on_switch = name in switch_states
        written_on_server = server_writers.get(name, False)
        if not on_switch:
            placements[name] = StatePlacement(member, PlacementKind.SERVER_ONLY)
            continue
        entries = _state_entries(member, limits) or 0
        memory = entries * member.byte_cost_per_entry()
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
    graph: DependencyGraph,
    assignment: LabelAssignment,
    placements: Dict[str, StatePlacement],
    usage: Tuple[PipelineUsage, PipelineUsage],
    to_server: TransferSpec,
    to_switch: TransferSpec,
) -> ConstraintReport:
    usage_pre, usage_post = usage
    # Constraint 3 is a question about the *source* function's assignment:
    # register reads on mutually exclusive paths share a stage; table
    # applications never do (Tofino applies a table at most once).
    sites: Dict[str, int] = {}
    for name, insts in _switch_states(lowered, graph, assignment).items():
        if lowered.state[name].kind != "scalar":
            sites[name] = len(insts)
        else:
            sites[name] = 2 if co_reachable(graph.reachability, insts) else 1
    return ConstraintReport(
        memory_bytes=sum(p.memory_bytes for p in placements.values()),
        pipeline_depth_pre=usage_pre.depth,
        pipeline_depth_post=usage_post.depth,
        metadata_bytes_pre=usage_pre.metadata_bytes,
        metadata_bytes_post=usage_post.metadata_bytes,
        transfer_bytes_to_server=to_server.byte_size(),
        transfer_bytes_to_switch=to_switch.byte_size(),
        state_access_sites=sites,
    )
