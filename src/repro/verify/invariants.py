"""Stage 2 — partition invariants (codes PART001-PART006).

Statically re-proves the three Gallium properties the dynamic oracles only
observe:

* **Write locality** (PART001/PART002, paper §4.3.3): state replication is
  one-directional (server journal folds into switch tables; switch-side
  writes never flow back), so a state element written in an offloaded
  partition must have *all* of its accesses offloaded.
* **Run-to-completion** (PART003, §4.2.1 rules 1-2): every dependency edge
  must respect partition phase order PRE ≤ NON_OFF ≤ POST — no def-use edge
  may flow from a later partition back into an earlier one.
* **Boundary liveness within budget** (PART004/PART005, §4.3.2): every
  value a projection reads from an earlier partition must appear in the
  generated shim header, and each direction's header must fit the
  constraint-5 transfer budget plus the verdict/port plumbing allowance
  (:func:`shim_budget`, which ``SwitchProgram.validate`` raises from too).

PART006 is the cached-deployment precondition (`CachedGalliumMiddlebox`
rejects switch pipelines that RMW registers); it is only emitted when the
caller asks for ``cache_mode`` so ordinary compilations of RMW-offloading
programs stay clean.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.depgraph import dependency_graph, set_bits
from repro.codegen.headers import ShimLayout
from repro.ir import instructions as irin
from repro.ir.validate import unsatisfied_uses
from repro.partition.constraints import SwitchResources
from repro.partition.labels import Partition
from repro.partition.plan import PartitionPlan

from repro.verify.diagnostics import Diagnostic, STAGE_PARTITION, error


def verify_partition(
    plan: PartitionPlan,
    shim_to_server: ShimLayout,
    shim_to_switch: ShimLayout,
    cache_mode: bool = False,
) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    out.extend(_check_write_locality(plan))
    out.extend(_check_run_to_completion(plan))
    out.extend(_check_boundary_liveness(plan, shim_to_server, shim_to_switch))
    for layout in (shim_to_server, shim_to_switch):
        out.extend(
            shim_budget(plan.limits, layout, plan.middlebox.process.name)
        )
    if cache_mode:
        out.extend(_check_cache_compatibility(plan))
    return out


def _partition_of(plan: PartitionPlan, inst: irin.Instruction) -> Partition:
    # Projection treats unassigned instructions as server-side; mirror that.
    return plan.assignment.get(inst.id, Partition.NON_OFF)


def _check_write_locality(plan: PartitionPlan) -> List[Diagnostic]:
    state_names = set(plan.middlebox.state)
    offloaded_writers: Dict[str, List[irin.Instruction]] = {}
    server_writers: Set[str] = set()
    server_readers: Set[str] = set()
    for inst in plan.middlebox.process.instructions():
        partition = _partition_of(plan, inst)
        reads, writes, global_state, _, _ = inst.facts
        if not global_state:
            continue
        for loc in writes & global_state:
            if loc.name in state_names:
                if partition is Partition.NON_OFF:
                    server_writers.add(loc.name)
                else:
                    offloaded_writers.setdefault(loc.name, []).append(inst)
        if partition is Partition.NON_OFF:
            for loc in reads & global_state:
                if loc.name in state_names:
                    server_readers.add(loc.name)
    out: List[Diagnostic] = []
    for name, writers in sorted(offloaded_writers.items()):
        if name in server_writers:
            code, what = "PART001", "also written on the server"
        elif name in server_readers:
            code, what = "PART002", "read on the server"
        else:
            continue
        for inst in writers:
            out.append(
                error(
                    code,
                    STAGE_PARTITION,
                    f"offloaded write to state {name!r} which is {what}"
                    " (one-directional replication violated)",
                    function=plan.middlebox.process.name,
                    location=inst.location,
                )
            )
    return out


def _check_run_to_completion(plan: PartitionPlan) -> List[Diagnostic]:
    graph = dependency_graph(plan.middlebox.process)
    # Per position, the positions of the phases before its own.
    pre = non_off = 0
    phases = [_partition_of(plan, inst) for inst in graph.instructions]
    for at, phase in enumerate(phases):
        if phase is Partition.PRE:
            pre |= 1 << at
        elif phase is Partition.NON_OFF:
            non_off |= 1 << at
    backward = []
    for at, row in enumerate(graph.successors):
        phase = phases[at]
        if phase is Partition.PRE:
            continue
        row &= pre if phase is Partition.NON_OFF else pre | non_off
        for other in set_bits(row):
            backward.append((
                graph.instructions[at].id, graph.instructions[other].id
            ))
    out: List[Diagnostic] = []
    for src_id, dst_id in sorted(backward):
        src = graph.by_id(src_id)
        dst = graph.by_id(dst_id)
        kinds = graph.edges[src_id, dst_id]
        kind_names = ",".join(sorted(k.value for k in kinds))
        out.append(
            error(
                "PART003",
                STAGE_PARTITION,
                f"{_partition_of(plan, dst).name} instruction {dst!r}"
                f" depends ({kind_names}) on {_partition_of(plan, src).name}"
                f" instruction {src!r}: execution order would flow"
                " backward",
                function=plan.middlebox.process.name,
                location=dst.location,
            )
        )
    return out


def _check_boundary_liveness(
    plan: PartitionPlan,
    shim_to_server: ShimLayout,
    shim_to_switch: ShimLayout,
) -> List[Diagnostic]:
    """Re-derive each projection's needs and compare against the shims."""
    pre_defs = plan.pre.defined_regs()
    non_off_defs = plan.non_offloaded.defined_regs()
    out: List[Diagnostic] = []
    server_fields = set(shim_to_server.field_names())
    for name, reg in sorted(unsatisfied_uses(plan.non_offloaded).items()):
        if name in pre_defs and name not in server_fields:
            out.append(
                error(
                    "PART004",
                    STAGE_PARTITION,
                    f"%{name} crosses the pre->server boundary but is"
                    " missing from the to-server shim"
                    f" {sorted(server_fields)}",
                    function=plan.non_offloaded.name,
                )
            )
    switch_fields = set(shim_to_switch.field_names())
    for name, reg in sorted(unsatisfied_uses(plan.post).items()):
        upstream = name in pre_defs or name in non_off_defs
        if upstream and name not in switch_fields:
            out.append(
                error(
                    "PART004",
                    STAGE_PARTITION,
                    f"%{name} crosses the server->post boundary but is"
                    " missing from the to-switch shim"
                    f" {sorted(switch_fields)}",
                    function=plan.post.name,
                )
            )
    return out


def shim_budget(
    limits: SwitchResources,
    layout: ShimLayout,
    function: Optional[str] = None,
) -> List[Diagnostic]:
    """PART005 when one direction's packed shim header is over budget.

    The header is held to the constraint-5 payload budget plus 2 bytes: the
    verdict/egress-port plumbing fields the runtime adds on top of the
    values the partitioner counted.
    """
    budget = limits.transfer_bytes + 2
    if layout.byte_size <= budget:
        return []
    return [
        error(
            "PART005",
            STAGE_PARTITION,
            f"shim {layout.direction} is {layout.byte_size}B"
            f" (> {budget}B budget)",
            function=function,
        )
    ]


def _check_cache_compatibility(plan: PartitionPlan) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for function in (plan.pre, plan.post):
        for inst in function.instructions():
            if isinstance(inst, irin.RegisterRMW):
                out.append(
                    error(
                        "PART006",
                        STAGE_PARTITION,
                        f"switch pipeline RMWs register {inst.state!r}:"
                        " a cached deployment cannot rerun it on the"
                        " miss path without double-applying the update",
                        function=function.name,
                        location=inst.location,
                    )
                )
    return out
