"""The switch resource allocator: N compiled middleboxes, one budget.

Everything before this module checks resources *per program*: the
partitioner holds one plan to one :class:`SwitchResources` and the P4
lint holds the emitted artifact to the same limits.  A production switch
fronts many services, and on an RMT pipeline (Bosshart et al.) the
stages, SRAM and PHV are a *shared* substrate — arbitrating them across
programs is the central compiler problem at that scale (cf. the RMT
backend paper).  :class:`SwitchResourceAllocator` makes that arbitration
first-class: it admits N compiled artifacts under one
:class:`SharedSwitchBudget`, reading each tenant's measured usage from
its ``plan.report`` and its pipelines' stage schedules — per-tenant stage
placement (stage 0 is the dispatch table; each table a tenant applies
takes a slot in the stage ``SwitchProgram.stages`` runs it in, and a
stage has a bounded number of slots), register/table memory carved into
contiguous per-tenant ranges, and PHV/header arbitration (every tenant's
metadata and shim fields coexist in the parser's static PHV layout, so they
sum).

Admission is deterministic and order-independent: tenants are admitted in
canonical order (sorted by name) regardless of submission order, so the
admit/reject verdict set is a function of the tenant *set*, never of the
call sequence.  A rejection names the exhausted resource, the tenant that
broke the budget, and who holds the remainder — an actionable diagnostic,
not a boolean.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.partition.constraints import SWITCH_STATE_OPS, SwitchResources
from repro.partition.plan import PartitionPlan
from repro.switchsim.program import SERVER_PORT, SwitchProgram
from repro.verify.diagnostics import STAGE_TENANCY, VerificationReport, error

#: Local port numbering inside one tenant's slice: the one wiring's.
PORTS_PER_TENANT = 4

#: Stages reserved at the front of the pipeline for tenant dispatch.
DISPATCH_STAGES = 1

#: PHV bytes consumed by the shared dispatch machinery, counted once, not
#: per tenant.
DISPATCH_PHV_BYTES = 4


class DuplicateTenantError(ValueError):
    """Two specs share a tenant name, so their state would share one
    namespace."""


# ---------------------------------------------------------------------------
# The shared budget and the N-tenant admission
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharedSwitchBudget:
    """What one physical RMT pipeline offers the tenant population.

    Memory and stage count match the single-program
    :class:`SwitchResources` defaults (it is the same physical switch);
    the PHV budget is larger than the per-program 96-byte scratchpad
    because the parser's container file holds every program's fields at
    once, but far from N×96 — PHV pressure is exactly what makes
    multi-tenancy a packing problem.
    """

    #: Total match-table SRAM shared by every tenant, in bytes.
    memory_bytes: int = SwitchResources.memory_bytes
    #: Physical match-action stages, including the dispatch stage.
    pipeline_depth: int = SwitchResources.pipeline_depth
    #: Match-table slots available per stage (RMT: a handful of parallel
    #: tables per stage).  Tenants' tables share stages: each takes a slot
    #: in the stage its pipeline's ``SwitchProgram.stages`` runs it in.
    table_slots_per_stage: int = 4
    #: PHV bytes available to tenant metadata (each tenant's constraint-4
    #: allocation) + shim fields combined.
    phv_bytes: int = 128

    @classmethod
    def tofino_like(cls) -> "SharedSwitchBudget":
        return cls()

    @classmethod
    def tiny(cls) -> "SharedSwitchBudget":
        """A deliberately starved shared switch for rejection tests."""
        return cls(
            memory_bytes=512 * 1024,
            pipeline_depth=10,
            table_slots_per_stage=2,
            phv_bytes=48,
        )

    def to_dict(self) -> dict:
        return {
            "memory_bytes": self.memory_bytes,
            "pipeline_depth": self.pipeline_depth,
            "table_slots_per_stage": self.table_slots_per_stage,
            "phv_bytes": self.phv_bytes,
            "dispatch_stages": DISPATCH_STAGES,
        }


@dataclass(frozen=True)
class TenantSpec:
    """One compiled middlebox asking for a slice of the shared switch."""

    name: str
    plan: PartitionPlan
    program: SwitchProgram
    #: static per-port config passed to the tenant's server runtime
    config: Optional[dict] = None

    @property
    def memory_bytes(self) -> int:
        """Table and register SRAM this tenant needs: its program's
        constraint-1 number."""
        return self.program.memory_bytes()

    @property
    def stage_depth(self) -> int:
        """Stages this tenant's deepest pipeline occupies (constraint 2)."""
        report = self.plan.report
        return max(report.pipeline_depth_pre, report.pipeline_depth_post)

    @property
    def phv_bytes(self) -> int:
        """PHV bytes this tenant's fields pin in the shared layout: its
        scratchpad allocation (constraint 4) plus the wider of its two
        shim headers."""
        report = self.plan.report
        metadata = max(report.metadata_bytes_pre, report.metadata_bytes_post)
        shim = max(
            self.program.shim_to_server.byte_size,
            self.program.shim_to_switch.byte_size,
        )
        return metadata + shim

    @property
    def table_slots(self) -> Dict[int, int]:
        """Tenant-relative stage (1-based, after dispatch) -> the table
        slots this tenant occupies there: a slot per table application,
        in the stage its pipeline's schedule puts it, pre's and post's
        summed (both are laid out in the one ingress pipeline)."""
        slots: Counter[int] = Counter()
        for side in ("pre", "post"):
            slots.update(
                stage for inst, stage, _ in self.program.stages(side)[0]
                if isinstance(inst, SWITCH_STATE_OPS)
                and inst.state in self.program.tables
            )
        return dict(slots)


@dataclass
class TenantPlacement:
    """Where an admitted tenant landed on the shared switch."""

    name: str
    #: order among admitted tenants (drives the port base)
    index: int
    #: contiguous SRAM carve [offset, offset + memory_bytes)
    memory_offset: int
    memory_bytes: int
    #: stages this tenant's tables/ALUs occupy (after the dispatch stage)
    stage_first: int
    stage_last: int
    phv_bytes: int
    port_base: int

    @property
    def server_port(self) -> int:
        return self.port_base + SERVER_PORT

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "index": self.index,
            "memory_offset": self.memory_offset,
            "memory_bytes": self.memory_bytes,
            "stage_first": self.stage_first,
            "stage_last": self.stage_last,
            "phv_bytes": self.phv_bytes,
            "port_base": self.port_base,
        }


@dataclass(frozen=True)
class AdmissionRejection:
    """Why one tenant could not be admitted."""

    name: str
    #: the exhausted budget axis: "memory_bytes" | "pipeline_depth"
    #: | "table_slots" | "phv_bytes"
    resource: str
    message: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "resource": self.resource,
            "message": self.message,
        }


@dataclass
class AdmissionReport:
    """The allocator's verdict over one tenant set."""

    budget: SharedSwitchBudget
    admitted: List[TenantPlacement] = field(default_factory=list)
    rejected: List[AdmissionRejection] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.rejected

    def placement(self, name: str) -> TenantPlacement:
        for placement in self.admitted:
            if placement.name == name:
                return placement
        raise KeyError(name)

    def totals(self) -> Dict[str, int]:
        return {
            "memory_bytes": sum(p.memory_bytes for p in self.admitted),
            "phv_bytes": DISPATCH_PHV_BYTES
            + sum(p.phv_bytes for p in self.admitted),
            # A placement's stages are numbered after the dispatch stage's,
            # so the deepest one already counts it.
            "stages": max(
                (p.stage_last for p in self.admitted),
                default=DISPATCH_STAGES,
            ),
        }

    def lint(self) -> VerificationReport:
        """The combined artifact's verification report: ``TEN001`` for
        each rejection, ``TEN002`` for each budget axis the admitted
        totals overflow (constraints 1, 2 and 4+5 as PHV).

        Constraint 3 (single access site per stateful element) is
        inherited: each tenant's elements stay its own, so co-residency
        cannot add access sites.  Admission holds each tenant to what the
        dispatch machinery leaves, so the totals fail only on a budget
        the dispatch stage or its PHV bytes overflow by themselves.
        """
        names = sorted(
            [p.name for p in self.admitted] + [r.name for r in self.rejected]
        )
        report = VerificationReport(program=f"tenancy[{'+'.join(names)}]")
        report.extend([
            error("TEN001", STAGE_TENANCY, rejection.message,
                  function=rejection.name)
            for rejection in self.rejected
        ])
        totals = self.totals()
        checks = (
            (
                totals["memory_bytes"],
                self.budget.memory_bytes,
                "combined table+register memory",
                "B (constraint 1)",
            ),
            (
                totals["stages"],
                self.budget.pipeline_depth,
                "combined pipeline depth incl. dispatch",
                "stages (constraint 2)",
            ),
            (
                totals["phv_bytes"],
                self.budget.phv_bytes,
                "combined PHV (metadata + shim headers + dispatch"
                f" {DISPATCH_PHV_BYTES} B)",
                "B (constraints 4+5)",
            ),
        )
        report.extend([
            error("TEN002", STAGE_TENANCY, f"{what} {used} > {limit} {unit}")
            for used, limit, what, unit in checks
            if used > limit
        ])
        return report

    def to_dict(self) -> dict:
        return {
            "budget": self.budget.to_dict(),
            "admitted": [p.to_dict() for p in self.admitted],
            "rejected": [r.to_dict() for r in self.rejected],
            "totals": self.totals(),
        }

    def format(self) -> str:
        lines = []
        totals = self.totals()
        lines.append(
            f"budget: {self.budget.memory_bytes} B SRAM,"
            f" {self.budget.pipeline_depth} stages"
            f" ({DISPATCH_STAGES} dispatch),"
            f" {self.budget.table_slots_per_stage} table slots/stage,"
            f" {self.budget.phv_bytes} B PHV"
        )
        for placement in self.admitted:
            lines.append(
                f"  admit {placement.name}: SRAM"
                f" [{placement.memory_offset},"
                f" {placement.memory_offset + placement.memory_bytes}),"
                f" stages {placement.stage_first}-{placement.stage_last},"
                f" {placement.phv_bytes} B PHV,"
                f" ports {placement.port_base + 1}-{placement.server_port}"
            )
        for rejection in self.rejected:
            lines.append(f"  reject {rejection.name}: {rejection.message}")
        lines.append(
            f"  used: {totals['memory_bytes']} B SRAM,"
            f" {totals['stages']} stages, {totals['phv_bytes']} B PHV"
        )
        return "\n".join(lines)


class SwitchResourceAllocator:
    """Admits compiled middleboxes onto one shared switch budget."""

    def __init__(self, budget: Optional[SharedSwitchBudget] = None):
        self.budget = budget if budget is not None else SharedSwitchBudget()

    def admit(self, tenants: Sequence[TenantSpec]) -> AdmissionReport:
        """Admit as many tenants as the budget allows.

        Tenants are processed in canonical order (sorted by name), so the
        admit/reject verdict set never depends on submission order.  A
        tenant that does not fit is rejected and admission continues —
        one oversized tenant must not shadow-reject everything sorted
        after it.  Two specs with one name are refused before anything
        is placed: their state would share one namespace.
        """
        names = [spec.name for spec in tenants]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise DuplicateTenantError(
                f"TEN004: duplicate tenant name(s): {', '.join(duplicates)}"
                " (their namespaced state would collide)"
            )
        report = AdmissionReport(budget=self.budget)
        memory_offset = 0
        phv_used = DISPATCH_PHV_BYTES
        tenant_stages = self.budget.pipeline_depth - DISPATCH_STAGES
        slot_usage = [0] * (tenant_stages + 1)  # 1-based tenant stages
        for spec in sorted(tenants, key=lambda s: s.name):
            rejection = self._check(
                spec, report, memory_offset, phv_used, tenant_stages,
                slot_usage,
            )
            if rejection is not None:
                report.rejected.append(rejection)
                continue
            index = len(report.admitted)
            placement = TenantPlacement(
                name=spec.name,
                index=index,
                memory_offset=memory_offset,
                memory_bytes=spec.memory_bytes,
                stage_first=DISPATCH_STAGES + 1,
                stage_last=DISPATCH_STAGES + spec.stage_depth,
                phv_bytes=spec.phv_bytes,
                port_base=index * PORTS_PER_TENANT,
            )
            report.admitted.append(placement)
            memory_offset += spec.memory_bytes
            phv_used += spec.phv_bytes
            for stage, needed in spec.table_slots.items():
                slot_usage[stage] += needed
        return report

    def _check(
        self,
        spec: TenantSpec,
        report: AdmissionReport,
        memory_offset: int,
        phv_used: int,
        tenant_stages: int,
        slot_usage: List[int],
    ) -> Optional[AdmissionRejection]:
        holders = ", ".join(p.name for p in report.admitted) or "nobody"
        if spec.stage_depth > tenant_stages:
            return AdmissionRejection(
                spec.name, "pipeline_depth",
                f"tenant {spec.name!r} rejected: pipeline_depth exhausted —"
                f" needs {spec.stage_depth} stages but only"
                f" {tenant_stages} remain after the"
                f" {DISPATCH_STAGES}-stage dispatch"
                f" (budget {self.budget.pipeline_depth})",
            )
        remaining = self.budget.memory_bytes - memory_offset
        if spec.memory_bytes > remaining:
            return AdmissionRejection(
                spec.name, "memory_bytes",
                f"tenant {spec.name!r} rejected: memory_bytes exhausted —"
                f" needs {spec.memory_bytes} B, {remaining} B of"
                f" {self.budget.memory_bytes} B remain"
                f" ({memory_offset} B held by {holders})",
            )
        phv_remaining = self.budget.phv_bytes - phv_used
        if spec.phv_bytes > phv_remaining:
            return AdmissionRejection(
                spec.name, "phv_bytes",
                f"tenant {spec.name!r} rejected: phv_bytes exhausted —"
                f" needs {spec.phv_bytes} B, {phv_remaining} B of"
                f" {self.budget.phv_bytes} B remain"
                f" ({phv_used} B held by dispatch + {holders})",
            )
        for stage, needed in sorted(spec.table_slots.items()):
            free = self.budget.table_slots_per_stage - slot_usage[stage]
            if needed > free:
                return AdmissionRejection(
                    spec.name, "table_slots",
                    f"tenant {spec.name!r} rejected: table_slots exhausted"
                    f" at stage {DISPATCH_STAGES + stage} —"
                    f" needs {needed} slot(s), {free} of"
                    f" {self.budget.table_slots_per_stage} remain"
                    f" (held by {holders})",
                )
        return None


def build_tenant_specs(names: Sequence[str]) -> List[TenantSpec]:
    """Compile bundled middleboxes into tenant specs (CLI/test helper)."""
    from repro.middleboxes import load
    from repro.runtime.deployment import compile_middlebox

    specs: List[TenantSpec] = []
    for name in names:
        bundle = load(name)
        plan, program = compile_middlebox(bundle.lowered)
        specs.append(
            TenantSpec(
                name=name, plan=plan, program=program, config=bundle.config
            )
        )
    return specs
