"""P4 lint of the *combined* multi-tenant artifact (constraints 1–5).

The per-program verifier (:mod:`repro.verify.p4lint`) proves each
middlebox fits a switch by itself.  Co-residency adds the questions this
stage answers: do the artifacts still satisfy constraints 1–5 when their
tables, registers, headers, and stages share one pipeline, and are their
state namespaces actually disjoint?  Findings are reported as
:class:`~repro.verify.diagnostics.Diagnostic` records (codes TEN001–004)
so CI consumes them through the same report schema as the solo verifier.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.verify.diagnostics import (
    STAGE_TENANCY,
    Diagnostic,
    VerificationReport,
    error,
)
from repro.verify.p4lint import lint_switch_program
from repro.tenancy.allocator import (
    DISPATCH_PHV_BYTES,
    SharedSwitchBudget,
    SwitchResourceAllocator,
    TenantSpec,
)


def lint_combined(
    specs: Sequence[TenantSpec],
    budget: Optional[SharedSwitchBudget] = None,
) -> List[Diagnostic]:
    """Validate the combined artifact of ``specs`` under one budget."""
    out: List[Diagnostic] = []
    out.extend(_lint_tenant_artifacts(specs))
    out.extend(_lint_namespaces(specs))
    out.extend(_lint_budget(specs, budget))
    return out


def verify_combined(
    specs: Sequence[TenantSpec],
    budget: Optional[SharedSwitchBudget] = None,
) -> VerificationReport:
    """The combined-artifact lint as a standard verification report."""
    names = "+".join(sorted(spec.name for spec in specs))
    report = VerificationReport(program=f"tenancy[{names}]")
    report.extend(lint_combined(specs, budget))
    return report


def _lint_tenant_artifacts(
    specs: Sequence[TenantSpec],
) -> List[Diagnostic]:
    """Re-run the per-program resource lint on every tenant's artifact.

    A program that fails constraints 1–5 alone can only get worse with
    neighbours; surfacing it here (wrapped as TEN003, with the solo code
    in the message) keeps the combined report self-contained.
    """
    out: List[Diagnostic] = []
    for spec in sorted(specs, key=lambda s: s.name):
        for diag in lint_switch_program(spec.program):
            if diag.severity != "error":
                continue
            out.append(
                error(
                    "TEN003",
                    STAGE_TENANCY,
                    f"tenant {spec.name!r}: solo lint failed with"
                    f" {diag.code}: {diag.message}",
                    function=spec.name,
                )
            )
    return out


def _lint_namespaces(specs: Sequence[TenantSpec]) -> List[Diagnostic]:
    """Tenant state lives in per-tenant namespaces; the combined switch
    prefixes every table/register with the tenant name, so the only way
    to collide is two tenants sharing a name."""
    out: List[Diagnostic] = []
    seen: dict = {}
    for spec in specs:
        if spec.name in seen:
            out.append(
                error(
                    "TEN004",
                    STAGE_TENANCY,
                    f"two tenants named {spec.name!r}: namespaced state"
                    f" ({spec.name}.<table>) would collide",
                    function=spec.name,
                )
            )
        seen[spec.name] = spec
    return out


def _lint_budget(
    specs: Sequence[TenantSpec],
    budget: Optional[SharedSwitchBudget],
) -> List[Diagnostic]:
    """Constraints 1–5 for the combined artifact, via the allocator.

    Constraint 3 (single access site per stateful element) is inherited:
    namespacing keeps every tenant's elements private, so co-residency
    cannot add access sites — only the shared budget axes (1, 2, 4/5 as
    PHV) need re-proving, which is exactly the allocator's admission.
    Admission holds each tenant to what the dispatch machinery leaves, so
    the totals re-proved here (TEN002) fail only on a budget the dispatch
    stage or its PHV bytes overflow by themselves.
    """
    allocator = SwitchResourceAllocator(budget)
    unique = {spec.name: spec for spec in specs}
    admission = allocator.admit(list(unique.values()))
    out: List[Diagnostic] = []
    for rejection in admission.rejected:
        out.append(
            error(
                "TEN001",
                STAGE_TENANCY,
                rejection.message,
                function=rejection.name,
            )
        )
    totals = admission.totals()
    checks = (
        (
            totals["memory_bytes"],
            allocator.budget.memory_bytes,
            "combined table+register memory",
            "B (constraint 1)",
        ),
        (
            totals["stages"],
            allocator.budget.pipeline_depth,
            "combined pipeline depth incl. dispatch",
            "stages (constraint 2)",
        ),
        (
            totals["phv_bytes"],
            allocator.budget.phv_bytes,
            "combined PHV (metadata + shim headers + dispatch"
            f" {DISPATCH_PHV_BYTES} B)",
            "B (constraints 4+5)",
        ),
    )
    for used, limit, what, unit in checks:
        if used > limit:
            out.append(
                error(
                    "TEN002",
                    STAGE_TENANCY,
                    f"{what} {used} > {limit} {unit}",
                )
            )
    return out
