"""Tenant-scoped fault injection and the fault-isolation oracle.

The multi-tenant switch promises that one tenant's trouble is *its own*:
a lossy punt link carved to tenant A must degrade A exactly as it would
degrade A's solo deployment under the same faults, and must not perturb
any co-resident tenant by a single byte.  This module makes that claim
checkable:

* :func:`scoped_plan` projects a :class:`~repro.faults.plan.FaultPlan`
  of :class:`~repro.faults.plan.TenantLinkFault` specs onto one tenant,
  yielding the equivalent *unscoped* plan that tenant's own injector
  (and its solo reference run) executes;
* :func:`tenant_injector_seed` derives each tenant's injector seed from
  the campaign seed and the tenant's name, so co-residents never share
  a randomness stream and the solo reference can reproduce the exact
  same fault draws;
* :func:`run_fault_isolation_oracle` runs the shared deployment under a
  tenant-scoped plan and compares **every** tenant against its solo
  reference — the faulted tenant against a solo run with the *identical*
  scoped plan and seed, the unfaulted tenants against clean solo runs —
  demanding byte equality on verdicts, paths, egress frames, and final
  data-plane state;
* :func:`run_tenancy_fault_campaign` sweeps seeded random tenant-scoped
  schedules across many scenarios, the tenancy flavour of the fault
  campaign.

Isolation of the unfaulted tenants is *by construction* (only the named
tenant gets an injector at all); the oracle proves the byte-level
consequence rather than assuming it.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.difftest import kernel
from repro.faults.plan import FaultPlan, TenantLinkFault
from repro.tenancy.oracle import IsolationResult, isolation_oracle
from repro.workloads.iperf import IperfWorkload

#: XOR'd into the campaign seed per scenario to derive the plan RNG.
_PLAN_SALT = 0x7E2A27


def tenant_injector_seed(injector_seed: int, name: str) -> int:
    """Per-tenant injector seed: campaign seed blended with the tenant's
    name so co-residents draw from disjoint randomness streams and a solo
    reference run can reproduce the exact same draws."""
    return injector_seed ^ zlib.crc32(name.encode("utf-8"))


def scoped_plan(fault_plan: FaultPlan, tenant: str) -> FaultPlan:
    """Project a tenant-scoped plan onto one tenant.

    Returns the equivalent *unscoped* plan (plain :class:`LinkFault`
    specs) containing exactly the faults addressed to ``tenant``.  Plans
    handed to a multi-tenant deployment may contain only tenant-scoped
    fault kinds — an unscoped fault has no owner, so scoping it silently
    would hide a configuration bug.
    """
    scoped = []
    for spec in fault_plan.faults:
        if spec.kind != "tenant_link":
            raise ValueError(
                f"multi-tenant fault plans accept only tenant-scoped"
                f" faults, got kind {spec.kind!r}"
            )
        if spec.tenant == tenant:
            scoped.append(spec.as_link_fault())
    return FaultPlan(faults=tuple(scoped))


@dataclass
class TenancyFaultScenario:
    """One campaign scenario: a tenant set and a tenant-scoped plan."""

    index: int
    names: List[str]
    faulted: str
    plan: FaultPlan
    ok: bool = False
    injected: Dict[str, int] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "names": list(self.names),
            "faulted": self.faulted,
            "plan": self.plan.to_dict(),
            "ok": self.ok,
            "injected": dict(self.injected),
            "mismatches": list(self.mismatches),
        }


def run_fault_isolation_oracle(
    names: Sequence[str],
    fault_plan: FaultPlan,
    packets_per_tenant: int = 60,
    seed: int = 0,
    injector_seed: int = 0,
) -> IsolationResult:
    """Prove fault isolation for one tenant set under one scoped plan.

    Every admitted tenant is compared byte-exactly against its solo
    reference run under *its own* slice of the plan: the faulted
    tenant's reference runs solo with the identical scoped faults and
    derived injector seed (so it degrades identically if and only if
    co-residency leaked nothing), and each unfaulted tenant's reference
    is the plain clean solo run.
    """
    # Short flows: a tenant-link fault only bites on the punt path, so
    # the workload keeps new flows (and therefore punts) coming instead of
    # one long iperf connection that punts once.
    return isolation_oracle(
        names, packets_per_tenant, budget=None, seed=seed, fast_path=False,
        fault_plan=fault_plan, injector_seed=injector_seed,
        workload=IperfWorkload(connections=32, packets_per_connection=3),
        series_window_us=None,
    )


def generate_tenant_plan(
    rng: random.Random, names: Sequence[str], stream_len: int
) -> FaultPlan:
    """Draw one random tenant-scoped schedule: 1–2 punt-link faults, all
    addressed to a single randomly chosen tenant."""
    faulted = rng.choice(list(names))
    specs = []
    for _ in range(rng.randint(1, 2)):
        start = rng.randrange(0, max(1, stream_len // 2))
        specs.append(TenantLinkFault(
            tenant=faulted,
            direction=rng.choice(["to_server", "to_switch"]),
            mode=rng.choice(["loss", "loss", "corrupt"]),
            probability=rng.choice([0.15, 0.3, 0.6]),
            start=start,
            stop=rng.choice([None, start + rng.randint(3, stream_len)]),
        ))
    return FaultPlan(faults=tuple(specs))


def run_tenancy_fault_campaign(
    names: Sequence[str],
    scenarios: int = 20,
    packets_per_tenant: int = 40,
    seed: int = 0,
) -> List[TenancyFaultScenario]:
    """Sweep seeded random tenant-scoped fault schedules.

    Each scenario draws a plan (one faulted tenant, 1–2 punt-link
    faults) and runs the full fault-isolation oracle; a scenario passes
    only when every tenant — faulted and clean alike — is byte-exact
    against its solo reference.
    """
    results: List[TenancyFaultScenario] = []

    def scenario(index: int, _program_seed: int) -> None:
        rng = random.Random((seed ^ _PLAN_SALT) + index)
        plan = generate_tenant_plan(rng, names, packets_per_tenant)
        outcome = run_fault_isolation_oracle(
            names, plan,
            packets_per_tenant=packets_per_tenant,
            seed=seed, injector_seed=index,
        )
        results.append(TenancyFaultScenario(
            index=index, names=list(names), faulted=plan.faults[0].tenant,
            plan=plan, ok=outcome.ok, injected=dict(outcome.injected),
            mismatches=[
                f"{verdict.name}: {m}"
                for verdict in outcome.verdicts for m in verdict.mismatches
            ],
        ))

    kernel.drive(
        scenarios, seed, scenario,
        lambda _program_seed: (
            f"run_tenancy_fault_campaign({list(names)!r},"
            f" scenarios={scenarios},"
            f" packets_per_tenant={packets_per_tenant}, seed={seed})"
        ),
    )
    return results
