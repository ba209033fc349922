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
  the run's injector seed and the tenant's name, so co-residents never share
  a randomness stream and the solo reference can reproduce the exact
  same fault draws;
* :func:`repro.tenancy.oracle.isolation_oracle`, handed a tenant-scoped
  plan, runs the shared deployment under it and compares **every**
  tenant against its solo reference — the faulted tenant against a solo
  run with the *identical* scoped plan and seed, the unfaulted tenants
  against clean solo runs — demanding byte equality on verdicts, paths,
  egress frames, and final data-plane state.

Isolation of the unfaulted tenants is *by construction* (only the named
tenant gets an injector at all); the oracle proves the byte-level
consequence rather than assuming it.
"""

from __future__ import annotations

import zlib

from repro.faults.plan import FaultPlan


def tenant_injector_seed(injector_seed: int, name: str) -> int:
    """Per-tenant injector seed: the run's injector seed blended with the
    tenant's name so co-residents draw from disjoint randomness streams
    and a solo reference run can reproduce the exact same draws."""
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

