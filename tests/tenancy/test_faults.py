"""Tenant-scoped fault injection: plan scoping, per-tenant injector
seeds, the fault-isolation oracle, and the tenancy fault campaign.

The property under test is the multi-tenant switch's blast-radius
promise: a punt-link fault carved to one tenant degrades that tenant
*exactly* as its solo deployment would degrade under the identical
scoped plan and seed, and leaves every co-resident byte-exact against
its clean solo run.
"""

import pytest

from repro.faults.plan import (
    FAULT_KINDS,
    FaultPlan,
    LinkFault,
    TenantLinkFault,
)
from repro.tenancy.deployment import MultiTenantDeployment
from repro.tenancy.faults import (
    generate_tenant_plan,
    run_fault_isolation_oracle,
    run_tenancy_fault_campaign,
    scoped_plan,
    tenant_injector_seed,
)
from repro.tenancy.oracle import build_tenant_specs

NAMES = ["minilb", "mazunat", "lb"]


def tenant_plan(tenant="mazunat", probability=0.5, start=0, stop=None):
    return FaultPlan((TenantLinkFault(
        tenant=tenant, direction="to_server", mode="loss",
        probability=probability, start=start, stop=stop,
    ),))


class TestPlanScoping:
    def test_tenant_link_fault_round_trips(self):
        plan = tenant_plan(stop=9)
        restored = FaultPlan.from_dict(plan.to_dict())
        assert restored == plan
        assert restored.faults[0].tenant == "mazunat"
        assert FAULT_KINDS["tenant_link"] is TenantLinkFault
        assert "mazunat" in plan.describe()

    def test_scoped_plan_projects_one_tenant(self):
        plan = FaultPlan((
            TenantLinkFault(tenant="mazunat", probability=0.5),
            TenantLinkFault(tenant="lb", mode="corrupt", probability=0.2),
        ))
        projected = scoped_plan(plan, "mazunat")
        (fault,) = projected.faults
        assert isinstance(fault, LinkFault)
        assert fault.probability == 0.5
        assert scoped_plan(plan, "minilb").faults == ()

    def test_unscoped_kinds_rejected(self):
        plan = FaultPlan((LinkFault(),))
        with pytest.raises(ValueError, match="tenant-scoped"):
            scoped_plan(plan, "mazunat")

    def test_as_link_fault_preserves_schedule(self):
        fault = TenantLinkFault(tenant="lb", direction="to_switch",
                                mode="corrupt", probability=0.3,
                                start=4, stop=11)
        link = fault.as_link_fault()
        assert (link.direction, link.mode, link.probability) == (
            "to_switch", "corrupt", 0.3
        )
        assert (link.start, link.stop) == (4, 11)

    def test_injector_seeds_are_per_tenant(self):
        seeds = {tenant_injector_seed(7, name) for name in NAMES}
        assert len(seeds) == len(NAMES)
        assert tenant_injector_seed(7, "lb") == tenant_injector_seed(7, "lb")


class TestDeploymentWiring:
    def test_only_the_faulted_tenant_gets_an_injector(self):
        specs = build_tenant_specs(NAMES)
        shared = MultiTenantDeployment(
            specs, fault_plan=tenant_plan("mazunat"), injector_seed=3,
        )
        injectors = {
            t.name: t.middlebox.injector for t in shared.tenants
        }
        assert injectors["mazunat"] is not None
        assert injectors["minilb"] is None
        assert injectors["lb"] is None

    def test_no_plan_means_no_injectors(self):
        shared = MultiTenantDeployment(build_tenant_specs(NAMES))
        assert all(t.middlebox.injector is None for t in shared.tenants)


class TestIsolationOracle:
    def test_faulted_tenant_isolated_byte_exactly(self):
        result = run_fault_isolation_oracle(
            NAMES, tenant_plan("mazunat", probability=0.6),
            packets_per_tenant=40, injector_seed=1,
        )
        assert result.ok, [
            (v.name, v.mismatches) for v in result.verdicts
        ]
        # The plan must actually bite, or the test proves nothing.
        assert sum(result.injected.values()) > 0

    def test_clean_plan_still_isolates(self):
        result = run_fault_isolation_oracle(
            NAMES, FaultPlan(), packets_per_tenant=30,
        )
        assert result.ok
        assert result.injected == {}


class TestCampaign:
    def test_generated_plans_target_one_tenant(self):
        import random

        rng = random.Random(5)
        for _ in range(10):
            plan = generate_tenant_plan(rng, NAMES, 40)
            targets = {f.tenant for f in plan.faults}
            assert len(targets) == 1
            assert targets <= set(NAMES)
            assert all(f.kind == "tenant_link" for f in plan.faults)

    def test_campaign_scenarios_all_isolate(self):
        scenarios = run_tenancy_fault_campaign(
            NAMES, scenarios=4, packets_per_tenant=40, seed=0,
        )
        assert len(scenarios) == 4
        assert all(s.ok for s in scenarios), [
            (s.index, s.mismatches) for s in scenarios
        ]
        # Across the sweep the injectors must have fired somewhere.
        assert any(sum(s.injected.values()) > 0 for s in scenarios)

    def test_campaign_is_deterministic(self):
        def run():
            return [
                s.to_dict() for s in run_tenancy_fault_campaign(
                    NAMES, scenarios=2, packets_per_tenant=30, seed=9,
                )
            ]

        assert run() == run()
