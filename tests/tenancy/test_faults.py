"""Tenant-scoped fault injection: plan scoping, per-tenant injector
seeds, and the fault-isolation oracle.

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
from repro.tenancy.faults import scoped_plan, tenant_injector_seed
from repro.tenancy.oracle import build_tenant_specs
from tests.tenancy.fault_isolation import fault_isolation, generate_tenant_plan

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
        result = fault_isolation(
            NAMES, tenant_plan("mazunat", probability=0.6),
            packets_per_tenant=40, injector_seed=1,
        )
        assert result.ok, [
            (v.name, v.mismatches) for v in result.verdicts
        ]
        # The plan must actually bite, or the test proves nothing.
        assert sum(result.injected.values()) > 0

    def test_clean_plan_still_isolates(self):
        result = fault_isolation(
            NAMES, FaultPlan(), packets_per_tenant=30,
        )
        assert result.ok
        assert result.injected == {}


class TestPlanGenerator:
    def test_generated_plans_target_one_tenant(self):
        import random

        rng = random.Random(5)
        for _ in range(10):
            plan = generate_tenant_plan(rng, NAMES, 40)
            targets = {f.tenant for f in plan.faults}
            assert len(targets) == 1
            assert targets <= set(NAMES)
            assert all(f.kind == "tenant_link" for f in plan.faults)

    def test_generated_plans_all_isolate(self):
        import random

        rng = random.Random(0)
        results = [
            fault_isolation(
                NAMES, generate_tenant_plan(rng, NAMES, 40),
                packets_per_tenant=40, injector_seed=index,
            )
            for index in range(3)
        ]
        assert all(r.ok for r in results), [
            [(v.name, v.mismatches) for v in r.verdicts] for r in results
        ]
        # Across the plans the injectors must have fired somewhere.
        assert any(sum(r.injected.values()) > 0 for r in results)

    def test_isolation_verdict_is_deterministic(self):
        import random

        def run():
            plan = generate_tenant_plan(random.Random(9), NAMES, 30)
            result = fault_isolation(NAMES, plan, packets_per_tenant=30,
                                     injector_seed=9)
            return (
                result.ok, result.injected,
                [(v.name, v.mismatches) for v in result.verdicts],
            )

        assert run() == run()
