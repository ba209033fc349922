"""Tests for the shared-switch resource allocator."""

import dataclasses
from itertools import permutations

import pytest

from repro.tenancy import (
    SharedSwitchBudget,
    SwitchResourceAllocator,
    build_tenant_specs,
)
from repro.tenancy.allocator import DISPATCH_STAGES

#: The calibrated co-residency set: fits the default budget together.
TRIO = ["minilb", "mazunat", "lb"]
ALL_SIX = ["minilb", "mazunat", "lb", "firewall", "proxy", "trojan"]


def admit(names, budget=None):
    allocator = SwitchResourceAllocator(budget or SharedSwitchBudget())
    return allocator.admit(build_tenant_specs(names))


class TestAdmission:
    def test_trio_admitted_under_default_budget(self):
        report = admit(TRIO)
        assert report.ok
        assert [p.name for p in report.admitted] == sorted(TRIO)
        assert report.rejected == []

    def test_placements_carve_disjoint_memory(self):
        report = admit(TRIO)
        spans = sorted(
            (p.memory_offset, p.memory_offset + p.memory_bytes)
            for p in report.admitted
        )
        for (_, prev_end), (start, _) in zip(spans, spans[1:]):
            assert start >= prev_end
        budget = report.budget
        assert spans[-1][1] <= budget.memory_bytes

    def test_placements_respect_pipeline_depth(self):
        report = admit(TRIO)
        for placement in report.admitted:
            assert placement.stage_first >= 1 + DISPATCH_STAGES
            assert placement.stage_last <= report.budget.pipeline_depth

    def test_port_blocks_are_per_tenant(self):
        report = admit(TRIO)
        bases = [p.port_base for p in report.admitted]
        assert len(set(bases)) == len(bases)

    def test_over_budget_rejection_names_resource_and_tenant(self):
        report = admit(ALL_SIX)
        assert not report.ok
        rejected = {r.name: r for r in report.rejected}
        assert {
            name: rejection.resource for name, rejection in rejected.items()
        } == {
            "minilb": "phv_bytes",
            "proxy": "phv_bytes",
            "trojan": "phv_bytes",
        }
        for rejection in rejected.values():
            assert rejection.name in rejection.message
            assert rejection.resource in rejection.message
            assert "remain" in rejection.message

    def test_rejection_does_not_block_later_tenants(self):
        # Admission is by sorted name; rejecting one tenant must not
        # poison tenants after it in the canonical order.
        report = admit([name for name in ALL_SIX if name != "lb"])
        admitted = {p.name for p in report.admitted}
        assert "trojan" in admitted  # sorts last, after two rejections
        assert admitted == {"firewall", "mazunat", "trojan"}
        assert {r.name for r in report.rejected} == {"minilb", "proxy"}

    def test_table_slots_are_the_pipelines_schedules(self):
        """Each table takes a slot in the stage its pipeline schedules it
        in, not in a packing from stage 1: firewall and mazunat each apply
        two tables at tenant stage 4, which fills it, so minilb and proxy,
        whose one table is scheduled there too, are refused — every stage
        is checked, the first a tenant uses included."""
        specs = build_tenant_specs(["firewall", "mazunat", "minilb", "proxy"])
        slots = {spec.name: spec.table_slots for spec in specs}
        assert slots["firewall"][4] == slots["mazunat"][4] == 2
        assert slots["minilb"] == slots["proxy"] == {4: 1}
        report = SwitchResourceAllocator(SharedSwitchBudget()).admit(specs)
        assert [p.name for p in report.admitted] == ["firewall", "mazunat"]
        assert [r.name for r in report.rejected] == ["minilb", "proxy"]
        for rejection in report.rejected:
            assert rejection.resource == "table_slots"
            assert f"at stage {DISPATCH_STAGES + 4} " in rejection.message

    def test_duplicate_tenant_names_refused(self):
        specs = build_tenant_specs(["minilb"])
        with pytest.raises(ValueError, match="^TEN004: duplicate"):
            SwitchResourceAllocator(SharedSwitchBudget()).admit(
                specs + specs
            )

    def test_tiny_budget_rejects_on_memory(self):
        report = admit(TRIO, budget=SharedSwitchBudget.tiny())
        assert not report.ok
        assert any(
            r.resource == "memory_bytes" for r in report.rejected
        )


class TestOrderIndependence:
    """Admission is a function of the tenant *set*, not the order the
    specs arrive in: the allocator canonicalizes internally, so no
    tenant can game admission by submitting first."""

    def test_verdict_set_invariant_under_input_order(self):
        specs = build_tenant_specs(["minilb", "mazunat", "lb", "proxy"])
        allocator = SwitchResourceAllocator(SharedSwitchBudget())
        baseline = allocator.admit(list(specs))
        base_admitted = {p.name for p in baseline.admitted}
        base_rejected = {
            (r.name, r.resource) for r in baseline.rejected
        }
        for order in permutations(specs):
            report = allocator.admit(list(order))
            assert {p.name for p in report.admitted} == base_admitted
            assert {
                (r.name, r.resource) for r in report.rejected
            } == base_rejected
            # Placements are identical too — same offsets, same ports.
            assert report.to_dict() == baseline.to_dict()

    def test_totals_match_placements(self):
        report = admit(TRIO)
        totals = report.totals()
        assert totals["memory_bytes"] == sum(
            p.memory_bytes for p in report.admitted
        )
        assert totals["phv_bytes"] >= max(
            p.phv_bytes for p in report.admitted
        )
        assert totals["stages"] == max(p.stage_last for p in report.admitted)


class TestBudget:
    def test_defaults_are_tofino_like(self):
        budget = SharedSwitchBudget()
        assert budget.memory_bytes == 16 * 1024 * 1024
        assert budget.pipeline_depth == 20
        assert budget == SharedSwitchBudget.tofino_like()

    def test_to_dict_round_trip(self):
        budget = SharedSwitchBudget.tiny()
        data = budget.to_dict()
        # The dispatch reservation is reported, not configured.
        assert data.pop("dispatch_stages") == DISPATCH_STAGES
        assert SharedSwitchBudget(**data) == budget

    def test_single_tenant_equals_solo_constraints(self):
        """One tenant on the shared switch sees (at least) the solo
        partitioner's resource envelope: the trio members all admit
        individually."""
        for name in TRIO:
            report = admit([name])
            assert report.ok, report.format()
