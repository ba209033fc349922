"""Tests for the tenant-isolation oracle and the combined-artifact lint."""

import dataclasses

import pytest

from repro.difftest import kernel
from repro.tenancy import SharedSwitchBudget, build_tenant_specs
from repro.tenancy.allocator import DISPATCH_PHV_BYTES, SwitchResourceAllocator
from repro.tenancy.oracle import run_isolation_oracle, run_solo

TRIO = ["minilb", "mazunat", "lb"]


def isolation(names=TRIO, **kwargs):
    return run_isolation_oracle(build_tenant_specs(names), **kwargs)


def lint(specs, budget):
    return SwitchResourceAllocator(budget).admit(specs).lint()


class TestIsolationOracle:
    def test_trio_is_isolated_byte_exactly(self):
        result = isolation(packets_per_tenant=60)
        assert result.ok, result.format()
        assert {v.name for v in result.verdicts} == set(TRIO)
        for verdict in result.verdicts:
            assert verdict.packets == 60
            assert verdict.mismatches == []

    def test_queue_wait_is_the_only_sanctioned_difference(self):
        result = isolation(packets_per_tenant=60)
        # Co-residency costs every tenant real output-commit latency...
        assert all(
            v.extra_sync_wait_us > 0.0 for v in result.verdicts
        ), result.format()
        # ...and nothing else (verdicts, egress bytes, final state equal).
        assert result.ok

    def test_result_dict_shape(self):
        result = isolation(packets_per_tenant=10)
        data = result.to_dict()
        assert data["ok"] is True
        assert {t["name"] for t in data["tenants"]} == set(TRIO)
        assert set(result.channel) == set(TRIO)
        assert set(result.counters) == set(TRIO)
        assert result.series == {}  # windowing off by default

    def test_series_window_yields_per_tenant_hubs(self):
        result = isolation(packets_per_tenant=40, series_window_us=100.0)
        assert result.ok
        assert set(result.series) == set(TRIO)
        for name, hub in result.series.items():
            assert hub["tenant"] == name
            assert hub["window_us"] == 100.0
            # Shared-channel pressure is windowed for every tenant: the
            # punt path commits batches, so the RPC queue-wait series
            # has at least one active window.
            rpc = hub["series"]["control_plane.rpc_queue_wait_us"]
            assert rpc["kind"] == "histogram"
            assert rpc["windows"], hub

    def test_only_admitted_tenants_get_a_verdict(self):
        result = isolation(TRIO + ["firewall", "proxy"], packets_per_tenant=5)
        admitted = {p.name for p in result.admission.admitted}
        assert not result.admission.ok
        assert "proxy" not in admitted
        assert {v.name for v in result.verdicts} == admitted
        assert set(result.counters) == set(result.channel) == admitted
        assert result.ok, result.format()

    def test_the_shared_run_reuses_the_callers_compiles(self, monkeypatch):
        """The caller's compiled specs serve the shared run; only each
        solo reference compiles again."""
        from collections import Counter

        from repro.runtime import deployment as runtime_deployment

        specs = build_tenant_specs(TRIO)
        compiles = Counter()
        compile_middlebox = runtime_deployment.compile_middlebox

        def counting(lowered, *args, **kwargs):
            compiles[lowered.name] += 1
            return compile_middlebox(lowered, *args, **kwargs)

        monkeypatch.setattr(runtime_deployment, "compile_middlebox", counting)
        assert run_isolation_oracle(specs, packets_per_tenant=5).ok
        assert len(compiles) == len(TRIO)
        assert set(compiles.values()) == {1}


class TestSoloReference:
    def test_solo_runs_are_reproducible(self):
        first_journeys, first_state = run_solo("mazunat", 20, 0, False)
        again_journeys, again_state = run_solo("mazunat", 20, 0, False)
        assert len(first_journeys) == 20
        assert [kernel.observe_exact(j) for j in first_journeys] == [
            kernel.observe_exact(j) for j in again_journeys
        ]
        assert first_state == again_state


class TestLeakDetection:
    """Break isolation on purpose; the oracle must name the victim."""

    def test_cross_tenant_register_write_is_caught(self, monkeypatch):
        """``lb``'s fifth packet bumps ``mazunat``'s port allocator — a
        write through the namespace boundary.  Only the multi-tenant run
        goes through ``MultiTenantDeployment.process_packet``, so the solo
        references stay honest."""
        from repro.tenancy.deployment import MultiTenantDeployment

        original = MultiTenantDeployment.process_packet

        def leaky(self, packet, global_port):
            journey = original(self, packet, global_port)
            tenants = {t.name: t for t in self.tenants}
            if len(tenants["lb"].journeys) == 5 and not hasattr(self, "leaked"):
                self.leaked = True
                victim = tenants["mazunat"].middlebox.switch
                victim.registers["port_counter"].value += 1
            return journey

        monkeypatch.setattr(MultiTenantDeployment, "process_packet", leaky)
        result = isolation(packets_per_tenant=20)
        assert not result.ok
        verdicts = {v.name: v for v in result.verdicts}
        assert verdicts["lb"].isolated and verdicts["minilb"].isolated
        victim = verdicts["mazunat"]
        assert not victim.isolated
        assert any(
            "final state" in m and "register 'port_counter'" in m
            and "multi=" in m and "solo=" in m
            for m in victim.mismatches
        ), victim.mismatches
        assert "VIOLATION" in result.format()


class TestCombinedLint:
    def test_trio_combined_artifact_is_clean(self):
        report = lint(build_tenant_specs(TRIO), SharedSwitchBudget())
        assert report.ok, report.format()
        assert report.program == "tenancy[lb+mazunat+minilb]"

    def test_rejected_tenant_surfaces_as_ten001(self):
        report = lint(
            build_tenant_specs(TRIO + ["firewall", "proxy"]),
            SharedSwitchBudget(),
        )
        assert not report.ok
        codes = [d.code for d in report.diagnostics]
        assert "TEN001" in codes
        rejections = [d for d in report.diagnostics if d.code == "TEN001"]
        assert [d.function for d in rejections] == ["minilb", "proxy"]
        for rejection in rejections:
            assert rejection.function in rejection.message
            assert "phv_bytes" in rejection.message

    def test_duplicate_tenants_surface_as_ten004(self):
        specs = build_tenant_specs(["minilb"])
        with pytest.raises(ValueError, match="^TEN004: .*minilb"):
            lint(specs + specs, SharedSwitchBudget())

    def test_admission_and_lint_agree_at_the_depth_boundary(self):
        """Admission and the re-proof of the totals count the dispatch
        stage once: a budget exactly as deep as the trio's deepest
        placement admits it and lints clean; one stage fewer rejects a
        tenant (TEN001) and leaves the totals within budget."""
        specs = build_tenant_specs(TRIO)
        used = SwitchResourceAllocator(SharedSwitchBudget()).admit(specs)
        depth = used.totals()["stages"]
        exact = dataclasses.replace(SharedSwitchBudget(), pipeline_depth=depth)
        assert lint(specs, exact).ok
        short = dataclasses.replace(exact, pipeline_depth=depth - 1)
        codes = [d.code for d in lint(specs, short).diagnostics]
        assert "TEN001" in codes and "TEN002" not in codes

    def test_a_budget_its_dispatch_overflows_surfaces_as_ten002(self):
        """Admission proves each tenant fits what the dispatch machinery
        leaves; only the re-proof of the totals sees a budget the dispatch
        alone overflows."""
        specs = build_tenant_specs(["minilb"])
        for axis, what in (
            (dict(pipeline_depth=0), "pipeline depth incl. dispatch 1 > 0"),
            (dict(phv_bytes=DISPATCH_PHV_BYTES - 1), "combined PHV"),
        ):
            budget = dataclasses.replace(SharedSwitchBudget(), **axis)
            report = lint(specs, budget)
            codes = [d.code for d in report.diagnostics]
            assert codes == ["TEN001", "TEN002"], (axis, codes)
            assert what in report.diagnostics[1].message
