"""Tests for the tenant-isolation oracle and the combined-artifact lint."""

import dataclasses

from repro.tenancy import SharedSwitchBudget, build_tenant_specs
from repro.tenancy.allocator import DISPATCH_PHV_BYTES, SwitchResourceAllocator
from repro.tenancy.lint import verify_combined
from repro.tenancy.oracle import run_isolation_oracle

TRIO = ["minilb", "mazunat", "lb"]


class TestIsolationOracle:
    def test_trio_is_isolated_byte_exactly(self):
        result = run_isolation_oracle(TRIO, packets_per_tenant=60)
        assert result.ok, result.format()
        assert {v.name for v in result.verdicts} == set(TRIO)
        for verdict in result.verdicts:
            assert verdict.packets == 60
            assert verdict.mismatches == []

    def test_queue_wait_is_the_only_sanctioned_difference(self):
        result = run_isolation_oracle(TRIO, packets_per_tenant=60)
        # Co-residency costs every tenant real output-commit latency...
        assert all(
            v.extra_sync_wait_us > 0.0 for v in result.verdicts
        ), result.format()
        # ...and nothing else (verdicts, egress bytes, final state equal).
        assert result.ok

    def test_result_dict_shape(self):
        result = run_isolation_oracle(TRIO, packets_per_tenant=10)
        data = result.to_dict()
        assert data["ok"] is True
        assert {t["name"] for t in data["tenants"]} == set(TRIO)
        assert set(result.channel) == set(TRIO)
        assert set(result.counters) == set(TRIO)
        assert result.series == {}  # windowing off by default

    def test_series_window_yields_per_tenant_hubs(self):
        result = run_isolation_oracle(
            TRIO, packets_per_tenant=40, series_window_us=100.0
        )
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
        result = run_isolation_oracle(TRIO, packets_per_tenant=20)
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
        report = verify_combined(
            build_tenant_specs(TRIO), SharedSwitchBudget()
        )
        assert report.ok, report.format()
        assert "tenancy[" in report.program

    def test_rejected_tenant_surfaces_as_ten001(self):
        report = verify_combined(
            build_tenant_specs(TRIO + ["firewall", "proxy"]),
            SharedSwitchBudget(),
        )
        assert not report.ok
        codes = [d.code for d in report.diagnostics]
        assert "TEN001" in codes
        rejection = next(
            d for d in report.diagnostics if d.code == "TEN001"
        )
        assert "proxy" in rejection.message
        assert "table_slots" in rejection.message

    def test_duplicate_tenants_surface_as_ten004(self):
        specs = build_tenant_specs(["minilb"])
        report = verify_combined(specs + specs, SharedSwitchBudget())
        assert not report.ok
        assert any(d.code == "TEN004" for d in report.diagnostics)

    def test_admission_and_lint_agree_at_the_depth_boundary(self):
        """Admission and the re-proof of the totals count the dispatch
        stage once: a budget exactly as deep as the trio's deepest
        placement admits it and lints clean; one stage fewer rejects a
        tenant (TEN001) and leaves the totals within budget."""
        specs = build_tenant_specs(TRIO)
        used = SwitchResourceAllocator(SharedSwitchBudget()).admit(specs)
        depth = used.totals()["stages"]
        exact = dataclasses.replace(SharedSwitchBudget(), pipeline_depth=depth)
        assert verify_combined(specs, exact).ok
        short = dataclasses.replace(exact, pipeline_depth=depth - 1)
        codes = [d.code for d in verify_combined(specs, short).diagnostics]
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
            report = verify_combined(specs, budget)
            codes = [d.code for d in report.diagnostics]
            assert codes == ["TEN001", "TEN002"], (axis, codes)
            assert what in report.diagnostics[1].message

    def test_broken_tenant_artifact_surfaces_as_ten003(self):
        """A tenant whose artifact fails the solo resource lint is
        rejected from the combined report with the solo code named."""
        specs = build_tenant_specs(TRIO)
        program = specs[0].program
        program.limits = dataclasses.replace(program.limits, metadata_bytes=0)
        report = verify_combined(specs, SharedSwitchBudget())
        assert not report.ok
        diag = next(d for d in report.diagnostics if d.code == "TEN003")
        assert specs[0].name in diag.message
        assert "P4L007" in diag.message
