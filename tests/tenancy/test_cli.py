"""Tests for ``python -m repro tenancy``."""

import json

import pytest

from repro.cli import main
from repro.tenancy.allocator import DISPATCH_STAGES


class TestTenancyCommand:
    def test_default_trio_passes(self, capsys):
        assert main(["tenancy", "--packets", "25"]) == 0
        out = capsys.readouterr().out
        assert "isolation: PASS" in out
        assert "shared channel:" in out
        for name in ("minilb", "mazunat", "lb"):
            assert name in out

    def test_admit_only_skips_the_workload(self, capsys):
        assert main(["tenancy", "--admit-only"]) == 0
        out = capsys.readouterr().out
        assert "isolation" not in out
        assert "admit minilb" in out

    def test_json_payload_validates_against_schema(self, capsys):
        assert main(["tenancy", "--packets", "10", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        from repro.telemetry.schema import check

        check(payload, "tenancy", what="tenancy report")  # must not raise
        assert payload["isolation"]["ok"] is True
        assert payload["packets_per_tenant"] == 10
        # Per-tenant windowed series ride along in the JSON report.
        assert set(payload["series"]) == {"minilb", "mazunat", "lb"}
        for name, hub in payload["series"].items():
            assert hub["tenant"] == name
            assert "control_plane.rpc_queue_wait_us" in hub["series"]

    def test_series_window_zero_disables_windowing(self, capsys):
        assert main([
            "tenancy", "--packets", "10", "--json", "--series-window", "0",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["series"] == {}

    def test_over_budget_set_fails_with_diagnostic(self, capsys):
        code = main([
            "tenancy", "minilb", "mazunat", "lb", "firewall", "proxy",
            "--admit-only",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "proxy" in out
        assert "phv_bytes" in out
        assert "TEN001" in out

    def test_budget_overrides_apply(self, capsys):
        code = main([
            "tenancy", "minilb", "--admit-only",
            "--budget-memory", "1024",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "memory_bytes" in out

    def test_a_zero_budget_is_applied_as_given(self, capsys):
        code = main([
            "tenancy", "minilb", "--admit-only", "--json",
            "--budget-phv", "0", "--budget-stages", "0",
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        budget = payload["admission"]["budget"]
        assert (budget["phv_bytes"], budget["pipeline_depth"]) == (0, 0)
        assert payload["admission"]["admitted"] == []
        assert not payload["lint"]["ok"]

    def test_json_budget_reports_the_dispatch_reservation(self, capsys):
        assert main(["tenancy", "--admit-only", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        budget = payload["admission"]["budget"]
        assert budget["dispatch_stages"] == DISPATCH_STAGES
        for placement in payload["admission"]["admitted"]:
            assert placement["stage_first"] > DISPATCH_STAGES
            assert "vlan" not in placement

    @pytest.mark.parametrize("flags", [[], ["--admit-only"]])
    def test_duplicate_tenant_refused_without_a_traceback(self, flags):
        with pytest.raises(SystemExit) as refused:
            main(["tenancy", "minilb", "minilb", *flags])
        assert str(refused.value).startswith("error: TEN004:")
        assert "minilb" in str(refused.value)

    def test_unknown_tenant_rejected(self):
        with pytest.raises(SystemExit, match="not a bundled"):
            main(["tenancy", "nope"])
