"""Tests for the resource-constraint model."""

import pytest

from repro.partition.constraints import ConstraintReport, SwitchResources


class TestSwitchResources:
    def test_tofino_like_defaults(self):
        limits = SwitchResources.tofino_like()
        assert limits.memory_bytes == 16 * 1024 * 1024
        assert 10 <= limits.pipeline_depth <= 20
        assert limits.metadata_bytes < 200  # "less than a few hundred bytes"
        assert limits.transfer_bytes == 20  # paper's constraint-5 budget

    def test_tiny_is_strictly_smaller(self):
        tiny = SwitchResources.tiny()
        full = SwitchResources.tofino_like()
        assert tiny.memory_bytes < full.memory_bytes
        assert tiny.pipeline_depth < full.pipeline_depth
        assert tiny.metadata_bytes < full.metadata_bytes
        assert tiny.transfer_bytes < full.transfer_bytes

    def test_frozen(self):
        with pytest.raises(Exception):
            SwitchResources().memory_bytes = 1


class TestConstraintReport:
    def test_clean_report_satisfied(self):
        report = ConstraintReport(
            memory_bytes=100, pipeline_depth_pre=3, pipeline_depth_post=2,
            metadata_bytes_pre=10, metadata_bytes_post=5,
            transfer_bytes_to_server=8, transfer_bytes_to_switch=4,
            state_access_sites={"m": 1},
        )
        assert report.violations(SwitchResources()) == []

    def test_each_constraint_reported(self):
        limits = SwitchResources(
            memory_bytes=10, pipeline_depth=2, metadata_bytes=4,
            transfer_bytes=2,
        )
        report = ConstraintReport(
            memory_bytes=100,
            pipeline_depth_pre=5,
            metadata_bytes_pre=9,
            transfer_bytes_to_server=7,
            state_access_sites={"m": 3},
        )
        violations = "\n".join(report.violations(limits))
        for marker in ("constraint 1", "constraint 2", "constraint 3",
                       "constraint 4", "constraint 5"):
            assert marker in violations

    def test_post_depth_checked_too(self):
        limits = SwitchResources(pipeline_depth=3)
        report = ConstraintReport(pipeline_depth_post=9)
        assert any(
            "constraint 2" in v for v in report.violations(limits)
        )

    def test_single_access_site_not_a_violation(self):
        report = ConstraintReport(state_access_sites={"a": 1, "b": 1})
        assert not report.violations(SwitchResources())
