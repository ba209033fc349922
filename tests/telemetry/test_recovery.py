"""Satellite: fault-timeline outage windows feed the capacity model, so
``experiments recovery`` prices fallback mode in Gbps."""

import pytest

from repro.eval.experiments import fault_recovery


@pytest.fixture(scope="module")
def table():
    return fault_recovery()


class TestRecoveryGbps:
    def test_throughput_columns_present(self, table):
        header, rows = table
        assert header[-3:] == [
            "Normal Gbps", "Fallback Gbps", "Effective Gbps"
        ]
        assert len(rows) == 9

    def test_fallback_costs_throughput(self, table):
        _, rows = table
        for row in rows:
            normal, fallback, effective = row[-3:]
            assert fallback < normal
            assert fallback <= effective <= normal

    def test_longer_outages_cost_more(self, table):
        _, rows = table
        # Same queue depth (32), growing outage: effective Gbps shrinks.
        by_outage = [row[-1] for row in rows if "queue=32" in row[0]]
        assert by_outage == sorted(by_outage, reverse=True)
        assert by_outage[0] > by_outage[-1]
