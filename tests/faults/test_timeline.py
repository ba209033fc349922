"""Tests for the outage/recovery discrete-event timeline."""

import pytest

from repro.faults.timeline import (
    SERVICE_US,
    OutageScenario,
    RecoveryTimeline,
    simulate_outage,
)


class TestSimulateOutage:
    def test_no_outage_no_drops(self):
        scenario = OutageScenario(
            arrival_interval_us=500.0, outage_us=0.0, punts=100
        )
        timeline = simulate_outage(scenario)
        assert timeline.served == 100
        assert timeline.dropped == 0
        # An unloaded, fault-free punt costs exactly one service slot —
        # the histogram percentile clamps to the observed maximum, so a
        # constant population reports its true value.
        assert timeline.latency.percentile(0.99) == pytest.approx(SERVICE_US)
        assert timeline.added_p99_us() == pytest.approx(0.0)

    def test_conservation(self):
        timeline = simulate_outage(OutageScenario(punts=500))
        assert timeline.served + timeline.dropped == 500

    def test_queue_bounded_by_policy(self):
        timeline = simulate_outage(OutageScenario(queue_depth=16))
        assert timeline.max_queue <= 16

    def test_long_outage_overflows_small_queue(self):
        timeline = simulate_outage(OutageScenario(
            arrival_interval_us=50.0, outage_us=20_000.0, queue_depth=4,
        ))
        assert timeline.dropped > 0
        assert timeline.max_queue == 4

    def test_deeper_queue_trades_drops_for_latency(self):
        shallow = simulate_outage(OutageScenario(queue_depth=4))
        deep = simulate_outage(OutageScenario(queue_depth=128))
        assert deep.dropped < shallow.dropped
        assert deep.added_p99_us() > shallow.added_p99_us()

    def test_recovery_time_grows_with_outage(self):
        # Arrivals slower than service, so the backlog is purely the
        # outage's doing and drains after it ends.
        short = simulate_outage(OutageScenario(
            arrival_interval_us=200.0, outage_us=2_000.0, queue_depth=1_000,
        ))
        long = simulate_outage(OutageScenario(
            arrival_interval_us=200.0, outage_us=20_000.0, queue_depth=1_000,
        ))
        assert long.recovery_us > short.recovery_us

    def test_deterministic(self):
        runs = [simulate_outage(OutageScenario()) for _ in range(2)]
        assert runs[0].served == runs[1].served
        assert runs[0].latency.to_dict() == runs[1].latency.to_dict()
        assert runs[0].recovery_us == runs[1].recovery_us


class TestPercentiles:
    def test_empty_timeline(self):
        timeline = RecoveryTimeline(OutageScenario())
        assert timeline.latency.percentile(0.99) == 0.0

    def test_percentile_ordering(self):
        timeline = RecoveryTimeline(OutageScenario())
        for value in range(100):
            timeline.latency.observe(float(value))
        assert timeline.latency.percentile(0.5) <= timeline.latency.percentile(
            0.99
        )
