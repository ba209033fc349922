"""Heartbeat-driven health detection: φ-accrual math, the deployment-
facing monitor lifecycle, the measured-latency probe, and a seeded
100-scenario primary-crash campaign clean under the modeled detector."""

import math

import pytest

from repro.difftest.oracle import StreamSpec
from repro.faults.oracle import FaultOutcome, run_fault_oracle
from repro.faults.plan import FaultPlan, PrimarySwitchCrash
from repro.runtime.degradation import DegradationPolicy
from repro.runtime.spec import DeploymentSpec
from repro.telemetry.health import (
    HEARTBEAT_INTERVAL_US,
    MIN_STD_US,
    PHI_THRESHOLD,
    HealthMonitor,
    PhiAccrualDetector,
    expected_detection_latency_us,
    measure_detection_latency,
    phi_inverse_z,
)
from repro.telemetry.metrics import MetricsRegistry
from tests.faults.test_degradation import FAULTBOX


class TestDetectorMath:
    def test_phi_zero_before_first_beat(self):
        assert PhiAccrualDetector().phi(100.0) == 0.0

    def test_phi_grows_with_silence(self):
        detector = PhiAccrualDetector()
        detector.heartbeat(0.0)
        values = [detector.phi(t) for t in (2.0, 6.0, 10.0, 20.0)]
        assert values == sorted(values)
        assert values[-1] > 3.0

    def test_phi_low_right_after_a_beat(self):
        detector = PhiAccrualDetector()
        detector.heartbeat(0.0)
        detector.heartbeat(4.0)
        assert detector.phi(4.5) < 1.0

    def test_std_floor_applies_to_regular_beats(self):
        detector = PhiAccrualDetector()
        for t in (0.0, 4.0, 8.0, 12.0):
            detector.heartbeat(t)
        _, std = detector.mean_std()
        assert std == MIN_STD_US

    def test_phi_saturates_finite(self):
        detector = PhiAccrualDetector()
        detector.heartbeat(0.0)
        assert detector.phi(1e6) == 12.0

    def test_phi_inverse_z_matches_definition(self):
        for threshold in (1.0, 3.0, 5.0):
            z = phi_inverse_z(threshold)
            p_later = 0.5 * math.erfc(z / math.sqrt(2.0))
            assert -math.log10(p_later) == pytest.approx(threshold,
                                                         abs=1e-6)

    def test_expected_bound_is_interval_plus_z_sigma(self):
        bound = expected_detection_latency_us()
        assert bound == pytest.approx(
            HEARTBEAT_INTERVAL_US + phi_inverse_z(PHI_THRESHOLD) * MIN_STD_US
        )
        # Default calibration: ~7.09 µs — a handful of fallback packets.
        assert 6.0 < bound < 8.0


class TestHealthMonitor:
    def make(self):
        metrics = MetricsRegistry()
        return metrics, HealthMonitor(metrics)

    def test_beat_until_synthesizes_the_interval_grid(self):
        metrics, monitor = self.make()
        monitor.beat_until(10.0)  # beats at 0, 4, 8
        assert metrics.counter_value("health.heartbeats") == 3
        monitor.beat_until(10.0)  # idempotent inside the same interval
        assert metrics.counter_value("health.heartbeats") == 3

    def test_crash_is_detected_only_after_phi_crosses(self):
        metrics, monitor = self.make()
        monitor.beat_until(10.0)
        monitor.mark_crashed(10.0)
        assert monitor.crash_detected(11.0) is False
        assert metrics.counter_value("health.detections") == 0
        bound = expected_detection_latency_us()
        assert monitor.crash_detected(10.0 + bound + 1.0) is True
        assert metrics.counter_value("health.detections") == 1
        assert metrics.counter_value("health.forced_detections") == 0
        latency = monitor.detection_latency_us
        assert 0.0 < latency <= bound + 1.0
        # Latches: further polls stay true, no double booking.
        assert monitor.crash_detected(1e6) is True
        assert metrics.counter_value("health.detections") == 1

    def test_no_beats_synthesized_while_crashed(self):
        metrics, monitor = self.make()
        monitor.mark_crashed(2.0)  # beat at 0 only
        beats = metrics.counter_value("health.heartbeats")
        monitor.beat_until(50.0)
        assert metrics.counter_value("health.heartbeats") == beats

    def test_vacuously_true_with_no_crash(self):
        _, monitor = self.make()
        assert monitor.crash_detected(5.0) is True

    def test_force_detect_books_forced_not_detected(self):
        metrics, monitor = self.make()
        monitor.mark_crashed(4.0)
        monitor.force_detect(5.0)
        assert metrics.counter_value("health.detections") == 0
        assert metrics.counter_value("health.forced_detections") == 1
        assert monitor.detection_latency_us == pytest.approx(1.0)

    def test_revive_resumes_heartbeats(self):
        metrics, monitor = self.make()
        monitor.mark_crashed(6.0)
        monitor.crash_detected(6.0 + 20.0)
        monitor.revive(30.0)
        assert monitor.crash_detected(30.0) is True  # no crash outstanding
        before = metrics.counter_value("health.heartbeats")
        monitor.beat_until(30.0 + 2 * HEARTBEAT_INTERVAL_US)
        assert metrics.counter_value("health.heartbeats") == before + 2


class TestMeasuredLatency:
    def test_probe_detects_within_bound(self):
        report = measure_detection_latency()
        assert report["detections"] == 1
        assert report["forced_detections"] == 0
        assert report["promotions"] == 1
        bound = report["expected_bound_us"] + HEARTBEAT_INTERVAL_US
        assert 0.0 < report["detection_latency_us"] <= bound

    def test_probe_is_deterministic(self):
        assert measure_detection_latency() == measure_detection_latency()


class TestPrimaryCrashCampaign:
    def test_hundred_seeded_crash_scenarios_clean_under_phi(self):
        """Acceptance: ≥100 seeded primary-crash scenarios must converge
        (CLEAN or DEGRADED_OK, never a violation) with promotion driven
        by the modeled φ detector rather than the exact fault boundary."""
        outcomes = []
        for scenario in range(100):
            crash_at = 2 + scenario % 9
            window = 1 + scenario % 4
            result = run_fault_oracle(
                FAULTBOX, StreamSpec(seed=scenario, count=16),
                FaultPlan((PrimarySwitchCrash(
                    at_packet=crash_at, promotion_window=window,
                ),)),
                policy=DegradationPolicy(),
                deployment=DeploymentSpec(standby_detection="phi"),
                provenance=False,
            )
            assert result.outcome in (
                FaultOutcome.CLEAN, FaultOutcome.DEGRADED_OK
            ), (scenario, result.outcome, result.violation, result.error)
            assert result.violation is None, (scenario, result.violation)
            outcomes.append(result.outcome)
        # The campaign must actually exercise the degraded path.
        assert outcomes.count(FaultOutcome.DEGRADED_OK) >= 90
