"""Heartbeat-driven health detection (φ-accrual failure detector).

Standby promotion used to be driven by the fault window's packet
boundary — detection was free and exact.  This module makes detection a
*measured* quantity: the primary switch emits control-channel
heartbeats on a fixed simulated cadence, a φ-accrual detector (Hayashibara
et al., "The φ accrual failure detector") keeps a sliding window of
inter-arrival samples, and suspicion is the continuous quantity

    φ(t) = -log10( P(next heartbeat arrives after t) )

under a normal model of the inter-arrival distribution.  The
:class:`FailoverDeployment` promotes its standby only once φ crosses
:data:`PHI_THRESHOLD` — so the promotion window now lasts
``max(exact window, detection latency)`` and ``experiments recovery``
prices a measured number instead of sweeping a hypothetical one.  φ is
the one detector: the exact packet-boundary detection is gone.

Heartbeats and detections flow through the metrics registry
(``health.*``), so the time-series layer can window them like any other
signal.  Everything is simulated-clock-deterministic: beats are
synthesized on the interval grid, φ is evaluated at packet boundaries,
and the default calibration (4 µs beats, std floor 1 µs, threshold 3)
detects a crash ≈3–7 µs after the last beat — a handful of fallback
packets, comparable to the ≥1 ms real-world detection floor once scaled
by the sim's nominal constants.

``python -m repro.telemetry.health`` runs the seeded-crash smoke used
by ``make obs-smoke``: a failover deployment with a primary crash must
fire the φ detector (not the forced end-of-run path) within the
calibrated bound.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional, Tuple

from repro.telemetry.metrics import MetricsRegistry

#: Control-channel heartbeat cadence in simulated µs.
HEARTBEAT_INTERVAL_US = 4.0
#: φ threshold for declaring the primary dead (φ = 3 ⇔ the chance the
#: beat is merely late is 1 in 10³).
PHI_THRESHOLD = 3.0
#: Floor on the modeled inter-arrival std-dev: perfectly regular
#: simulated beats would otherwise make φ a step function.
MIN_STD_US = 1.0
#: Sliding window of inter-arrival samples.
SAMPLE_WINDOW = 16
#: Bucket bounds (µs) for the measured detection-latency histogram.
DETECTION_BOUNDS_US: Tuple[float, ...] = (
    2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 48.0,
)

#: φ saturates here (P floored at 1e-12) so late evaluations stay finite.
_PHI_CEILING = 12.0
#: Subject of the seeded crash probe and of the recovery tables built on it.
RECOVERY_MIDDLEBOX = "mazunat"


class PhiAccrualDetector:
    """φ-accrual suspicion over heartbeat inter-arrival times."""

    def __init__(self):
        self._samples: Deque[float] = deque(maxlen=SAMPLE_WINDOW)
        self._last_beat: Optional[float] = None
        # Pre-seed with the nominal cadence so the very first crash is
        # detectable — a cold detector has no distribution to suspect
        # against (standard φ-accrual bootstrap).
        for _ in range(SAMPLE_WINDOW):
            self._samples.append(HEARTBEAT_INTERVAL_US)

    def heartbeat(self, now_us: float) -> None:
        if self._last_beat is not None:
            self._samples.append(now_us - self._last_beat)
        self._last_beat = now_us

    def mean_std(self) -> Tuple[float, float]:
        samples = self._samples
        mean = sum(samples) / len(samples)
        variance = sum((s - mean) ** 2 for s in samples) / len(samples)
        std = max(math.sqrt(variance), MIN_STD_US)
        return mean, std

    def phi(self, now_us: float) -> float:
        """Current suspicion level; 0.0 until the first beat arrives."""
        if self._last_beat is None:
            return 0.0
        elapsed = now_us - self._last_beat
        mean, std = self.mean_std()
        z = (elapsed - mean) / std
        p_later = 0.5 * math.erfc(z / math.sqrt(2.0))
        return min(-math.log10(max(p_later, 1e-12)), _PHI_CEILING)


def phi_inverse_z(threshold: float) -> float:
    """The z-score at which φ crosses ``threshold``.

    Solves ``-log10(0.5 * erfc(z / sqrt(2))) = threshold`` by bisection
    (the stdlib has no inverse erfc); deterministic to ~1e-9.
    """
    target = 10.0 ** (-threshold)

    def p_later(z: float) -> float:
        return 0.5 * math.erfc(z / math.sqrt(2.0))

    lo, hi = -10.0, 40.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if p_later(mid) > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def expected_detection_latency_us() -> float:
    """Closed-form worst-case detection latency from the last heartbeat:
    the elapsed time at which φ reaches the threshold under the nominal
    calibration (mean = interval, std = the floor)."""
    return HEARTBEAT_INTERVAL_US + phi_inverse_z(PHI_THRESHOLD) * MIN_STD_US


class HealthMonitor:
    """Deployment-facing wrapper: synthesizes the heartbeat stream over
    simulated time and books detections into the metrics registry.

    The failover deployment ticks :meth:`beat_until` once per packet;
    while the primary is alive that synthesizes every control-channel
    beat on the interval grid (beats between packets are not lost — the
    grid is a pure function of simulated time).  On a crash the
    deployment calls :meth:`mark_crashed`; the window-exit check polls
    :meth:`crash_detected` each packet until φ crosses the threshold,
    at which point the measured latency lands in
    ``health.detection_latency_us``.
    """

    def __init__(self, metrics: MetricsRegistry):
        self.detector = PhiAccrualDetector()
        self._alive = True
        self._crash_at: Optional[float] = None
        self._detected = False
        self._next_beat_us = 0.0
        self._last_latency: Optional[float] = None
        self._c_beats = metrics.counter("health.heartbeats")
        self._c_detections = metrics.counter("health.detections")
        self._c_forced = metrics.counter("health.forced_detections")
        self._g_phi = metrics.gauge("health.phi")
        self._h_latency = metrics.histogram(
            "health.detection_latency_us", DETECTION_BOUNDS_US
        )

    # -- heartbeat stream -------------------------------------------------

    def beat_until(self, now_us: float) -> None:
        """Synthesize every heartbeat due by ``now_us`` (alive only)."""
        if not self._alive:
            return
        while self._next_beat_us <= now_us:
            self.detector.heartbeat(self._next_beat_us)
            self._c_beats.inc()
            self._next_beat_us += HEARTBEAT_INTERVAL_US

    # -- crash lifecycle --------------------------------------------------

    def mark_crashed(self, now_us: float) -> None:
        """The primary went quiet at ``now_us`` (ground truth; the
        detector only learns of it through missing beats)."""
        if self._crash_at is not None:
            return
        self.beat_until(now_us)
        self._alive = False
        self._crash_at = now_us
        self._detected = False

    def crash_detected(self, now_us: float) -> bool:
        """Whether the detector has (yet) declared the primary dead.

        Latches true once φ crosses the threshold and records the
        measured detection latency.  Vacuously true with no crash
        pending, so callers can use it as a plain gate.
        """
        if self._crash_at is None or self._detected:
            return True
        phi = self.detector.phi(now_us)
        self._g_phi.set(phi)
        if phi < PHI_THRESHOLD:
            return False
        self._detected = True
        self._record_latency(now_us)
        self._c_detections.inc()
        return True

    def force_detect(self, now_us: float) -> None:
        """End-of-run backstop: declare the crash detected even if the
        stream ended before φ crossed (books a *forced* detection so
        campaigns can tell the difference)."""
        if self._crash_at is None or self._detected:
            return
        self._detected = True
        self._record_latency(now_us)
        self._c_forced.inc()

    def revive(self, now_us: float) -> None:
        """A standby was promoted: heartbeats resume from ``now_us``."""
        self._alive = True
        self._crash_at = None
        self._detected = False
        self._g_phi.set(0.0)
        self.detector = PhiAccrualDetector()
        self.detector.heartbeat(now_us)
        self._next_beat_us = now_us + HEARTBEAT_INTERVAL_US

    def _record_latency(self, now_us: float) -> None:
        latency = max(now_us - self._crash_at, 0.0)
        self._last_latency = latency
        self._h_latency.observe(latency)

    @property
    def detection_latency_us(self) -> Optional[float]:
        """Latency of the most recent detection (measured), if any."""
        return self._last_latency


def measure_detection_latency() -> dict:
    """Drive the seeded primary-crash scenario — mazunat, 40 iperf
    packets, the primary dead at packet 8 for a window of 2 — and report
    the measured φ-accrual detection latency (the ``experiments recovery``
    probe and the ``make obs-smoke`` detector check share this)."""
    from itertools import islice

    from repro.faults.plan import FaultPlan, PrimarySwitchCrash
    from repro.runtime.failover import FailoverDeployment
    from repro.runtime.deployment import compile_middlebox
    from repro.faults.injector import FaultInjector
    from repro.middleboxes import load
    from repro.workloads import IperfWorkload, middlebox_stream

    name, packets, crash_at, window, seed = RECOVERY_MIDDLEBOX, 40, 8, 2, 0
    lowered = load(name).lowered
    plan, program = compile_middlebox(lowered)
    fault_plan = FaultPlan((
        PrimarySwitchCrash(at_packet=crash_at, promotion_window=window),
    ))
    deployment = FailoverDeployment(
        plan, program, seed=seed,
        injector=FaultInjector(fault_plan, seed=seed),
    )
    deployment.install()
    stream = islice(middlebox_stream(name, IperfWorkload()), packets)
    for packet, ingress in stream:
        deployment.process_packet(packet.copy(), ingress)
        deployment.drain_deferred()
    deployment.recover()
    deployment.drain_deferred()
    metrics = deployment.telemetry.metrics
    monitor = deployment.redundancy.health  # detection is "phi": never None
    return {
        "middlebox": name,
        "crash_at_packet": crash_at,
        "promotion_window": window,
        "heartbeats": metrics.counter_value("health.heartbeats"),
        "detections": metrics.counter_value("health.detections"),
        "forced_detections": metrics.counter_value(
            "health.forced_detections"
        ),
        "detection_latency_us": (
            round(monitor.detection_latency_us, 3)
            if monitor.detection_latency_us is not None else None
        ),
        "expected_bound_us": round(
            expected_detection_latency_us(), 3
        ),
        "promotions": metrics.counter_value("failover.promotions"),
    }


def _smoke() -> int:
    """Seeded-crash detector smoke (``make obs-smoke``)."""
    report = measure_detection_latency()
    bound = report["expected_bound_us"] + HEARTBEAT_INTERVAL_US
    ok = (
        report["detections"] == 1
        and report["forced_detections"] == 0
        and report["promotions"] == 1
        and report["detection_latency_us"] is not None
        and 0.0 < report["detection_latency_us"] <= bound
    )
    status = "ok" if ok else "FAIL"
    print(
        f"health smoke [{status}]: crash at packet"
        f" {report['crash_at_packet']},"
        f" {report['heartbeats']} heartbeats,"
        f" detected={report['detections']}"
        f" forced={report['forced_detections']}"
        f" latency={report['detection_latency_us']}us"
        f" (bound {round(bound, 3)}us)"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(_smoke())
