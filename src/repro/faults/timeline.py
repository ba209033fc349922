"""Discrete-event timeline of an outage + recovery on the punt path.

The campaign (packet-indexed, semantics-first) proves *what* the
deployment does under faults; this module models *when* — driving the
:class:`repro.sim.Simulator` through a server outage to get recovery
time, queue occupancy, and the latency the fault adds to punted packets.
It feeds the fault-recovery experiment table
(:func:`repro.eval.experiments.fault_recovery`).

Model: punts arrive at a fixed inter-arrival time and need one service
slot each (server run + state-sync batch, Table 3).  During the outage
window punts queue up to the policy's bounded depth (beyond it they are
dropped — the deployment's ``queue_overflow`` degradation); when the
server returns the backlog drains at the service rate while new punts
keep arriving.  Recovery is complete when the queue first empties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.sim.events import Simulator
from repro.switchsim.control_plane import expected_batch_latency_us
from repro.telemetry.metrics import Histogram

#: Bucket bounds (µs) for the outage-latency histogram — punt latencies
#: range from one service slot (~hundreds of µs) up to the longest outage
#: plus drain (~tens of ms).
TIMELINE_BOUNDS_US = (
    100.0, 200.0, 500.0, 1_000.0, 2_000.0, 5_000.0,
    10_000.0, 20_000.0, 50_000.0, 100_000.0,
)


#: per-punt service time (µs): server run + replication batch
SERVICE_US = expected_batch_latency_us(1, "modify")
#: when the server goes down (µs into the run)
OUTAGE_START_US = 1_000.0


def _latency_histogram() -> Histogram:
    return Histogram("timeline.latency_us", TIMELINE_BOUNDS_US)


@dataclass
class OutageScenario:
    """One punt-path outage to simulate."""

    #: punt inter-arrival time (µs) — the slow-path load
    arrival_interval_us: float = 50.0
    #: how long it stays down (µs)
    outage_us: float = 10_000.0
    #: bounded punt-queue depth (DegradationPolicy.punt_queue_depth)
    queue_depth: int = 32
    #: total punts driven through the timeline
    punts: int = 2_000

    def describe(self) -> str:
        return (
            f"outage={self.outage_us / 1000:.0f}ms"
            f" queue={self.queue_depth}"
            f" load=1/{self.arrival_interval_us:.0f}µs"
        )


@dataclass
class RecoveryTimeline:
    """What the simulation observed."""

    scenario: OutageScenario
    served: int = 0
    dropped: int = 0
    max_queue: int = 0
    #: µs after the server returned until the backlog first emptied
    recovery_us: float = 0.0
    #: per-served-punt latency distribution (completion − arrival, µs) —
    #: a registry histogram, so the percentile math lives in one place
    #: (:meth:`repro.telemetry.metrics.Histogram.percentile`).
    latency: Histogram = field(default_factory=_latency_histogram)

    @property
    def baseline_latency_us(self) -> float:
        """Fault-free punt latency (service only, no queueing)."""
        return SERVICE_US

    def added_p99_us(self) -> float:
        return max(0.0, self.latency.percentile(0.99) - self.baseline_latency_us)


def simulate_outage(scenario: OutageScenario) -> RecoveryTimeline:
    """Run one outage scenario on the discrete-event engine."""
    sim = Simulator()
    timeline = RecoveryTimeline(scenario)
    outage_end = OUTAGE_START_US + scenario.outage_us
    queue: List[float] = []  # arrival times of waiting punts
    state = {"busy": False, "recovered_at": None}

    def server_up(now: float) -> bool:
        return not (OUTAGE_START_US <= now < outage_end)

    def start_service(arrival_time: float) -> None:
        state["busy"] = True

        def complete() -> None:
            timeline.served += 1
            timeline.latency.observe(sim.now - arrival_time)
            state["busy"] = False
            pump()

        sim.schedule(SERVICE_US, complete)

    def pump() -> None:
        """Serve the head of the queue if the server is free."""
        if state["busy"] or not server_up(sim.now):
            return
        if queue:
            start_service(queue.pop(0))
        elif (
            state["recovered_at"] is None and sim.now >= outage_end
        ):
            # Backlog just emptied for the first time post-outage.
            state["recovered_at"] = sim.now
            timeline.recovery_us = sim.now - outage_end

    def arrive() -> None:
        if state["busy"] or not server_up(sim.now):
            if len(queue) >= scenario.queue_depth:
                timeline.dropped += 1
            else:
                queue.append(sim.now)
                timeline.max_queue = max(timeline.max_queue, len(queue))
        else:
            start_service(sim.now)

    for index in range(scenario.punts):
        sim.schedule_at(index * scenario.arrival_interval_us, arrive)
    sim.schedule_at(outage_end, pump)  # the server comes back
    sim.run()
    if state["recovered_at"] is None:
        # Queue never emptied before the arrivals stopped; recovery ends
        # when the last punt finishes.
        timeline.recovery_us = max(0.0, sim.now - outage_end)
    return timeline

