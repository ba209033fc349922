"""Tests for the active-standby failover deployment.

Covers the standby's warm replication path, the per-packet register
checkpoint, promotion at the end of a crash window (packet-boundary and
mid-batch), stale-standby repair via the promotion resync, and the
failover-aware fault oracle end to end.
"""

from dataclasses import replace

import pytest

from repro.difftest.oracle import StreamSpec
from repro.faults.injector import FaultInjector
from repro.faults.oracle import FaultOutcome, run_fault_oracle
from repro.faults.plan import (
    CrashDuringBatch,
    FaultPlan,
    PrimarySwitchCrash,
    StandbyStaleReplay,
)
from repro.runtime.degradation import DegradationPolicy
from repro.runtime.deployment import compile_middlebox
from repro.runtime.failover import FailoverDeployment
from repro.runtime.spec import DeploymentSpec
from repro.workloads.packets import make_tcp_packet
from tests.conftest import get_bundle
from tests.faults.test_degradation import FAULTBOX


def build_failover(name="mazunat", plan=None, seed=0, injector_seed=0):
    bundle = get_bundle(name)
    partition_plan, program = compile_middlebox(bundle.lowered)
    policy = DegradationPolicy()
    injector = None
    if plan is not None:
        injector = FaultInjector(plan, seed=injector_seed)
    box = FailoverDeployment(
        partition_plan, program, config=bundle.config, seed=seed,
        policy=policy, injector=injector,
    )
    box.install()
    return box


def outbound(index):
    """One distinct internal flow — every first packet punts (NAT miss)."""
    return make_tcp_packet(
        f"192.168.1.{(index % 250) + 1}", "8.8.4.4", 1000 + index, 80
    )


def drive(box, count, start=0):
    journeys = []
    for index in range(start, start + count):
        journeys.append(box.process_packet(outbound(index), 1))
        journeys.extend(box.drain_deferred())
    return journeys


def table_images(switch):
    return {name: t.snapshot() for name, t in switch.tables.items()}


class TestWarmStandby:
    def test_install_programs_both_switches(self):
        box = build_failover()
        assert table_images(box.redundancy.standby) == table_images(box.switch)
        for name, reg in box.switch.registers.items():
            assert box.redundancy.standby.registers[name].value == reg.value

    def test_committed_batches_replayed(self):
        box = build_failover()
        drive(box, 5)
        assert box.switch.tables["nat_out"].entry_count == 5
        assert table_images(box.redundancy.standby) == table_images(box.switch)
        metrics = box.telemetry.metrics
        assert metrics.counter("failover.standby_batches_replayed").value > 0
        assert metrics.counter("failover.standby_replay_dropped").value == 0

    def test_register_checkpoint_tracks_every_packet(self):
        box = build_failover()
        drive(box, 3)
        # mazunat's port allocator is switch-authoritative; the checkpoint
        # must hold its value as of the last completed packet.
        assert (
            box.redundancy._checkpoint["port_counter"]
            == box.switch.registers["port_counter"].value
        )


class TestPromotion:
    CRASH = FaultPlan((PrimarySwitchCrash(at_packet=3, promotion_window=2),))

    def test_window_runs_on_server_then_promotes(self):
        """Under φ detection the window opens at the crash packet but
        only closes once the detector declares the primary dead — the
        window is contiguous, at least as long as the injected outage,
        and its exact length is the *measured* detection latency."""
        box = build_failover(plan=self.CRASH)
        journeys = drive(box, 12)
        assert box.redundancy.promoted
        assert box.redundancy.standby is None
        assert box.redundancy.failed_primary is not None
        assert box.redundancy.failed_primary is not box.switch
        assert ("promote",) in box.fault_log
        window = [j.packet_index for j in journeys if j.fallback]
        assert window[0] == 3
        assert window == list(range(3, 3 + len(window)))
        assert len(window) >= 2  # nominal outage, extended by detection
        metrics = box.telemetry.metrics
        assert metrics.counter("failover.promotions").value == 1
        assert metrics.counter(
            "failover.promotion_window_packets"
        ).value == len(window)
        # Detection was measured, not forced or free.
        assert metrics.counter("health.detections").value == 1
        assert metrics.counter("health.forced_detections").value == 0
        from repro.telemetry.health import expected_detection_latency_us

        latency = box.redundancy.health.detection_latency_us
        assert latency is not None
        assert 0.0 < latency <= expected_detection_latency_us()

    def test_promoted_switch_resynced_from_server(self):
        box = build_failover(plan=self.CRASH)
        drive(box, 12)
        assert box.redundancy.promoted
        assert (
            box.switch.tables["nat_out"].snapshot()
            == box.state.maps["nat_out"]
        )

    def test_traffic_flows_after_promotion(self):
        box = build_failover(plan=self.CRASH)
        drive(box, 8)
        repeat = box.process_packet(outbound(7), 1)
        assert repeat.fast_path  # flow 7's entry survived the failover
        assert repeat.verdict == "send"

    def test_port_allocations_survive_the_crash(self):
        """The register checkpoint carries the NAT port allocator across
        the crash: no external port is ever handed out twice, even for
        flows served inside the promotion window."""
        box = build_failover(plan=self.CRASH)
        ports = []
        for index in range(8):
            packet = outbound(index)
            box.process_packet(packet, 1)
            box.drain_deferred()
            ports.append(packet.tcp.sport)
        assert len(set(ports)) == len(ports)

    def test_promotion_is_idempotent(self):
        box = build_failover(plan=self.CRASH)
        drive(box, 8)
        box.redundancy.promote()
        assert box.telemetry.metrics.counter("failover.promotions").value == 1


class TestStaleStandby:
    def test_dropped_replays_leave_standby_stale(self):
        plan = FaultPlan((StandbyStaleReplay(probability=1.0),))
        box = build_failover(plan=plan)
        drive(box, 4)
        assert box.switch.tables["nat_out"].entry_count == 4
        assert box.redundancy.standby.tables["nat_out"].entry_count == 0
        metrics = box.telemetry.metrics
        assert metrics.counter("failover.standby_replay_dropped").value == 4
        assert metrics.counter("failover.standby_batches_replayed").value == 0

    def test_promotion_resync_repairs_staleness(self):
        plan = FaultPlan((
            StandbyStaleReplay(probability=1.0, stop=3),
            PrimarySwitchCrash(at_packet=3, promotion_window=2),
        ))
        box = build_failover(plan=plan)
        drive(box, 12)
        assert box.redundancy.promoted
        # The promoted switch missed every pre-crash replay, yet the bulk
        # resync rebuilt it from the server's authoritative copy.
        assert (
            box.switch.tables["nat_out"].snapshot()
            == box.state.maps["nat_out"]
        )


class TestCrashDuringBatch:
    def test_mid_batch_crash_opens_window_next_packet(self):
        plan = FaultPlan((
            CrashDuringBatch(probability=1.0, promotion_window=2,
                             start=2, stop=3),
        ))
        box = build_failover(plan=plan)
        journeys = drive(box, 12)
        assert box.redundancy.promoted
        assert box.injector.injected.get("crash_during_batch", 0) == 1
        # The crash resolves transactionally first (packet 2's batch either
        # commits via roll-forward or aborts); the promotion window then
        # covers the *next* packets, for as long as φ detection takes.
        window = [j.packet_index for j in journeys if j.fallback]
        assert window[0] == 3
        assert window == list(range(3, 3 + len(window)))
        assert len(window) >= 2

    def test_multi_table_batch_rolls_back_through_crash(self):
        """mazunat's first-punt batch touches both NAT tables plus the
        port register; the mid-batch crash durably lands only a strict
        prefix, so the undo log must roll the batch back byte-exactly,
        degrade the packet, and keep switch and server in lockstep."""
        plan = FaultPlan((
            CrashDuringBatch(probability=1.0, promotion_window=1,
                             start=0, stop=1),
        ))
        box = build_failover(plan=plan)
        journeys = drive(box, 4)
        metrics = box.telemetry.metrics
        assert metrics.counter(
            "control_plane.batches_rolled_back"
        ).value == 1
        assert journeys[0].verdict == "drop"  # output commit held it back
        # φ detection keeps the promotion window open past the crash;
        # drive on until the standby has taken over.
        driven = 4
        while not box.redundancy.promoted and driven < 40:
            drive(box, 1, start=driven)
            driven += 1
        assert box.redundancy.promoted
        # The rolled-back flow never landed anywhere; later flows did, and
        # both sides agree exactly after the promotion resync.
        assert (
            box.switch.tables["nat_out"].snapshot()
            == box.state.maps["nat_out"]
        )
        assert len(box.state.maps["nat_out"]) == driven - 1


FAILOVER = DeploymentSpec(standby_detection="phi")


class TestFailoverOracle:
    def test_switch_crash_degraded_ok(self):
        result = run_fault_oracle(
            FAULTBOX, StreamSpec(seed=1, count=20),
            FaultPlan((PrimarySwitchCrash(at_packet=4, promotion_window=3),)),
            policy=DegradationPolicy(),
            deployment=FAILOVER,
        )
        assert result.outcome is FaultOutcome.DEGRADED_OK, result.violation
        assert result.violation is None

    def test_stale_standby_then_crash_degraded_ok(self):
        result = run_fault_oracle(
            FAULTBOX, StreamSpec(seed=2, count=20),
            FaultPlan((
                StandbyStaleReplay(probability=1.0, stop=6),
                PrimarySwitchCrash(at_packet=6, promotion_window=3),
            )),
            policy=DegradationPolicy(),
            deployment=FAILOVER,
        )
        assert result.outcome is FaultOutcome.DEGRADED_OK, result.violation

    def test_crash_batch_degraded_ok(self):
        result = run_fault_oracle(
            FAULTBOX, StreamSpec(seed=3, count=20),
            FaultPlan((
                CrashDuringBatch(probability=0.6, promotion_window=3),
            )),
            policy=DegradationPolicy(),
            deployment=FAILOVER,
        )
        assert result.outcome in (
            FaultOutcome.DEGRADED_OK, FaultOutcome.CLEAN
        ), result.violation

    def test_cached_and_failover_compose(self):
        # A bounded cache and a standby are independent roles of one
        # deployment spec (DESIGN.md, "Deployment roles"): set together,
        # both run in the one packet loop, end to end.
        result = run_fault_oracle(
            FAULTBOX, StreamSpec(seed=1, count=5), FaultPlan(),
            deployment=replace(FAILOVER, cache_entries=2),
        )
        assert result.outcome == FaultOutcome.CLEAN, (
            result.violation or result.error
        )
        assert result.deployment == replace(FAILOVER, cache_entries=2)
