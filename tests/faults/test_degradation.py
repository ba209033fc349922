"""Deployment-level graceful degradation under injected faults.

Uses a small connection-tracking middlebox (first packet of a source
address punts and inserts into a replicated table; repeats fast-path) so
every fault interacts with real switch/server state.
"""

import pytest

from repro.difftest.kernel import observe_fields
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    BatchFault,
    FaultPlan,
    LinkFault,
    PuntReorder,
    ServerCrash,
    StaleReplication,
    SwitchReprogram,
    WritebackOverflow,
)
from repro.runtime.degradation import DegradationPolicy, DropAccounting
from repro.runtime.deployment import GalliumMiddlebox, compile_middlebox
from repro.switchsim.control_plane import RetryPolicy
from repro.workloads.packets import make_tcp_packet

FAULTBOX = """
class FaultBox {
  // @gallium: max_entries=65536
  HashMap<uint32_t, uint32_t> conn;
  uint32_t ctr;

  void process(Packet *pkt) {
    iphdr *ip = pkt->network_header();
    uint32_t key = ip->saddr;
    uint32_t *hit = conn.find(&key);
    if (hit != NULL) {
      ip->tos = 1;
      pkt->send();
    } else {
      ctr += 1;
      uint32_t val = ctr;
      conn.insert(&key, &val);
      ip->tos = 2;
      pkt->send();
    }
  }
};
"""

COMPILED = compile_middlebox(FAULTBOX)


def deploy(plan=FaultPlan(), policy=None, injector_seed=0, seed=0):
    partition, program = COMPILED
    policy = policy or DegradationPolicy()
    middlebox = GalliumMiddlebox(
        partition, program, seed=seed,
        policy=policy,
        injector=FaultInjector(plan, seed=injector_seed),
    )
    middlebox.install()
    return middlebox


def packet(host: int):
    return make_tcp_packet(f"10.1.0.{host}", "9.9.9.9", 10, 80)


class TestPuntLoss:
    def test_fail_closed_drops_and_accounts(self):
        middlebox = deploy(FaultPlan((LinkFault(probability=1.0),)))
        journey = middlebox.process_packet(packet(1), 1)
        assert journey.verdict == "drop"
        assert journey.degraded and journey.degraded_reason == "punt_lost"
        assert middlebox.accounting.by_reason == {"punt_lost": 1}
        assert middlebox.accounting.failed_closed == 1

    def test_loss_is_unsalvageable_even_fail_open(self):
        # A lost frame cannot be forwarded by policy: it is gone.
        middlebox = deploy(
            FaultPlan((LinkFault(probability=1.0),)),
            policy=DegradationPolicy(fail_open=True),
        )
        journey = middlebox.process_packet(packet(1), 1)
        assert journey.verdict == "drop"

    def test_fast_path_unaffected(self):
        plan = FaultPlan((LinkFault(probability=1.0, start=1),))
        middlebox = deploy(plan)
        first = middlebox.process_packet(packet(1), 1)
        second = middlebox.process_packet(packet(1), 1)
        assert first.punted and not first.degraded
        assert second.fast_path and not second.degraded

    def test_return_loss_keeps_state_consistent(self):
        middlebox = deploy(
            FaultPlan((LinkFault(direction="to_switch", probability=1.0),))
        )
        journey = middlebox.process_packet(packet(1), 1)
        assert journey.verdict == "drop"
        assert journey.degraded_reason == "return_lost"
        # The state batch committed before the return frame vanished.
        assert middlebox.state.maps["conn"]
        assert (
            middlebox.switch.tables["conn"].snapshot()
            == middlebox.state.maps["conn"]
        )


class TestBatchFailure:
    def doomed(self, fail_open):
        return deploy(
            FaultPlan((BatchFault(probability=0.0, doom_probability=1.0),)),
            policy=DegradationPolicy(fail_open=fail_open),
        )

    def test_fail_closed_rolls_back_and_drops(self):
        middlebox = self.doomed(fail_open=False)
        journey = middlebox.process_packet(packet(1), 1)
        assert journey.verdict == "drop"
        assert journey.degraded_reason == "writeback_failed"
        assert journey.retries == middlebox.policy.retry.max_attempts - 1
        assert journey.retry_wait_us > 0
        # Server rolled back, switch never changed: still in lockstep.
        assert middlebox.state.maps["conn"] == {}
        assert middlebox.switch.tables["conn"].snapshot() == {}
        assert middlebox.state.scalars["ctr"] == 0

    def test_fail_open_forwards_pristine(self):
        middlebox = self.doomed(fail_open=True)
        original = packet(1)
        want_fields = observe_fields(original.copy())
        journey = middlebox.process_packet(original, 1)
        assert journey.verdict == "send"
        assert journey.degraded_reason == "writeback_failed"
        [(port, emitted)] = journey.emitted
        assert port == 2  # the 1<->2 bypass pair
        # The middlebox's rewrite (tos=2) must NOT appear: fail-open
        # forwards the packet as received.
        assert observe_fields(emitted) == want_fields

    def test_injected_overflow_reason(self):
        middlebox = deploy(FaultPlan((WritebackOverflow(probability=1.0),)))
        journey = middlebox.process_packet(packet(1), 1)
        assert journey.degraded_reason == "writeback_overflow"
        assert middlebox.state.maps["conn"] == {}

    def test_transient_failure_retries_and_recovers(self):
        plan = FaultPlan((BatchFault(mode="fail", probability=0.5),))
        middlebox = deploy(plan, injector_seed=4)
        retried = 0
        for host in range(1, 12):
            journey = middlebox.process_packet(packet(host), 1)
            retried += journey.retries
            if journey.retries and not journey.degraded:
                assert journey.retry_wait_us > 0
                assert journey.sync_wait_us >= journey.retry_wait_us
        assert retried > 0
        assert middlebox.telemetry.metrics.counter_value(
            "control_plane.batches_retried"
        ) > 0


class TestServerCrash:
    def test_queue_then_drain(self):
        plan = FaultPlan((ServerCrash(at_packet=1, outage=2, lose_state=False),))
        middlebox = deploy(plan, policy=DegradationPolicy(punt_queue_depth=4))
        middlebox.process_packet(packet(1), 1)
        queued1 = middlebox.process_packet(packet(2), 1)
        queued2 = middlebox.process_packet(packet(3), 1)
        assert queued1.verdict == "queued" and queued2.verdict == "queued"
        assert middlebox.drain_deferred() == []
        after = middlebox.process_packet(packet(4), 1)  # window over
        assert not after.degraded
        deferred = middlebox.drain_deferred()
        assert sorted(j.packet_index for j in deferred) == [1, 2]
        assert all(j.verdict == "send" and j.queued for j in deferred)
        assert middlebox.accounting.queued == 2

    def test_queue_overflow_degrades(self):
        plan = FaultPlan((ServerCrash(at_packet=0, outage=50, lose_state=False),))
        middlebox = deploy(plan, policy=DegradationPolicy(punt_queue_depth=2))
        journeys = [middlebox.process_packet(packet(h), 1) for h in range(1, 6)]
        assert [j.verdict for j in journeys[:2]] == ["queued", "queued"]
        assert all(j.degraded_reason == "queue_overflow" for j in journeys[2:])
        assert middlebox.accounting.by_reason["queue_overflow"] == 3

    def test_lose_state_resync_from_switch(self):
        plan = FaultPlan((ServerCrash(at_packet=2, outage=2, lose_state=True),))
        middlebox = deploy(plan, policy=DegradationPolicy(punt_queue_depth=8))
        middlebox.process_packet(packet(1), 1)
        middlebox.process_packet(packet(2), 1)
        before = dict(middlebox.state.maps["conn"])
        assert len(before) == 2
        middlebox.process_packet(packet(3), 1)  # queued during outage
        middlebox.process_packet(packet(4), 1)  # queued during outage
        middlebox.process_packet(packet(5), 1)  # restart fires here
        middlebox.drain_deferred()
        assert middlebox.accounting.server_restarts == 1
        # Replicated table recovered from the authoritative switch copy…
        for key, value in before.items():
            assert middlebox.state.maps["conn"][key] == value
        # …while the server-only counter was declared lost and reset,
        # then advanced by the punts served after the restart.
        assert middlebox.state.scalars["ctr"] == 3  # packets 3, 4, 5

    def test_recover_drains_pending_queue(self):
        plan = FaultPlan((ServerCrash(at_packet=0, outage=100, lose_state=False),))
        middlebox = deploy(plan, policy=DegradationPolicy(punt_queue_depth=8))
        middlebox.process_packet(packet(1), 1)
        middlebox.process_packet(packet(2), 1)
        middlebox.recover()
        deferred = middlebox.drain_deferred()
        assert sorted(j.packet_index for j in deferred) == [0, 1]
        assert all(j.verdict == "send" for j in deferred)

    def test_reorder_shuffles_drain(self):
        plan = FaultPlan((
            ServerCrash(at_packet=0, outage=100, lose_state=False),
            PuntReorder(),
        ))
        middlebox = deploy(
            plan, policy=DegradationPolicy(punt_queue_depth=16),
            injector_seed=1,
        )
        for host in range(1, 9):
            middlebox.process_packet(packet(host), 1)
        middlebox.recover()
        deferred = middlebox.drain_deferred()
        served_order = [j.packet_index for j in deferred]
        assert sorted(served_order) == list(range(8))
        assert served_order != list(range(8))
        assert middlebox.accounting.reordered == 8


class TestFallback:
    def test_server_only_window_then_resync(self):
        plan = FaultPlan((SwitchReprogram(at_packet=1, duration=2),))
        middlebox = deploy(plan)
        first = middlebox.process_packet(packet(1), 1)
        during1 = middlebox.process_packet(packet(2), 1)
        during2 = middlebox.process_packet(packet(1), 1)  # repeat, full pgm
        after = middlebox.process_packet(packet(3), 1)
        assert first.punted and not first.fallback
        assert during1.fallback and during2.fallback
        assert during1.verdict == "send" and during2.verdict == "send"
        assert not after.fallback
        assert middlebox.accounting.fallback_packets == 2
        assert middlebox.accounting.switch_resyncs == 1
        # The bulk resync rebuilt the switch copy of everything the
        # fallback window inserted.
        assert (
            middlebox.switch.tables["conn"].snapshot()
            == middlebox.state.maps["conn"]
        )
        assert len(middlebox.state.maps["conn"]) == 3

    def test_total_outage_policy(self):
        plan = FaultPlan((
            SwitchReprogram(at_packet=0, duration=5),
            ServerCrash(at_packet=0, outage=5, lose_state=False),
        ))
        closed = deploy(plan)
        journey = closed.process_packet(packet(1), 1)
        assert journey.verdict == "drop"
        assert journey.degraded_reason == "total_outage"
        opened = deploy(plan, policy=DegradationPolicy(fail_open=True))
        journey = opened.process_packet(packet(1), 1)
        assert journey.verdict == "send"
        assert journey.emitted[0][0] == 2


class TestStaleReplication:
    def test_inflates_output_commit_wait_only(self):
        healthy = deploy()
        stale = deploy(
            FaultPlan((StaleReplication(extra_us=5000.0, probability=1.0),))
        )
        healthy_journey = healthy.process_packet(packet(1), 1)
        stale_journey = stale.process_packet(packet(1), 1)
        assert stale_journey.stale_wait_us == 5000.0
        assert stale_journey.sync_wait_us > healthy_journey.sync_wait_us
        assert stale_journey.verdict == healthy_journey.verdict
        assert not stale_journey.degraded


class TestAccountingInvariant:
    def test_every_packet_delivered_or_accounted(self):
        plan = FaultPlan((
            LinkFault(probability=0.4),
            ServerCrash(at_packet=5, outage=4, lose_state=True),
            BatchFault(probability=0.3, doom_probability=0.2),
        ))
        middlebox = deploy(
            plan, policy=DegradationPolicy(punt_queue_depth=2),
            injector_seed=7,
        )
        journeys = []
        for host in range(30):
            journeys.append(middlebox.process_packet(packet(host % 9), 1))
            journeys.extend(middlebox.drain_deferred())
        middlebox.recover()
        journeys.extend(middlebox.drain_deferred())
        final = {}
        for journey in journeys:
            if journey.verdict != "queued":
                final[journey.packet_index] = journey
        assert sorted(final) == list(range(30))
        degraded = sum(1 for j in final.values() if j.degraded)
        assert degraded == middlebox.accounting.degraded_total
        assert degraded > 0  # the plan actually bit


class TestSeedThreading:
    def test_same_seed_reproduces_jitter(self):
        waits = []
        for _ in range(2):
            middlebox = deploy(seed=42)
            journey = middlebox.process_packet(packet(1), 1)
            waits.append(journey.sync_wait_us)
        assert waits[0] == waits[1]

    def test_different_seed_differs(self):
        waits = set()
        for seed in range(6):
            middlebox = deploy(seed=seed)
            waits.add(middlebox.process_packet(packet(1), 1).sync_wait_us)
        assert len(waits) > 1

