"""The punt-path server pool: validation, equivalence, membership,
blast radius.

Four layers of guarantees:

* construction fails loudly on a bad pool shape (``--servers N`` with
  ``N < 1``) — before any deployment machinery spins up;
* with no faults, a pooled deployment is byte-identical to the
  single-server one (the pool only spreads punts, it never changes
  semantics);
* a planned drain retires its member, re-homes only its slots and
  moves (and prices) exactly the entries it owned — and never retires
  the last member;
* a member crash stalls exactly the flows that member owns, live
  migration re-homes them, and full fallback never engages while a
  member survives.
"""

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, PoolMemberCrash, PoolMemberDrain
from repro.runtime.degradation import DegradationPolicy
from repro.runtime.deployment import GalliumMiddlebox, compile_middlebox
from repro.runtime.pool import PooledDeployment, default_member_names
from repro.sim.clock import migration_us
from tests.faults.test_degradation import FAULTBOX
from repro.workloads.packets import make_tcp_packet

COMPILED = compile_middlebox(FAULTBOX)


def deploy_pool(servers=3, plan=None, policy=None, seed=0, **kwargs):
    partition, program = COMPILED
    policy = policy or DegradationPolicy()
    injector = None
    if plan is not None:
        injector = FaultInjector(plan, seed=0)
    middlebox = PooledDeployment(
        partition, program, servers=servers,
        seed=seed, policy=policy, injector=injector, **kwargs,
    )
    middlebox.install()
    return middlebox


def deploy_single(seed=0):
    partition, program = COMPILED
    middlebox = GalliumMiddlebox(
        partition, program, seed=seed,
        policy=DegradationPolicy(),
    )
    middlebox.install()
    return middlebox


def packet(host: int, port: int = 10):
    return make_tcp_packet(f"10.1.0.{host}", "9.9.9.9", port, 80)


class TestValidation:
    def test_zero_servers_rejected(self):
        with pytest.raises(ValueError, match="at least one member"):
            default_member_names(0)

    def test_negative_servers_rejected(self):
        with pytest.raises(ValueError, match="servers=-2"):
            default_member_names(-2)

    def test_non_integer_servers_rejected(self):
        with pytest.raises(ValueError):
            default_member_names(True)

    def test_deployment_rejects_bad_pool_before_install(self):
        partition, program = COMPILED
        with pytest.raises(ValueError):
            PooledDeployment(partition, program, servers=0)


class TestFaultFreeEquivalence:
    def test_pooled_matches_single_server_byte_exactly(self):
        pooled = deploy_pool(servers=3)
        single = deploy_single()
        for index in range(40):
            pkt = packet(index % 13 + 1, port=10 + index % 5)
            a = pooled.process_packet(pkt.copy(), 1)
            b = single.process_packet(pkt.copy(), 1)
            assert a.verdict == b.verdict, f"packet {index}"
            assert (
                [(p, f.pack()) for p, f in a.emitted]
                == [(p, f.pack()) for p, f in b.emitted]
            ), f"packet {index}"
        assert pooled.state.maps == single.state.maps
        assert pooled.state.scalars == single.state.scalars
        assert (
            pooled.switch.tables["conn"].snapshot()
            == single.switch.tables["conn"].snapshot()
        )

    def test_punts_spread_across_members(self):
        pooled = deploy_pool(servers=3)
        for host in range(1, 40):
            pooled.process_packet(packet(host), 1)
        stats = pooled.pool.stats()
        served = [m["punts_served"] for m in stats["members"].values()]
        assert sum(served) == 39
        assert sum(1 for count in served if count > 0) >= 2


class TestMembershipThroughThePlan:
    """Membership changes only through the fault plan: a drain quiesces
    its member for ``drain_window`` packets, then hands its slots and
    the state they own to the survivors."""

    QUEUE = DegradationPolicy(punt_queue_depth=64)

    def drained(self, *drains, servers=3):
        return deploy_pool(servers=servers, plan=FaultPlan(drains),
                           policy=self.QUEUE)

    def test_drain_of_an_unknown_member_is_refused(self):
        pooled = self.drained(PoolMemberDrain(member="ghost", at_packet=0))
        with pytest.raises(ValueError, match="unknown member 'ghost'"):
            pooled.process_packet(packet(1), 1)

    def test_drain_retires_the_member_and_serving_continues(self):
        pooled = self.drained(
            PoolMemberDrain(member="srv1", at_packet=29, drain_window=3)
        )
        for host in range(1, 30):
            pooled.process_packet(packet(host), 1)
        # Repeats fast-path, new flows punt to whoever owns them now.
        for host in range(1, 35):
            journey = pooled.process_packet(packet(host), 1)
            assert not journey.degraded, f"host {host}"
        pooled.recover()
        stats = pooled.pool.stats()
        assert stats["retired"] == ["srv1"]
        assert sorted(stats["members"]) == ["srv0", "srv2"]
        assert stats["migrations"] == 1
        metrics = pooled.telemetry.metrics
        assert metrics.counter_value("pool.member_drains") == 1
        assert metrics.counter_value("pool.member_crashes") == 0
        assert metrics.counter_value("pool.member_joins") == 0
        assert pooled.accounting.fallback_packets == 0

    def test_drain_moves_exactly_the_entries_its_member_owned(self):
        pooled = self.drained(
            PoolMemberDrain(member="srv1", at_packet=29, drain_window=3)
        )
        for host in range(1, 30):
            pooled.process_packet(packet(host), 1)
        pool = pooled.pool
        owned = pool.count_owned(frozenset(pool.selector.slots_owned("srv1")))
        assert owned > 0
        # Repeats only: nothing new is committed while the window is open.
        for host in range(1, 11):
            assert pooled.process_packet(packet(host), 1).fast_path
        assert pool.stats()["migrated_entries"] == owned

    def test_drain_prices_its_migration_once(self):
        pooled = self.drained(
            PoolMemberDrain(member="srv2", at_packet=20, drain_window=2)
        )
        for host in range(1, 21):
            pooled.process_packet(packet(host), 1)
        pool = pooled.pool
        owned = pool.count_owned(frozenset(pool.selector.slots_owned("srv2")))
        for host in range(1, 6):
            pooled.process_packet(packet(host), 1)
        histogram = pooled.telemetry.metrics.histogram("pool.migration_us")
        assert histogram.count == 1
        assert histogram.sum == pytest.approx(migration_us(owned))

    def test_drain_keeps_every_flow_exactly_once(self):
        pooled = self.drained(
            PoolMemberDrain(member="srv0", at_packet=10, drain_window=5)
        )
        hosts = [index % 17 + 1 for index in range(40)]
        for host in hosts:
            pooled.process_packet(packet(host), 1)
        pooled.recover()
        # Punts queued during the window are served after the handoff,
        # so counter values may follow another order than arrival's.
        unique = set(hosts)
        assert len(pooled.state.maps["conn"]) == len(unique)
        assert sorted(pooled.state.maps["conn"].values()) == list(
            range(1, len(unique) + 1)
        )
        assert (
            pooled.switch.tables["conn"].snapshot()
            == pooled.state.maps["conn"]
        )
        for host in sorted(unique):
            journey = pooled.process_packet(packet(host), 1)
            assert journey.fast_path and not journey.degraded

    def test_drain_rehomes_only_the_drained_members_slots(self):
        pooled = self.drained(
            PoolMemberDrain(member="srv1", at_packet=5, drain_window=2)
        )
        before = list(pooled.pool.selector.member_table())
        for host in range(1, 12):
            pooled.process_packet(packet(host), 1)
        after = pooled.pool.selector.member_table()
        assert "srv1" not in after
        for slot, owner in enumerate(before):
            if owner != "srv1":
                assert after[slot] == owner, f"slot {slot} moved"

    def test_draining_the_last_member_keeps_it_serving(self):
        pooled = self.drained(
            PoolMemberDrain(member="srv0", at_packet=0, drain_window=2),
            PoolMemberDrain(member="srv1", at_packet=6, drain_window=2),
            servers=2,
        )
        for host in range(1, 21):
            journey = pooled.process_packet(packet(host), 1)
            assert not journey.degraded, f"host {host}"
        pooled.recover()
        stats = pooled.pool.stats()
        assert stats["retired"] == ["srv0"]
        assert list(stats["members"]) == ["srv1"]
        assert stats["migrations"] == 1
        assert (
            pooled.telemetry.metrics.counter_value("pool.member_drains") == 2
        )
        assert pooled.accounting.fallback_packets == 0


class TestCrashBlastRadius:
    def find_flows(self, pooled, member_name, want_owned=8, want_other=8):
        """Hosts whose flows the selector pins to (and away from)
        ``member_name``, via the deployment's own routing."""
        owned, other = [], []
        table = pooled.pool.selector.member_table()
        for host in range(1, 200):
            pkt = packet(host)
            slot = pooled.pool.selector.slot_for_packet(pkt)
            (owned if table[slot] == member_name else other).append(host)
            if len(owned) >= want_owned and len(other) >= want_other:
                break
        return owned[:want_owned], other[:want_other]

    def test_crash_stalls_only_owned_flows(self):
        plan = FaultPlan((
            PoolMemberCrash(member="srv0", at_packet=0,
                            migration_window=100),
        ))
        pooled = deploy_pool(
            servers=3, plan=plan,
            policy=DegradationPolicy(punt_queue_depth=64),
        )
        owned, other = self.find_flows(pooled, "srv0")
        assert owned and other
        index = 0
        for host in owned:
            journey = pooled.process_packet(packet(host), 1)
            assert journey.queued, f"owned flow {host} was not stalled"
            index += 1
        for host in other:
            journey = pooled.process_packet(packet(host), 1)
            assert not journey.degraded and not journey.queued, (
                f"unowned flow {host} was affected by the crash"
            )
            index += 1
        assert pooled.accounting.fallback_packets == 0

    def test_migration_recovers_and_degrades_nothing_else(self):
        plan = FaultPlan((
            PoolMemberCrash(member="srv0", at_packet=10,
                            migration_window=5),
        ))
        pooled = deploy_pool(
            servers=3, plan=plan,
            policy=DegradationPolicy(punt_queue_depth=64),
        )
        hosts = [index % 17 + 1 for index in range(40)]
        for host in hosts:
            pooled.process_packet(packet(host), 1)
        pooled.recover()
        assert pooled.pool.stats()["retired"] == ["srv0"]
        assert (
            pooled.telemetry.metrics.counter_value("pool.migrations") == 1
        )
        # Every flow installed exactly once (queued punts drained after
        # the migration, so serve *order* may differ from arrival order
        # — the byte-exact replay check lives in the fault oracle), the
        # counter handed out each value once, and the switch's
        # replicated copy agrees with the server's byte-exactly.
        unique = set(hosts)
        assert len(pooled.state.maps["conn"]) == len(unique)
        assert sorted(pooled.state.maps["conn"].values()) == list(
            range(1, len(unique) + 1)
        )
        assert (
            pooled.switch.tables["conn"].snapshot()
            == pooled.state.maps["conn"]
        )
        # Every flow's state survived the migration: all now fast-path.
        for host in sorted(unique):
            journey = pooled.process_packet(packet(host), 1)
            assert journey.fast_path and not journey.degraded
        assert pooled.accounting.fallback_packets == 0

    def test_queue_overflow_degrades_with_pool_reason(self):
        plan = FaultPlan((
            PoolMemberCrash(member="srv0", at_packet=0,
                            migration_window=500),
        ))
        pooled = deploy_pool(
            servers=2, plan=plan,
            policy=DegradationPolicy(punt_queue_depth=1),
        )
        owned, _other = self.find_flows(pooled, "srv0", want_owned=4,
                                        want_other=0)
        degraded = []
        for host in owned:
            journey = pooled.process_packet(packet(host), 1)
            if journey.degraded:
                degraded.append(journey.degraded_reason)
        assert degraded and set(degraded) == {"pool_member_down"}
        assert pooled.accounting.by_reason["pool_member_down"] == len(
            degraded
        )
