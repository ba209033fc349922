"""Tests for the table-cache extension (paper §7 future work)."""

import pytest

from repro.net.addresses import ip
from repro.runtime.cache import (
    CacheConfigurationError,
    CachedGalliumMiddlebox,
    build_cached,
)
from repro.eval.profiles import build_baseline
from repro.workloads.packets import make_tcp_packet


def seed_backends(middlebox):
    middlebox.state.vectors["backends"] = [
        int(ip("10.0.1.1")), int(ip("10.0.1.2")),
    ]
    middlebox.sync_all_state()


class TestCacheBasics:
    def test_hot_flow_hits_cache(self):
        middlebox = build_cached("minilb", cache_entries=8)
        seed_backends(middlebox)
        first = middlebox.process_packet(
            make_tcp_packet("1.1.1.1", "10.0.0.100", 5, 80), 1
        )
        assert not first.fast_path
        for _ in range(3):
            journey = middlebox.process_packet(
                make_tcp_packet("1.1.1.1", "10.0.0.100", 5, 80), 1
            )
            assert journey.fast_path
        assert middlebox.stats.hit_rate > 0.5

    def test_cache_bound_enforced(self):
        middlebox = build_cached("minilb", cache_entries=4)
        seed_backends(middlebox)
        for client in range(20):
            middlebox.process_packet(
                make_tcp_packet(f"10.9.0.{client + 1}", "10.0.0.100", 5, 80), 1
            )
        occupancy = middlebox.switch.tables["map"].entry_count
        assert occupancy <= 4
        assert middlebox.stats.evictions > 0
        # The authoritative server map still holds everything.
        assert len(middlebox.state.maps["map"]) > 4

    def test_evicted_flow_still_correct(self):
        """An evicted connection misses the cache but keeps its backend:
        the server's authoritative map wins."""
        middlebox = build_cached("minilb", cache_entries=2)
        seed_backends(middlebox)
        victim = make_tcp_packet("10.8.0.1", "10.0.0.100", 5, 80)
        middlebox.process_packet(victim, 1)
        original_backend = str(victim.ip.daddr)
        # Blow the cache with other flows.
        for client in range(10):
            middlebox.process_packet(
                make_tcp_packet(f"10.8.1.{client + 1}", "10.0.0.100", 5, 80), 1
            )
        replay = make_tcp_packet("10.8.0.1", "10.0.0.100", 5, 80)
        journey = middlebox.process_packet(replay, 1)
        assert str(replay.ip.daddr) == original_backend
        assert journey.punted  # cache miss, served by the full program

    def test_refill_after_miss(self):
        middlebox = build_cached("minilb", cache_entries=2)
        seed_backends(middlebox)
        middlebox.process_packet(
            make_tcp_packet("10.7.0.1", "10.0.0.100", 5, 80), 1
        )
        for client in range(5):
            middlebox.process_packet(
                make_tcp_packet(f"10.7.1.{client + 1}", "10.0.0.100", 5, 80), 1
            )
        # Miss refills the entry; the next packet hits again.
        middlebox.process_packet(
            make_tcp_packet("10.7.0.1", "10.0.0.100", 5, 80), 1
        )
        journey = middlebox.process_packet(
            make_tcp_packet("10.7.0.1", "10.0.0.100", 5, 80), 1
        )
        assert journey.fast_path
        assert middlebox.stats.refills > 0


class TestCacheEquivalence:
    @pytest.mark.parametrize("cache_entries", [1, 4, 64])
    def test_verdicts_match_baseline_any_cache_size(self, cache_entries):
        import random

        rng = random.Random(3)
        middlebox = build_cached("lb", cache_entries=cache_entries)
        baseline = build_baseline("lb")
        from repro.net.headers import TcpFlags

        for _ in range(120):
            flags = rng.choice(
                [TcpFlags.SYN, TcpFlags.ACK, TcpFlags.ACK,
                 TcpFlags.FIN | TcpFlags.ACK]
            )
            packet = make_tcp_packet(
                f"192.168.1.{rng.randint(1, 6)}", "10.0.0.100",
                rng.randint(5000, 5004), 80, flags=flags,
            )
            clone = packet.copy()
            base = baseline.process_packet(clone, 1)
            journey = middlebox.process_packet(packet, 1)
            assert base.verdict == journey.verdict
            if base.verdict == "send":
                assert str(clone.ip.daddr) == str(packet.ip.daddr)
        assert middlebox.state.maps["conn_map"] == baseline.state.maps["conn_map"]


    @pytest.mark.parametrize("cache_entries", [2, 128])
    def test_miss_the_pre_pipeline_answers_itself_still_punts(
        self, cache_entries
    ):
        """Trojan's pre pipeline *drops* a data packet whose flow lookup
        misses.  Under a bounded table a miss may only mean "evicted", so
        the packet must punt (paper §7) — regression: evicted flows' data
        packets came back ``verdict=drop, punted=False``."""
        from tests.runtime.golden_pins import churn_stream

        middlebox = build_cached("trojan", cache_entries=cache_entries)
        baseline = build_baseline("trojan")
        answered_by_switch = 0
        for packet, port in churn_stream("trojan"):
            clone = packet.copy()
            base = baseline.process_packet(clone, port)
            journey = middlebox.process_packet(packet.copy(), port)
            assert journey.verdict == base.verdict
            if base.verdict == "send":
                egress, frame = journey.emitted[0]
                assert egress == (base.egress_port or 2)
                assert frame.pack() == clone.pack()
            answered_by_switch += journey.fast_path
        assert middlebox.state.snapshot() == baseline.state.snapshot()
        counters = middlebox.switch.counters()
        assert counters["fast_path"] == answered_by_switch
        assert counters["punted"] == middlebox.stats.misses
        # 24 flows in flight: only the 2-entry cache is under pressure.
        assert (middlebox.stats.evictions > 0) == (cache_entries == 2)

    def test_answered_miss_is_booked_as_a_punt(self):
        """Four flows SYN then data through a 2-entry cache: the two
        evicted flows' data packets count under ``switch.punted_packets``
        and ``cache.misses``, not under fast path or dropped."""
        middlebox = build_cached("trojan", cache_entries=2)
        flows = [(f"192.168.1.{i}", 10000 + i) for i in range(1, 5)]
        from repro.net.headers import TcpFlags

        for saddr, sport in flows:
            middlebox.process_packet(make_tcp_packet(
                saddr, "8.8.4.4", sport, 5001, flags=TcpFlags.SYN), 1)
        before = middlebox.switch.counters()
        journeys = [
            middlebox.process_packet(make_tcp_packet(
                saddr, "8.8.4.4", sport, 5001, flags=TcpFlags.ACK,
                payload=b"x" * 32), 1)
            for saddr, sport in flows
        ]
        assert [j.verdict for j in journeys] == ["send"] * 4
        assert all(j.punted for j in journeys[:2])
        after = middlebox.switch.counters()
        assert after["dropped"] == before["dropped"]
        assert (
            after["punted"] - before["punted"]
            == sum(j.punted for j in journeys)
        )


class TestCacheRestrictions:
    def test_register_mutating_pre_rejected(self):
        """MazuNAT's pre pipeline bumps the port counter: cache mode's
        full-program rerun would double-increment, so it is rejected."""
        with pytest.raises(CacheConfigurationError):
            build_cached("mazunat", cache_entries=16)

    def test_no_replicated_tables_rejected(self):
        with pytest.raises(CacheConfigurationError):
            build_cached("firewall", cache_entries=16)

    def test_register_mutating_post_rejected(self):
        """A register RMW in *post* is just as fatal as one in pre: the
        punt path emits from the server and never traverses post, so the
        switch register would silently miss updates.

        Regression (difftest corpus ``cached_post_register_rmw``): a
        conditional ``ctr -= 1`` placed in post lost every decrement on
        the cached deployment.
        """
        from repro.ir import lower_program
        from repro.lang import parse_program
        from repro.partition.labels import Partition
        from repro.runtime.cache import CachedGalliumMiddlebox
        from repro.runtime.deployment import compile_middlebox

        source = """
        class T {
          // @gallium: max_entries=64
          HashMap<uint32_t, uint16_t> m0;
          uint32_t ctr0;
          void process(Packet *pkt) {
            iphdr *ip = pkt->network_header();
            tcphdr *tcp = pkt->tcp_header();
            udphdr *udp = pkt->udp_header();
            uint32_t k1 = 0;
            uint16_t v1 = 0;
            m0.insert(&k1, &v1);
            if ((udp->len * ip->protocol) == (tcp->urg_ptr + 0)) {
            } else {
              uint32_t k2 = 0;
              uint16_t *h2 = m0.find(&k2);
              if (h2 != NULL) {
              } else {
              }
              ctr0 -= 1;
            }
            pkt->drop();
          }
        };
        """
        plan, program = compile_middlebox(lower_program(parse_program(source)))
        rmw_partitions = {
            plan.assignment[i.id]
            for i in plan.middlebox.process.instructions()
            if type(i).__name__ == "RegisterRMW"
        }
        assert rmw_partitions == {Partition.POST}
        with pytest.raises(CacheConfigurationError):
            CachedGalliumMiddlebox(plan, program, cache_entries=2)
