"""Tests for the deployed Gallium middlebox and the baseline runtime."""

import gc
import weakref

import pytest

from repro.eval.profiles import build_baseline, build_gallium
from repro.faults.injector import FaultInjector
from repro.net.addresses import ip
from repro.net.headers import TcpFlags
from repro.workloads.packets import make_tcp_packet
from tests.conftest import get_bundle
from tests.runtime import golden_pins


class TestInstall:
    def test_configure_populates_state(self):
        middlebox = build_gallium("firewall")
        assert len(middlebox.state.maps["wl_out"]) == 64
        assert middlebox.switch.tables["wl_out"].entry_count == 64

    def test_registers_pushed(self):
        middlebox = build_gallium("proxy")
        assert middlebox.switch.registers["proxy_addr"].read() == int(
            ip("10.0.2.10")
        )

    def test_nat_counter_starts_at_config(self):
        middlebox = build_gallium("mazunat")
        assert middlebox.switch.registers["port_counter"].value == 2048


class TestFastSlowPath:
    def test_minilb_first_packet_slow_then_fast(self):
        middlebox = build_gallium("minilb")
        middlebox.state.vectors["backends"] = [int(ip("10.0.1.1"))]
        middlebox.sync_all_state()
        first = middlebox.process_packet(
            make_tcp_packet("1.1.1.1", "10.0.0.100", 5, 80), 1
        )
        second = middlebox.process_packet(
            make_tcp_packet("1.1.1.1", "10.0.0.100", 5, 80), 1
        )
        assert not first.fast_path and first.punted
        assert second.fast_path

    def test_slow_path_pays_sync_wait(self):
        middlebox = build_gallium("minilb")
        middlebox.state.vectors["backends"] = [int(ip("10.0.1.1"))]
        middlebox.sync_all_state()
        journey = middlebox.process_packet(
            make_tcp_packet("1.1.1.1", "10.0.0.100", 5, 80), 1
        )
        assert journey.sync_tables == 1
        assert journey.sync_wait_us > 50

    def test_fast_path_fraction(self):
        middlebox = build_gallium("firewall")
        for index in range(10):
            host = (index % 250) + 1
            middlebox.process_packet(
                make_tcp_packet(
                    f"192.168.1.{host}", f"10.0.0.{host}", 1000 + index, 80
                ),
                1,
            )
        assert middlebox.fast_path_fraction() == 1.0

    def test_updates_replicated_to_switch_tables(self):
        middlebox = build_gallium("minilb")
        middlebox.state.vectors["backends"] = [int(ip("10.0.1.9"))]
        middlebox.sync_all_state()
        middlebox.process_packet(
            make_tcp_packet("4.4.4.4", "10.0.0.100", 9, 80), 1
        )
        # Server's authoritative map and the switch table agree.
        assert (
            middlebox.switch.tables["map"].snapshot()
            == middlebox.state.maps["map"]
        )

    def test_journey_reports_instructions(self):
        middlebox = build_gallium("mazunat")
        slow = middlebox.process_packet(
            make_tcp_packet("192.168.1.1", "8.8.4.4", 1000, 80), 1
        )
        assert slow.pre_instructions > 0
        assert slow.server_instructions > 0
        fast = middlebox.process_packet(
            make_tcp_packet("192.168.1.1", "8.8.4.4", 1000, 80), 1
        )
        assert fast.server_instructions == 0


class TestNatBehaviour:
    def test_bidirectional_translation(self):
        middlebox = build_gallium("mazunat")
        outbound = make_tcp_packet("192.168.1.5", "8.8.4.4", 3333, 80)
        middlebox.process_packet(outbound, 1)
        assert str(outbound.ip.saddr) == "100.64.0.1"
        external_port = outbound.tcp.sport
        reply = make_tcp_packet(
            "8.8.4.4", "100.64.0.1", 80, external_port, ingress_port=2
        )
        journey = middlebox.process_packet(reply, 2)
        assert journey.verdict == "send"
        assert str(reply.ip.daddr) == "192.168.1.5"
        assert reply.tcp.dport == 3333

    def test_unknown_external_dropped_on_fast_path(self):
        middlebox = build_gallium("mazunat")
        stray = make_tcp_packet(
            "8.8.4.4", "100.64.0.1", 80, 9999, ingress_port=2
        )
        journey = middlebox.process_packet(stray, 2)
        assert journey.verdict == "drop"
        assert journey.fast_path

    def test_port_allocation_monotonic(self):
        middlebox = build_gallium("mazunat")
        ports = []
        for index in range(3):
            packet = make_tcp_packet(
                f"192.168.1.{index + 1}", "8.8.4.4", 1000, 80
            )
            middlebox.process_packet(packet, 1)
            ports.append(packet.tcp.sport)
        assert ports == [2048, 2049, 2050]


class TestLoadBalancerBehaviour:
    def test_connection_affinity(self):
        middlebox = build_gallium("lb")
        first = make_tcp_packet("2.2.2.2", "10.0.0.100", 777, 80,
                                flags=TcpFlags.SYN)
        middlebox.process_packet(first, 1)
        backend = str(first.ip.daddr)
        for _ in range(3):
            packet = make_tcp_packet("2.2.2.2", "10.0.0.100", 777, 80)
            journey = middlebox.process_packet(packet, 1)
            assert journey.fast_path
            assert str(packet.ip.daddr) == backend

    def test_fin_tears_down_connection(self):
        middlebox = build_gallium("lb")
        syn = make_tcp_packet("2.2.2.2", "10.0.0.100", 778, 80,
                              flags=TcpFlags.SYN)
        middlebox.process_packet(syn, 1)
        assert len(middlebox.state.maps["conn_map"]) == 1
        fin = make_tcp_packet("2.2.2.2", "10.0.0.100", 778, 80,
                              flags=TcpFlags.FIN | TcpFlags.ACK)
        journey = middlebox.process_packet(fin, 1)
        assert journey.verdict == "send"
        assert len(middlebox.state.maps["conn_map"]) == 0
        # Switch copy emptied too.
        assert middlebox.switch.tables["conn_map"].snapshot() == {}


class TestTrojanBehaviour:
    def _syn(self, mb, dport):
        mb.process_packet(
            make_tcp_packet("192.168.1.1", "10.0.0.5", 1000 + dport, dport,
                            flags=TcpFlags.SYN),
            1,
        )

    def test_detection_sequence(self):
        middlebox = build_gallium("trojan")
        self._syn(middlebox, 22)    # SSH
        self._syn(middlebox, 80)    # web flow
        # HTTP download of a zip from the tracked host.
        data = make_tcp_packet(
            "192.168.1.1", "10.0.0.5", 1080, 80,
            payload=b"GET /payload.zip HTTP/1.1",
        )
        middlebox.process_packet(data, 1)
        self._syn(middlebox, 6667)  # IRC completes the pattern
        host = int(ip("192.168.1.1"))
        assert middlebox.state.maps["host_state"][(host,)] == 7
        assert host in middlebox.externs.log

    def test_unestablished_data_dropped_on_switch(self):
        middlebox = build_gallium("trojan")
        stray = make_tcp_packet("6.6.6.6", "10.0.0.5", 1, 80, payload=b"x")
        journey = middlebox.process_packet(stray, 1)
        assert journey.verdict == "drop"
        assert journey.fast_path

    def test_plain_data_fast_path(self):
        middlebox = build_gallium("trojan")
        self._syn(middlebox, 5001)
        data = make_tcp_packet("192.168.1.1", "10.0.0.5", 6001, 5001,
                               payload=b"bulk")
        journey = middlebox.process_packet(data, 1)
        assert journey.fast_path


class TestBaselineRuntime:
    def test_counts_instructions(self):
        baseline = build_baseline("firewall")
        result = baseline.process_packet(
            make_tcp_packet("192.168.1.1", "10.0.0.1", 1000, 80), 1
        )
        assert result.verdict == "send"
        assert result.instructions > 5
        assert baseline.instructions_total == result.instructions


class TestReplicationRule:
    """One definition of which writes reach the switch: the runtime holds
    the per-plan table, the prover builds the same one, and both hand it
    to the same function."""

    def test_runtime_and_prover_share_it(self, middlebox_name):
        from repro.runtime import server
        from repro.switchsim.control_plane import StateUpdate
        from repro.verify.symbolic import prover

        assert prover.updates_from_journal is server.updates_from_journal
        assert prover.replicated_members is server.replicated_members
        gallium = build_gallium(middlebox_name)
        plan = gallium.plan
        table = server.replicated_members(plan)
        assert gallium.server._replicated == table
        # The table is the rule's plan half, spelled out per member...
        assert table == {
            name for name, placement in plan.placements.items()
            if placement.replicated
        }
        # ...and the journal half, per entry in the shapes StateStore
        # journals, is one update op per journal op.
        journal = [
            entry for name in plan.placements for entry in (
                ("store", name, (), 3),
                ("insert", name, (1, 2), 3),
                ("push", name, (4,), 3),
                ("erase", name, (1, 2), None),
                ("insert_failed", name, (1, 2), 3),
            )
        ]
        expected = [
            update for name in plan.placements if name in table
            for update in (
                StateUpdate("register", name, (), 3),
                StateUpdate("insert", name, (1, 2), 3),
                StateUpdate("insert", name, (4,), 3),
                StateUpdate("delete", name, (1, 2), None),
            )
        ]
        assert server.updates_from_journal(table, journal) == expected


class TestFreedByReferenceCounting:
    """The deployment owns its roles and they hold it weakly, so a
    finished deployment — every golden flavour, and one under an armed
    fault injector — goes when its last reference does, with the cycle
    collector off, and leaves the collector nothing."""

    CELLS = [(name, False) for name in golden_pins.FLAVOURS] + [("pooled", True)]

    @pytest.mark.parametrize("flavour,faulted", CELLS)
    def test_a_finished_deployment_is_freed(self, flavour, faulted):
        injector = (
            FaultInjector(golden_pins.FAULT_PLANS[flavour], seed=3)
            if faulted else None
        )
        gc.collect()
        gc.disable()
        try:
            box = golden_pins.build(flavour, "lb", injector)
            for packet, port in golden_pins.churn_stream("lb")[:200]:
                box.process_packet(packet.copy(), port)
                box.drain_deferred()
            ref = weakref.ref(box)
            del box, injector
            assert ref() is None
            assert gc.collect() == 0
        finally:
            gc.enable()
