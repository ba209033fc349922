"""Tests for traffic generation: packets, iperf streams, CONGA sampling."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.headers import IPPROTO_TCP, IPPROTO_UDP, TcpFlags
from repro.workloads.conga import (
    DATA_MINING,
    DISTRIBUTIONS,
    ENTERPRISE,
    packets_in_flow,
    sample_flow_sizes,
)
from repro.workloads.iperf import IperfWorkload, middlebox_stream
from repro.workloads.packets import FlowSpec, flow_packets, make_tcp_packet


class TestFlowPackets:
    def test_tcp_flow_structure(self):
        spec = FlowSpec("1.1.1.1", "2.2.2.2", 10, 20, data_packets=3)
        packets = list(flow_packets(spec))
        assert len(packets) == 5
        assert packets[0].tcp.flags & TcpFlags.SYN
        assert packets[-1].tcp.flags & TcpFlags.FIN
        assert all(p.tcp.sport == 10 for p in packets)

    def test_udp_flow_has_no_control_packets(self):
        spec = FlowSpec("1.1.1.1", "2.2.2.2", 10, 20, data_packets=3,
                        protocol=IPPROTO_UDP)
        packets = list(flow_packets(spec))
        assert len(packets) == 3
        assert all(p.udp is not None for p in packets)

    def test_payload_size(self):
        spec = FlowSpec("1.1.1.1", "2.2.2.2", 10, 20, data_packets=1,
                        payload_size=100)
        data = list(flow_packets(spec))[1]
        assert len(data.payload) == 100


class TestIperfWorkload:
    def test_payload_from_packet_size(self):
        assert IperfWorkload(packet_size=1500).payload_size == 1446
        assert IperfWorkload(packet_size=54).payload_size == 0

    def test_flows_distinct_sources(self):
        flows = IperfWorkload(connections=10).flows()
        assert len({f.saddr for f in flows}) == 10

    @pytest.mark.parametrize(
        "name", ["minilb", "mazunat", "lb", "firewall", "proxy", "trojan"]
    )
    def test_stream_packets_have_ingress(self, name):
        workload = IperfWorkload(connections=2, packets_per_connection=3)
        stream = list(middlebox_stream(name, workload))
        assert stream
        assert all(ingress in (1, 2) for _, ingress in stream)

    def test_unknown_middlebox_rejected(self):
        with pytest.raises(KeyError):
            list(middlebox_stream("nope", IperfWorkload()))


class TestCongaDistributions:
    def test_ninety_percent_small(self):
        """Paper: 90% of flows in both workloads are < 10 packets."""
        for distribution in (ENTERPRISE, DATA_MINING):
            sizes = sample_flow_sizes(distribution, 5000)
            small = sum(1 for s in sizes if packets_in_flow(s) <= 10)
            assert small / len(sizes) >= 0.85, distribution.name

    def test_datamining_tail_heavier(self):
        """Paper §6.3: the data-mining workload's long flows are longer."""
        enterprise = sample_flow_sizes(ENTERPRISE, 20000)
        datamining = sample_flow_sizes(DATA_MINING, 20000)
        assert max(datamining) > max(enterprise)
        top_e = sorted(enterprise)[-100:]
        top_d = sorted(datamining)[-100:]
        assert sum(top_d) > sum(top_e)

    def test_sampling_deterministic_by_seed(self):
        a = sample_flow_sizes(ENTERPRISE, 100)
        b = sample_flow_sizes(ENTERPRISE, 100)
        assert a == b

    def test_sample_within_knot_bounds(self):
        rng = random.Random(0)
        for _ in range(1000):
            size = ENTERPRISE.sample(rng)
            assert 100 <= size <= 100_000_000

    @given(st.integers(0, 10**9))
    @settings(max_examples=50)
    def test_packets_in_flow_positive(self, size):
        assert packets_in_flow(size) >= 1

    def test_distribution_registry(self):
        assert set(DISTRIBUTIONS) == {"enterprise", "datamining"}
