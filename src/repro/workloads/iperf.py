"""iperf-style microbenchmark traffic (paper §6.3).

"We generate ten parallel TCP connections using iperf to test the maximum
achievable throughput" — :class:`IperfWorkload` produces those flows, and
:func:`middlebox_stream` adapts the stream to each middlebox's expected
traffic pattern (direction conventions, whitelisted tuples, redirected
ports, established TCP flows...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.net.packet import RawPacket
from repro.sim.costs import MTU
from repro.workloads.packets import FlowSpec, flow_packets, make_tcp_packet

VIP = "10.0.0.100"
EXTERNAL_SERVER = "8.8.4.4"


@dataclass
class IperfWorkload:
    """N parallel TCP connections with a configurable packet size."""

    connections: int = 10
    packets_per_connection: int = 50
    packet_size: int = MTU  # wire bytes incl. headers

    @property
    def payload_size(self) -> int:
        # 14 (eth) + 20 (ip) + 20 (tcp)
        return max(0, self.packet_size - 54)

    def flows(self, daddr: str = VIP) -> List[FlowSpec]:
        return [
            FlowSpec(
                saddr=f"192.168.1.{index + 1}",
                daddr=daddr,
                sport=10000 + index,
                dport=5001,
                data_packets=self.packets_per_connection,
                payload_size=self.payload_size,
            )
            for index in range(self.connections)
        ]


def middlebox_stream(
    name: str, workload: IperfWorkload
) -> Iterator[Tuple[RawPacket, int]]:
    """(packet, ingress_port) stream appropriate for one middlebox."""
    if name in ("minilb", "lb"):
        for spec in workload.flows(VIP):
            for packet in flow_packets(spec):
                yield packet, 1
    elif name == "mazunat":
        # Internal clients talk to an external server; every packet flows
        # internal -> external (iperf sender side), like the paper's setup.
        for spec in workload.flows(EXTERNAL_SERVER):
            for packet in flow_packets(spec):
                yield packet, 1
    elif name == "firewall":
        # Traffic matching the installed whitelist (rule i: 192.168.1.(i+1)
        # -> 10.0.0.(i+1), sport 1000+i, dport 80).
        for index in range(workload.connections):
            host = (index % 250) + 1
            spec = FlowSpec(
                saddr=f"192.168.1.{host}",
                daddr=f"10.0.0.{host}",
                sport=1000 + (index % 64),
                dport=80,
                data_packets=workload.packets_per_connection,
                payload_size=workload.payload_size,
            )
            for packet in flow_packets(spec):
                yield packet, 1
    elif name == "proxy":
        for spec in workload.flows("10.9.9.9"):
            spec.dport = 80  # redirected port
            for packet in flow_packets(spec):
                yield packet, 1
    elif name == "trojan":
        for spec in workload.flows(EXTERNAL_SERVER):
            spec.dport = 5001
            for packet in flow_packets(spec):
                yield packet, 1
    else:
        raise KeyError(f"unknown middlebox {name!r}")


def established_flow_packets(
    name: str, count: int, packet_size: int
) -> Iterator[Tuple[RawPacket, int]]:
    """Data packets of one pre-established flow (for latency tests).

    The caller should first push the flow's SYN through the middlebox so
    per-flow state exists; these are the steady-state packets.
    """
    payload = b"\x00" * max(0, packet_size - 54)
    if name == "firewall":
        for seq in range(count):
            yield make_tcp_packet(
                "192.168.1.1", "10.0.0.1", 1000, 80,
                payload=payload, seq=seq + 1,
            ), 1
        return
    daddr = {"mazunat": EXTERNAL_SERVER, "trojan": EXTERNAL_SERVER,
             "proxy": "10.9.9.9"}.get(name, VIP)
    for seq in range(count):
        yield make_tcp_packet(
            "192.168.1.1", daddr, 10000, 5001 if name != "proxy" else 80,
            payload=payload, seq=seq + 1,
        ), 1
