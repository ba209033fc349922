"""Packet and flow builders used by tests, examples, and benchmarks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.net.addresses import ip, mac
from repro.net.headers import (
    EthernetHeader,
    IPPROTO_TCP,
    Ipv4Header,
    TcpFlags,
    TcpHeader,
    UdpHeader,
)
from repro.net.packet import RawPacket

CLIENT_MAC = "02:00:00:00:01:01"
SERVER_MAC = "02:00:00:00:02:01"


def make_tcp_packet(
    saddr: str,
    daddr: str,
    sport: int,
    dport: int,
    flags: int = TcpFlags.ACK,
    payload: bytes = b"",
    seq: int = 0,
    ingress_port: int = 1,
) -> RawPacket:
    packet = RawPacket.make_tcp(
        EthernetHeader(mac(SERVER_MAC), mac(CLIENT_MAC)),
        Ipv4Header(saddr=ip(saddr), daddr=ip(daddr)),
        TcpHeader(sport=sport, dport=dport, flags=flags, seq=seq),
        payload,
    )
    packet.ingress_port = ingress_port
    return packet


def make_udp_packet(
    saddr: str,
    daddr: str,
    sport: int,
    dport: int,
    payload: bytes = b"",
    ingress_port: int = 1,
) -> RawPacket:
    packet = RawPacket.make_udp(
        EthernetHeader(mac(SERVER_MAC), mac(CLIENT_MAC)),
        Ipv4Header(saddr=ip(saddr), daddr=ip(daddr)),
        UdpHeader(sport=sport, dport=dport),
        payload,
    )
    packet.ingress_port = ingress_port
    return packet


@dataclass
class FlowSpec:
    """One TCP flow: endpoints plus how many data packets to emit."""

    saddr: str
    daddr: str
    sport: int
    dport: int
    data_packets: int = 10
    payload_size: int = 1400
    ingress_port: int = 1
    protocol: int = IPPROTO_TCP


def flow_packets(spec: FlowSpec) -> Iterator[RawPacket]:
    """Emit a flow's packets in order: SYN, data..., FIN (TCP only)."""
    if spec.protocol == IPPROTO_TCP:
        yield make_tcp_packet(
            spec.saddr, spec.daddr, spec.sport, spec.dport,
            flags=TcpFlags.SYN, ingress_port=spec.ingress_port,
        )
        for index in range(spec.data_packets):
            yield make_tcp_packet(
                spec.saddr, spec.daddr, spec.sport, spec.dport,
                flags=TcpFlags.ACK,
                payload=b"\x00" * spec.payload_size,
                seq=index + 1,
                ingress_port=spec.ingress_port,
            )
        yield make_tcp_packet(
            spec.saddr, spec.daddr, spec.sport, spec.dport,
            flags=TcpFlags.FIN | TcpFlags.ACK,
            ingress_port=spec.ingress_port,
        )
    else:
        for _ in range(spec.data_packets):
            yield make_udp_packet(
                spec.saddr, spec.daddr, spec.sport, spec.dport,
                payload=b"\x00" * spec.payload_size,
                ingress_port=spec.ingress_port,
            )
