"""Tests for RawPacket construction, parsing, and views."""

import pytest

from repro.net.addresses import ip, mac
from repro.net.headers import (
    EthernetHeader,
    IPPROTO_TCP,
    IPPROTO_UDP,
    Ipv4Header,
    TcpHeader,
    UdpHeader,
)
from repro.net.packet import HEADER_SLOTS, RawPacket


def make_tcp(payload=b"hello"):
    return RawPacket.make_tcp(
        EthernetHeader(mac("02:00:00:00:00:02"), mac("02:00:00:00:00:01")),
        Ipv4Header(saddr=ip("10.0.0.1"), daddr=ip("10.0.0.2")),
        TcpHeader(sport=1111, dport=80),
        payload,
    )


class TestRawPacketConstruction:
    def test_tcp_lengths(self):
        packet = make_tcp(b"abcde")
        assert packet.ip.total_length == 20 + 20 + 5
        assert packet.wire_length() == 14 + 20 + 20 + 5

    def test_udp_lengths(self):
        packet = RawPacket.make_udp(
            EthernetHeader(), Ipv4Header(), UdpHeader(sport=1, dport=2), b"xyz"
        )
        assert packet.udp.length == 8 + 3
        assert packet.ip.total_length == 20 + 8 + 3
        assert packet.ip.protocol == IPPROTO_UDP

    def test_five_tuple(self):
        packet = make_tcp()
        assert packet.five_tuple() == (
            int(ip("10.0.0.1")), int(ip("10.0.0.2")), 1111, 80, IPPROTO_TCP,
        )

    def test_payload_setter_updates_lengths(self):
        packet = make_tcp(b"1234")
        packet.payload = b"123456789"
        assert packet.ip.total_length == 49

    def test_copy_is_deep_for_headers(self):
        packet = make_tcp()
        clone = packet.copy()
        clone.ip.daddr = ip("99.99.99.99")
        clone.tcp.dport = 8080
        assert packet.ip.daddr == ip("10.0.0.2")
        assert packet.tcp.dport == 80

    def test_copy_preserves_metadata(self):
        packet = make_tcp()
        packet.metadata["k"] = 1
        assert packet.copy().metadata == {"k": 1}


class TestRawPacketWireFormat:
    def test_pack_parse_round_trip_tcp(self):
        packet = make_tcp(b"data!")
        parsed = RawPacket.parse(packet.pack())
        assert parsed.five_tuple() == packet.five_tuple()
        assert parsed.payload == b"data!"
        assert parsed.eth.src == packet.eth.src

    def test_pack_parse_round_trip_udp(self):
        packet = RawPacket.make_udp(
            EthernetHeader(),
            Ipv4Header(saddr=ip("1.1.1.1"), daddr=ip("2.2.2.2")),
            UdpHeader(sport=5000, dport=53),
            b"q",
        )
        parsed = RawPacket.parse(packet.pack())
        assert parsed.udp is not None
        assert parsed.udp.dport == 53
        assert parsed.payload == b"q"

    def test_parse_non_ip(self):
        eth = EthernetHeader(ethertype=0x0806)
        raw = eth.pack() + b"arp-body"
        parsed = RawPacket.parse(raw)
        assert parsed.ip is None
        assert parsed.payload == b"arp-body"

    def test_tcp_property_none_for_udp(self):
        packet = RawPacket.make_udp(
            EthernetHeader(), Ipv4Header(), UdpHeader(), b""
        )
        assert packet.tcp is None
        assert packet.udp is not None


@pytest.mark.parametrize("kind", ["tcp", "udp", "ip only", "non-ip"])
def test_header_slots_are_what_the_properties_return(kind):
    """Generated code reads :data:`HEADER_SLOTS` instead of the header
    properties: slot plus class test must give the property's answer."""
    eth = EthernetHeader(mac("02:00:00:00:00:02"), mac("02:00:00:00:00:01"))
    ipv4 = Ipv4Header(saddr=ip("10.0.0.1"), daddr=ip("10.0.0.2"))
    packet = {
        "tcp": lambda: RawPacket.make_tcp(eth, ipv4, TcpHeader(sport=1)),
        "udp": lambda: RawPacket.make_udp(eth, ipv4, UdpHeader(sport=1)),
        "ip only": lambda: RawPacket(eth, ipv4),
        "non-ip": lambda: RawPacket(eth),
    }[kind]()
    for region, (slot, cls) in HEADER_SLOTS.items():
        header = getattr(packet, slot)
        if cls is not None and not isinstance(header, cls):
            header = None
        assert header is getattr(packet, region), region
