"""Tests for protocol header codecs."""

import pytest
from hypothesis import given, strategies as st

from repro.net.addresses import ip, mac
from repro.net.checksum import internet_checksum
from repro.net.headers import (
    ETHERTYPE_IPV4,
    EthernetHeader,
    Ipv4Header,
    TcpFlags,
    TcpHeader,
    UdpHeader,
)


class TestEthernetHeader:
    def test_pack_unpack_round_trip(self):
        header = EthernetHeader(
            mac("02:00:00:00:00:01"), mac("02:00:00:00:00:02"), 0x0800
        )
        assert EthernetHeader.unpack(header.pack()) == header

    def test_size(self):
        assert len(EthernetHeader().pack()) == EthernetHeader.SIZE == 14

    def test_short_buffer_rejected(self):
        with pytest.raises(ValueError):
            EthernetHeader.unpack(b"\x00" * 13)


class TestIpv4Header:
    def test_pack_unpack_round_trip(self):
        header = Ipv4Header(
            tos=0x10, total_length=1500, identification=7, ttl=63,
            protocol=6, saddr=ip("1.2.3.4"), daddr=ip("5.6.7.8"),
        )
        unpacked = Ipv4Header.unpack(header.pack())
        assert unpacked.saddr == header.saddr
        assert unpacked.daddr == header.daddr
        assert unpacked.total_length == 1500
        assert unpacked.ttl == 63

    def test_checksum_filled_and_valid(self):
        packed = Ipv4Header(saddr=ip("9.9.9.9"), daddr=ip("8.8.8.8")).pack()
        assert internet_checksum(packed) == 0

    def test_checksum_changes_with_rewrite(self):
        header = Ipv4Header(saddr=ip("1.1.1.1"), daddr=ip("2.2.2.2"))
        before = Ipv4Header.unpack(header.pack()).checksum
        header.daddr = ip("3.3.3.3")
        after = Ipv4Header.unpack(header.pack()).checksum
        assert before != after

    def test_copy_is_independent(self):
        header = Ipv4Header(saddr=ip("1.1.1.1"))
        clone = header.copy()
        clone.saddr = ip("2.2.2.2")
        assert header.saddr == ip("1.1.1.1")

    @given(
        st.integers(0, (1 << 32) - 1),
        st.integers(0, (1 << 32) - 1),
        st.integers(0, 255),
        st.integers(0, 255),
    )
    def test_round_trip_property(self, saddr, daddr, ttl, proto):
        header = Ipv4Header(
            saddr=ip(saddr), daddr=ip(daddr), ttl=ttl, protocol=proto
        )
        unpacked = Ipv4Header.unpack(header.pack())
        assert (int(unpacked.saddr), int(unpacked.daddr)) == (saddr, daddr)
        assert (unpacked.ttl, unpacked.protocol) == (ttl, proto)


class TestTcpHeader:
    def test_round_trip(self):
        header = TcpHeader(
            sport=1234, dport=80, seq=99, ack=100,
            flags=TcpFlags.SYN | TcpFlags.ACK, window=2048,
        )
        unpacked = TcpHeader.unpack(header.pack())
        assert unpacked == header

    def test_describe_flags(self):
        assert TcpFlags.describe(TcpFlags.SYN | TcpFlags.ACK) == "SYN|ACK"
        assert TcpFlags.describe(0) == "none"

    @given(st.integers(0, 65535), st.integers(0, 65535), st.integers(0, 0xFF))
    def test_round_trip_property(self, sport, dport, flags):
        header = TcpHeader(sport=sport, dport=dport, flags=flags)
        unpacked = TcpHeader.unpack(header.pack())
        assert (unpacked.sport, unpacked.dport, unpacked.flags) == (
            sport, dport, flags,
        )


class TestUdpHeader:
    def test_round_trip(self):
        header = UdpHeader(sport=53, dport=5353, length=100)
        assert UdpHeader.unpack(header.pack()) == header

    def test_short_buffer_rejected(self):
        with pytest.raises(ValueError):
            UdpHeader.unpack(b"\x00" * 7)
