"""Protocol header codecs: Ethernet, IPv4, TCP, UDP.

Each header class is a small mutable record with ``pack``/``unpack``
round-trips, slotted like a P4 header: a fixed set of fields and no
per-instance attribute dict.  Field names intentionally match the names the
Click substrate and the generated P4 programs use (``saddr``, ``daddr``,
``sport``, ``dport``, ...), so the same identifiers appear end to end: in the
C++-subset middlebox sources, in the IR, in the dependency graph, and in the
emitted P4.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.checksum import internet_checksum

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806
# EtherType for frames carrying a Gallium shim header between the switch and
# the middlebox server (paper §4.3.2: the extra fields sit between the
# Ethernet header and the IP header).
ETHERTYPE_GALLIUM = 0x88B5  # local experimental ethertype

IPPROTO_ICMP = 1
IPPROTO_TCP = 6
IPPROTO_UDP = 17


class TcpFlags:
    """TCP flag bit masks."""

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20

    @staticmethod
    def describe(flags: int) -> str:
        names = []
        for name in ("FIN", "SYN", "RST", "PSH", "ACK", "URG"):
            if flags & getattr(TcpFlags, name):
                names.append(name)
        return "|".join(names) if names else "none"


@dataclass(slots=True)
class EthernetHeader:
    """14-byte Ethernet II header."""

    dst: MacAddress = field(default_factory=lambda: MacAddress(0))
    src: MacAddress = field(default_factory=lambda: MacAddress(0))
    ethertype: int = ETHERTYPE_IPV4

    SIZE = 14

    def pack(self) -> bytes:
        return self.dst.to_bytes() + self.src.to_bytes() + struct.pack(
            "!H", self.ethertype
        )

    @classmethod
    def unpack(cls, data: bytes) -> "EthernetHeader":
        if len(data) < cls.SIZE:
            raise ValueError(f"short Ethernet header: {len(data)} bytes")
        return cls(
            dst=MacAddress.from_bytes(data[0:6]),
            src=MacAddress.from_bytes(data[6:12]),
            ethertype=struct.unpack("!H", data[12:14])[0],
        )

    def copy(self) -> "EthernetHeader":
        return EthernetHeader(self.dst, self.src, self.ethertype)


@dataclass(slots=True)
class Ipv4Header:
    """20-byte IPv4 header (options unsupported; Gallium never emits them)."""

    version: int = 4
    ihl: int = 5
    tos: int = 0
    total_length: int = 20
    identification: int = 0
    #: the 3 flag bits (DF is 2) and the 13-bit fragment offset
    flags: int = 0
    fragment_offset: int = 0
    ttl: int = 64
    protocol: int = IPPROTO_TCP
    checksum: int = 0
    saddr: Ipv4Address = field(default_factory=lambda: Ipv4Address(0))
    daddr: Ipv4Address = field(default_factory=lambda: Ipv4Address(0))

    SIZE = 20

    @property
    def frag_offset(self) -> int:
        """Linux's ``frag_off``: the flags, then the fragment offset, as
        one 16-bit field (the ``ip.frag_off`` of middlebox sources)."""
        return self.flags << 13 | self.fragment_offset

    @frag_offset.setter
    def frag_offset(self, value: int) -> None:
        self.flags = value >> 13
        self.fragment_offset = value & 0x1FFF

    def pack(self) -> bytes:
        """The wire bytes, header checksum computed."""
        header = struct.pack(
            "!BBHHHBBH4s4s",
            (self.version << 4) | self.ihl,
            self.tos,
            self.total_length,
            self.identification,
            (self.flags << 13) | self.fragment_offset,
            self.ttl,
            self.protocol,
            0,
            self.saddr.to_bytes(),
            self.daddr.to_bytes(),
        )
        csum = internet_checksum(header)
        return header[:10] + struct.pack("!H", csum) + header[12:]

    @classmethod
    def unpack(cls, data: bytes) -> "Ipv4Header":
        if len(data) < cls.SIZE:
            raise ValueError(f"short IPv4 header: {len(data)} bytes")
        (
            ver_ihl,
            tos,
            total_length,
            identification,
            flags_frag,
            ttl,
            protocol,
            checksum,
            saddr,
            daddr,
        ) = struct.unpack("!BBHHHBBH4s4s", data[:20])
        return cls(
            version=ver_ihl >> 4,
            ihl=ver_ihl & 0x0F,
            tos=tos,
            total_length=total_length,
            identification=identification,
            flags=flags_frag >> 13,
            fragment_offset=flags_frag & 0x1FFF,
            ttl=ttl,
            protocol=protocol,
            checksum=checksum,
            saddr=Ipv4Address.from_bytes(saddr),
            daddr=Ipv4Address.from_bytes(daddr),
        )

    def copy(self) -> "Ipv4Header":
        return Ipv4Header(
            self.version,
            self.ihl,
            self.tos,
            self.total_length,
            self.identification,
            self.flags,
            self.fragment_offset,
            self.ttl,
            self.protocol,
            self.checksum,
            self.saddr,
            self.daddr,
        )


@dataclass(slots=True)
class TcpHeader:
    """20-byte TCP header (no options)."""

    sport: int = 0
    dport: int = 0
    seq: int = 0
    ack: int = 0
    data_offset: int = 5
    flags: int = 0
    window: int = 65535
    checksum: int = 0
    urgent: int = 0

    SIZE = 20

    def pack(self) -> bytes:
        return struct.pack(
            "!HHIIBBHHH",
            self.sport,
            self.dport,
            self.seq,
            self.ack,
            self.data_offset << 4,
            self.flags,
            self.window,
            self.checksum,
            self.urgent,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "TcpHeader":
        if len(data) < cls.SIZE:
            raise ValueError(f"short TCP header: {len(data)} bytes")
        (
            sport,
            dport,
            seq,
            ack,
            offset_reserved,
            flags,
            window,
            checksum,
            urgent,
        ) = struct.unpack("!HHIIBBHHH", data[:20])
        return cls(
            sport=sport,
            dport=dport,
            seq=seq,
            ack=ack,
            data_offset=offset_reserved >> 4,
            flags=flags,
            window=window,
            checksum=checksum,
            urgent=urgent,
        )

    def copy(self) -> "TcpHeader":
        return TcpHeader(
            self.sport,
            self.dport,
            self.seq,
            self.ack,
            self.data_offset,
            self.flags,
            self.window,
            self.checksum,
            self.urgent,
        )


@dataclass(slots=True)
class UdpHeader:
    """8-byte UDP header."""

    sport: int = 0
    dport: int = 0
    length: int = 8
    checksum: int = 0

    SIZE = 8

    def pack(self) -> bytes:
        return struct.pack("!HHHH", self.sport, self.dport, self.length, self.checksum)

    @classmethod
    def unpack(cls, data: bytes) -> "UdpHeader":
        if len(data) < cls.SIZE:
            raise ValueError(f"short UDP header: {len(data)} bytes")
        sport, dport, length, checksum = struct.unpack("!HHHH", data[:8])
        return cls(sport=sport, dport=dport, length=length, checksum=checksum)

    def copy(self) -> "UdpHeader":
        return UdpHeader(self.sport, self.dport, self.length, self.checksum)
