"""Raw packets: a byte buffer plus parsed header views.

``RawPacket`` is the wire-level representation used by the simulator, the
switch model, and the NIC queues.  The Click substrate wraps it in a
higher-level ``repro.click.packet.Packet`` that exposes the Click API
(``network_header()`` etc.).

A ``RawPacket`` owns its bytes.  Header accessors parse lazily and cache;
mutating a parsed header view marks the packet dirty so the bytes are
re-serialized on demand.  This mirrors how Click packets carry both an
annotation area and the underlying buffer.
"""

from __future__ import annotations

from typing import Optional

from repro.net.headers import (
    ETHERTYPE_IPV4,
    IPPROTO_TCP,
    IPPROTO_UDP,
    EthernetHeader,
    Ipv4Header,
    TcpHeader,
    UdpHeader,
)


class PacketBuildError(ValueError):
    """Raised when a packet cannot be constructed or parsed."""


#: Header property of :class:`RawPacket` -> the slot it reads and the
#: class the slot's record must be for the property to return it (``None``:
#: returned as it is).  Generated code reads the slots, not the properties.
HEADER_SLOTS = {
    "eth": ("_eth", None),
    "ip": ("_ip", None),
    "tcp": ("_l4", TcpHeader),
    "udp": ("_l4", UdpHeader),
}


def _header(data: bytes, offset: int, size: int) -> bytes:
    """The ``size`` header bytes at ``offset``, or a refusal when the
    header runs past the frame."""
    if len(data) < offset + size:
        raise PacketBuildError(
            f"{size}-byte header at offset {offset} runs past the"
            f" {len(data)}-byte frame"
        )
    return data[offset:offset + size]


class RawPacket:
    """A wire packet: Ethernet frame bytes with lazily parsed header views."""

    __slots__ = (
        "_eth",
        "_ip",
        "_l4",
        "_payload",
        "ingress_port",
        "_meta",
    )

    def __init__(
        self,
        eth: EthernetHeader,
        ip: Optional[Ipv4Header] = None,
        l4=None,
        payload: bytes = b"",
        ingress_port: int = 0,
    ):
        self._eth = eth
        self._ip = ip
        self._l4 = l4
        self._payload = payload
        self.ingress_port = ingress_port
        self._meta: Optional[dict] = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def make_tcp(
        cls,
        eth: EthernetHeader,
        ip: Ipv4Header,
        tcp: TcpHeader,
        payload: bytes = b"",
    ) -> "RawPacket":
        ip.protocol = IPPROTO_TCP
        ip.total_length = Ipv4Header.SIZE + TcpHeader.SIZE + len(payload)
        return cls(eth, ip, tcp, payload)

    @classmethod
    def make_udp(
        cls,
        eth: EthernetHeader,
        ip: Ipv4Header,
        udp: UdpHeader,
        payload: bytes = b"",
    ) -> "RawPacket":
        ip.protocol = IPPROTO_UDP
        ip.total_length = Ipv4Header.SIZE + UdpHeader.SIZE + len(payload)
        udp.length = UdpHeader.SIZE + len(payload)
        return cls(eth, ip, udp, payload)

    @classmethod
    def parse(cls, data: bytes, ingress_port: int = 0) -> "RawPacket":
        """Parse an Ethernet frame into header views.

        Only what the header records represent is accepted — IPv4 and TCP
        without options (``ihl`` and ``doff`` 5), every header whole inside
        the frame — so a parsed frame re-packs to its own length.  Anything
        else raises :class:`PacketBuildError`.
        """
        eth = EthernetHeader.unpack(_header(data, 0, EthernetHeader.SIZE))
        offset = EthernetHeader.SIZE
        ip_header = None
        l4 = None
        if eth.ethertype == ETHERTYPE_IPV4:
            ip_header = Ipv4Header.unpack(_header(data, offset, Ipv4Header.SIZE))
            if ip_header.ihl != 5:
                raise PacketBuildError(
                    f"IPv4 ihl {ip_header.ihl}: only option-free headers"
                    " (ihl 5) are modelled"
                )
            offset += Ipv4Header.SIZE
            if ip_header.protocol == IPPROTO_TCP:
                l4 = TcpHeader.unpack(_header(data, offset, TcpHeader.SIZE))
                if l4.data_offset != 5:
                    raise PacketBuildError(
                        f"TCP doff {l4.data_offset}: only option-free headers"
                        " (doff 5) are modelled"
                    )
                offset += TcpHeader.SIZE
            elif ip_header.protocol == IPPROTO_UDP:
                l4 = UdpHeader.unpack(_header(data, offset, UdpHeader.SIZE))
                offset += UdpHeader.SIZE
        return cls(eth, ip_header, l4, data[offset:], ingress_port)

    # -- annotation area ---------------------------------------------------

    @property
    def metadata(self) -> dict:
        """Free-form annotation area (like Click packet annotations): the
        punt shim, INT stamps.  Made on first access, so a packet nothing
        annotates never holds one."""
        meta = self._meta
        if meta is None:
            meta = self._meta = {}
        return meta

    # -- header views ------------------------------------------------------

    @property
    def eth(self) -> EthernetHeader:
        return self._eth

    @property
    def ip(self) -> Optional[Ipv4Header]:
        return self._ip

    @property
    def tcp(self) -> Optional[TcpHeader]:
        if isinstance(self._l4, TcpHeader):
            return self._l4
        return None

    @property
    def udp(self) -> Optional[UdpHeader]:
        if isinstance(self._l4, UdpHeader):
            return self._l4
        return None

    @property
    def l4(self):
        return self._l4

    @property
    def payload(self) -> bytes:
        return self._payload

    @payload.setter
    def payload(self, value: bytes) -> None:
        self._payload = value
        if self._ip is not None:
            l4_size = 0
            if isinstance(self._l4, TcpHeader):
                l4_size = self._l4.data_offset * 4
            elif isinstance(self._l4, UdpHeader):
                l4_size = UdpHeader.SIZE
                self._l4.length = UdpHeader.SIZE + len(value)
            self._ip.total_length = self._ip.ihl * 4 + l4_size + len(value)

    # -- five tuple ---------------------------------------------------------

    def five_tuple(self):
        """Return (saddr, daddr, sport, dport, proto) or None if not L4."""
        if self._ip is None or self._l4 is None:
            return None
        return (
            int(self._ip.saddr),
            int(self._ip.daddr),
            self._l4.sport,
            self._l4.dport,
            self._ip.protocol,
        )

    # -- serialization -------------------------------------------------------

    def pack(self) -> bytes:
        parts = [self._eth.pack()]
        if self._ip is not None:
            parts.append(self._ip.pack())
        if self._l4 is not None:
            parts.append(self._l4.pack())
        parts.append(self._payload)
        return b"".join(parts)

    def wire_length(self) -> int:
        length = EthernetHeader.SIZE
        if self._ip is not None:
            length += self._ip.ihl * 4
        if isinstance(self._l4, TcpHeader):
            length += self._l4.data_offset * 4
        elif isinstance(self._l4, UdpHeader):
            length += UdpHeader.SIZE
        return length + len(self._payload)

    def adopt(self, other: "RawPacket") -> None:
        """Take over ``other``'s headers and payload (same wire identity).

        Used when processing happened on a clone (e.g. the table-cache
        runtime's pristine copy) and the caller's handle must reflect the
        final packet contents.
        """
        self._eth = other._eth
        self._ip = other._ip
        self._l4 = other._l4
        self._payload = other._payload

    def copy(self) -> "RawPacket":
        pkt = RawPacket(
            self._eth.copy(),
            self._ip.copy() if self._ip is not None else None,
            self._l4.copy() if self._l4 is not None else None,
            self._payload,
            self.ingress_port,
        )
        if self._meta:
            pkt._meta = dict(self._meta)
        return pkt

    def __repr__(self) -> str:
        if self._ip is None:
            return f"<RawPacket eth type={self._eth.ethertype:#06x} len={self.wire_length()}>"
        proto = {IPPROTO_TCP: "tcp", IPPROTO_UDP: "udp"}.get(
            self._ip.protocol, str(self._ip.protocol)
        )
        l4 = ""
        if self._l4 is not None:
            l4 = f" {self._l4.sport}->{self._l4.dport}"
        return (
            f"<RawPacket {proto} {self._ip.saddr}->{self._ip.daddr}{l4}"
            f" len={self.wire_length()}>"
        )
