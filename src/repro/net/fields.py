"""The packet fields a middlebox program can name, declared once.

P4 declares a header type once and lets the parser, the tables and the
actions read that declaration; this table is the same thing for the
reproduction.  Everything that has to know a field derives it from here:
the header record types of the C++ subset (:mod:`repro.lang.types`), the
three packet views (:class:`repro.ir.interp.PacketView`, the accessors
:mod:`repro.ir.compile` generates, the prover's ``SymPacketView``), the
test-program generator and the oracles' observed set, and the header
paths both emitters print.

What is peculiar about a field is a column, not a branch somewhere:

* ``wrapper`` — the address class the :mod:`repro.net.headers` record
  keeps the field in; a load takes ``int()`` of it (generated code reads
  its range-checked ``_value``), a store builds one;
* ``masked`` — a store keeps only the field's ``width`` bits.  Only the
  address fields and ``eth.h_proto`` do; every other store writes the
  value as it is (a register is already wrapped to its declared width);
* ``alias`` — Click's ``transport_header()`` is one L4 view, and TCP and
  UDP keep their ports at the same offsets: on a packet with no TCP
  header ``tcp->sport`` / ``tcp->dport`` are the UDP ports;
* ``p4_widths`` — a field P4 keeps in parts: Linux's 16-bit
  ``ip->frag_off`` is ``flags ++ fragOffset`` in ``ipv4_t`` (and the
  record's ``frag_offset``, read and written whole over its ``flags``
  and ``fragment_offset``).  A load prints the concatenation, a store a
  slice per part.

A header the packet does not have reads 0 and drops writes.  ``meta`` is
not a header: its one field lives on the packet itself and is read-only.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple, Type

from repro.net.addresses import Ipv4Address, MacAddress


class HeaderField(NamedTuple):
    #: IR packet region; for a header, also the ``RawPacket`` attribute
    region: str
    #: name in middlebox sources (Linux-flavoured) and in the IR
    name: str
    #: bit offset inside the header
    offset: int
    #: width in bits
    width: int
    #: attribute of the header record
    attr: str
    #: where the emitted P4 / C++ finds the field
    p4: str
    cpp: str
    wrapper: Optional[type] = None
    masked: bool = False
    alias: Optional[str] = None
    #: the widths of the ``++``-joined parts of ``p4``, high first
    p4_widths: Tuple[int, ...] = ()

    @property
    def key(self) -> Tuple[str, str]:
        return (self.region, self.name)

    def p4_slices(self) -> Tuple[Tuple[str, int, int], ...]:
        """``(path, high bit, low bit)``: which bits of the field each
        part of ``p4`` holds, high first."""
        slices = []
        low = self.width
        for path, width in zip(self.p4.split(" ++ "), self.p4_widths):
            low -= width
            slices.append((path, low + width - 1, low))
        return tuple(slices)

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1


_F = HeaderField

#: Row order within a region is the order the test-program generator has
#: always drawn fields in (its seeded choices index it); header layouts
#: sort by ``offset``.
FIELDS: Tuple[HeaderField, ...] = (
    _F("ip", "saddr", 96, 32, "saddr", "hdr.ipv4.srcAddr", "ip->saddr",
       wrapper=Ipv4Address, masked=True),
    _F("ip", "daddr", 128, 32, "daddr", "hdr.ipv4.dstAddr", "ip->daddr",
       wrapper=Ipv4Address, masked=True),
    _F("ip", "ttl", 64, 8, "ttl", "hdr.ipv4.ttl", "ip->ttl"),
    _F("ip", "tos", 8, 8, "tos", "hdr.ipv4.diffserv", "ip->tos"),
    _F("ip", "protocol", 72, 8, "protocol", "hdr.ipv4.protocol",
       "ip->protocol"),
    _F("ip", "tot_len", 16, 16, "total_length", "hdr.ipv4.totalLen",
       "ip->tot_len"),
    _F("ip", "id", 32, 16, "identification", "hdr.ipv4.identification",
       "ip->id"),
    _F("ip", "frag_off", 48, 16, "frag_offset",
       "hdr.ipv4.flags ++ hdr.ipv4.fragOffset", "ip->frag_off",
       p4_widths=(3, 13)),
    _F("ip", "check", 80, 16, "checksum", "hdr.ipv4.hdrChecksum",
       "ip->check"),
    _F("ip", "version", 0, 4, "version", "hdr.ipv4.version", "ip->version"),
    _F("ip", "ihl", 4, 4, "ihl", "hdr.ipv4.ihl", "ip->ihl"),
    _F("tcp", "sport", 0, 16, "sport", "hdr.tcp.srcPort", "tcp->source",
       alias="udp"),
    _F("tcp", "dport", 16, 16, "dport", "hdr.tcp.dstPort", "tcp->dest",
       alias="udp"),
    _F("tcp", "seq", 32, 32, "seq", "hdr.tcp.seqNo", "tcp->seq"),
    _F("tcp", "ack_seq", 64, 32, "ack", "hdr.tcp.ackNo", "tcp->ack_seq"),
    _F("tcp", "flags", 104, 8, "flags", "hdr.tcp.flags", "tcp_flags(tcp)"),
    _F("tcp", "window", 112, 16, "window", "hdr.tcp.window", "tcp->window"),
    _F("tcp", "urg_ptr", 144, 16, "urgent", "hdr.tcp.urgentPtr",
       "tcp->urg_ptr"),
    _F("tcp", "check", 128, 16, "checksum", "hdr.tcp.checksum",
       "tcp->check"),
    _F("tcp", "doff", 96, 4, "data_offset", "hdr.tcp.dataOffset",
       "tcp->doff"),
    _F("udp", "sport", 0, 16, "sport", "hdr.udp.srcPort", "udp->source"),
    _F("udp", "dport", 16, 16, "dport", "hdr.udp.dstPort", "udp->dest"),
    _F("udp", "len", 32, 16, "length", "hdr.udp.length", "udp->len"),
    _F("udp", "check", 48, 16, "checksum", "hdr.udp.checksum", "udp->check"),
    _F("eth", "h_dest", 0, 48, "dst", "hdr.ethernet.dstAddr",
       "eth->h_dest_u64", wrapper=MacAddress, masked=True),
    _F("eth", "h_source", 48, 48, "src", "hdr.ethernet.srcAddr",
       "eth->h_source_u64", wrapper=MacAddress, masked=True),
    _F("eth", "h_proto", 96, 16, "ethertype", "hdr.ethernet.etherType",
       "eth->h_proto", masked=True),
    _F("meta", "ingress_port", 0, 8, "ingress_port",
       "standard_metadata.ingress_port", "ctx.ingress_port"),
)

BY_KEY: Dict[Tuple[str, str], HeaderField] = {row.key: row for row in FIELDS}

#: ``region -> name -> row``: what a packet view looks a field up in on
#: every access (two string keys, whose hashes are cached, where a tuple
#: key is hashed again each time).  ``meta`` is read-only, so the rows a
#: store may name leave it out.
LOAD_ROWS: Dict[str, Dict[str, HeaderField]] = {
    region: {row.name: row for row in FIELDS if row.region == region}
    for region in dict.fromkeys(row.region for row in FIELDS)
}
STORE_ROWS: Dict[str, Dict[str, HeaderField]] = {
    region: rows for region, rows in LOAD_ROWS.items() if region != "meta"
}

#: ``(region, name) -> width`` of the fields the generator reads and the
#: oracles compare on every emitted packet: the IP and L4 fields a whole
#: number of bytes wide.  The subset has no masked sub-byte store, so the
#: 4-bit ones (``version`` / ``ihl`` / ``doff``) cannot meaningfully be
#: written, and the generator never names ``eth``.
FIELD_WIDTHS: Dict[Tuple[str, str], int] = {
    row.key: row.width for row in FIELDS
    if row.region in ("ip", "tcp", "udp") and row.width >= 8
}


def header_field(
    region: str, name: str, error: Type[Exception], store: bool = False
) -> HeaderField:
    """The row a load (or, with ``store``, a store) of ``region.name``
    goes by.  There being none raises ``error`` with the one text every
    packet view reports it in."""
    row = (STORE_ROWS if store else LOAD_ROWS).get(region, {}).get(name)
    if row is not None:
        return row
    if region == "eth" or (region == "meta" and not store):
        raise error(f"unknown {region} field {name!r}")
    raise error(f"unknown field {region}.{name}")
