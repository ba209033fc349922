"""The header-field universe, pinned as literals.

These are the tables every layer kept its own copy of before the field
table (``repro.net.fields``) existed — written out here on the commit
before it did, so "the derived values equal the hand-kept ones" is a
comparison with text nobody generated.  The literals live only in this
file; what is compared against them is what the code reads today: the
names that survived (the generator's, the kernel's, the prover's, the
header record types) and, for the three tables the packet views and the
emitters now read straight off the rows, the same shape rebuilt from the
columns they read.
"""

from repro.difftest import generator
from repro.difftest.kernel import OBSERVED_FIELDS
from repro.lang.types import ETHHDR, IPHDR, TCPHDR, UDPHDR
from repro.net.addresses import Ipv4Address
from repro.net.fields import BY_KEY, FIELDS
from repro.verify.symbolic.prover import _SYMBOLIC_FIELDS

#: (region, field) -> (RawPacket header, attribute, is an Ipv4Address)
FIELD_MAP = {
    ("ip", "saddr"): ("ip", "saddr", True),
    ("ip", "daddr"): ("ip", "daddr", True),
    ("ip", "protocol"): ("ip", "protocol", False),
    ("ip", "ttl"): ("ip", "ttl", False),
    ("ip", "tos"): ("ip", "tos", False),
    ("ip", "tot_len"): ("ip", "total_length", False),
    ("ip", "id"): ("ip", "identification", False),
    ("ip", "frag_off"): ("ip", "frag_offset", False),
    ("ip", "check"): ("ip", "checksum", False),
    ("ip", "version"): ("ip", "version", False),
    ("ip", "ihl"): ("ip", "ihl", False),
    ("tcp", "sport"): ("tcp", "sport", False),
    ("tcp", "dport"): ("tcp", "dport", False),
    ("tcp", "seq"): ("tcp", "seq", False),
    ("tcp", "ack_seq"): ("tcp", "ack", False),
    ("tcp", "doff"): ("tcp", "data_offset", False),
    ("tcp", "flags"): ("tcp", "flags", False),
    ("tcp", "window"): ("tcp", "window", False),
    ("tcp", "check"): ("tcp", "checksum", False),
    ("tcp", "urg_ptr"): ("tcp", "urgent", False),
    ("udp", "sport"): ("udp", "sport", False),
    ("udp", "dport"): ("udp", "dport", False),
    ("udp", "len"): ("udp", "length", False),
    ("udp", "check"): ("udp", "checksum", False),
}

#: the generator's and the oracles' fields, with their widths
FIELD_WIDTHS = {
    ("ip", "saddr"): 32,
    ("ip", "daddr"): 32,
    ("ip", "ttl"): 8,
    ("ip", "tos"): 8,
    ("ip", "protocol"): 8,
    ("ip", "tot_len"): 16,
    ("ip", "id"): 16,
    ("ip", "frag_off"): 16,
    ("ip", "check"): 16,
    ("tcp", "sport"): 16,
    ("tcp", "dport"): 16,
    ("tcp", "seq"): 32,
    ("tcp", "ack_seq"): 32,
    ("tcp", "flags"): 8,
    ("tcp", "window"): 16,
    ("tcp", "urg_ptr"): 16,
    ("tcp", "check"): 16,
    ("udp", "sport"): 16,
    ("udp", "dport"): 16,
    ("udp", "len"): 16,
    ("udp", "check"): 16,
}

# In order: the generator indexes these lists with its seeded draws.
IP_READ = ["saddr", "daddr", "ttl", "tos", "protocol", "tot_len", "id",
           "frag_off", "check"]
IP_WRITE = ["saddr", "daddr", "ttl", "tos", "id", "frag_off", "check"]
TCP_READ = ["sport", "dport", "seq", "ack_seq", "flags", "window", "urg_ptr",
            "check"]
TCP_WRITE = TCP_READ
UDP_READ = ["sport", "dport", "len", "check"]
UDP_WRITE = ["sport", "dport", "check"]

OBSERVED = [
    ("ip", "check"), ("ip", "daddr"), ("ip", "frag_off"), ("ip", "id"),
    ("ip", "protocol"), ("ip", "saddr"), ("ip", "tos"), ("ip", "tot_len"),
    ("ip", "ttl"), ("tcp", "ack_seq"), ("tcp", "check"), ("tcp", "dport"),
    ("tcp", "flags"), ("tcp", "seq"), ("tcp", "sport"), ("tcp", "urg_ptr"),
    ("tcp", "window"), ("udp", "check"), ("udp", "dport"), ("udp", "len"),
    ("udp", "sport"),
]
SYMBOLIC = [key for key in OBSERVED if key != ("ip", "protocol")]

P4_PATHS = {
    "ip": {
        "saddr": "hdr.ipv4.srcAddr",
        "daddr": "hdr.ipv4.dstAddr",
        "protocol": "hdr.ipv4.protocol",
        "ttl": "hdr.ipv4.ttl",
        "tos": "hdr.ipv4.diffserv",
        "tot_len": "hdr.ipv4.totalLen",
        "id": "hdr.ipv4.identification",
        "frag_off": "hdr.ipv4.fragOffset",
        "check": "hdr.ipv4.hdrChecksum",
        "version": "hdr.ipv4.version",
        "ihl": "hdr.ipv4.ihl",
    },
    "tcp": {
        "sport": "hdr.tcp.srcPort",
        "dport": "hdr.tcp.dstPort",
        "seq": "hdr.tcp.seqNo",
        "ack_seq": "hdr.tcp.ackNo",
        "doff": "hdr.tcp.dataOffset",
        "flags": "hdr.tcp.flags",
        "window": "hdr.tcp.window",
        "check": "hdr.tcp.checksum",
        "urg_ptr": "hdr.tcp.urgentPtr",
    },
    "udp": {
        "sport": "hdr.udp.srcPort",
        "dport": "hdr.udp.dstPort",
        "len": "hdr.udp.length",
        "check": "hdr.udp.checksum",
    },
    "eth": {
        "h_dest": "hdr.ethernet.dstAddr",
        "h_source": "hdr.ethernet.srcAddr",
        "h_proto": "hdr.ethernet.etherType",
    },
    "meta": {
        "ingress_port": "standard_metadata.ingress_port",
    },
}

CPP_PATHS = {
    "ip": {
        "saddr": "ip->saddr", "daddr": "ip->daddr",
        "protocol": "ip->protocol", "ttl": "ip->ttl", "tos": "ip->tos",
        "tot_len": "ip->tot_len", "id": "ip->id",
        "frag_off": "ip->frag_off", "check": "ip->check",
        "version": "ip->version", "ihl": "ip->ihl",
    },
    "tcp": {
        "sport": "tcp->source", "dport": "tcp->dest", "seq": "tcp->seq",
        "ack_seq": "tcp->ack_seq", "doff": "tcp->doff",
        "flags": "tcp_flags(tcp)", "window": "tcp->window",
        "check": "tcp->check", "urg_ptr": "tcp->urg_ptr",
    },
    "udp": {
        "sport": "udp->source", "dport": "udp->dest",
        "len": "udp->len", "check": "udp->check",
    },
    "eth": {
        "h_dest": "eth->h_dest_u64", "h_source": "eth->h_source_u64",
        "h_proto": "eth->h_proto",
    },
    "meta": {
        "ingress_port": "ctx.ingress_port",
    },
}

#: header record -> its (name, bit offset, width) tuples, in offset order
HEADER_TYPES = {
    "iphdr": (
        ("version", 0, 4), ("ihl", 4, 4), ("tos", 8, 8),
        ("tot_len", 16, 16), ("id", 32, 16), ("frag_off", 48, 16),
        ("ttl", 64, 8), ("protocol", 72, 8), ("check", 80, 16),
        ("saddr", 96, 32), ("daddr", 128, 32),
    ),
    "tcphdr": (
        ("sport", 0, 16), ("dport", 16, 16), ("seq", 32, 32),
        ("ack_seq", 64, 32), ("doff", 96, 4), ("flags", 104, 8),
        ("window", 112, 16), ("check", 128, 16), ("urg_ptr", 144, 16),
    ),
    "udphdr": (
        ("sport", 0, 16), ("dport", 16, 16), ("len", 32, 16),
        ("check", 48, 16),
    ),
    "ethhdr": (
        ("h_dest", 0, 48), ("h_source", 48, 48), ("h_proto", 96, 16),
    ),
}


def _by_region(column: str) -> dict:
    paths: dict = {}
    for row in FIELDS:
        paths.setdefault(row.region, {})[row.name] = getattr(row, column)
    return paths


def test_packet_view_map():
    assert {
        row.key: (row.region, row.attr, row.wrapper is Ipv4Address)
        for row in FIELDS if row.region in ("ip", "tcp", "udp")
    } == FIELD_MAP
    assert len(BY_KEY) == len(FIELDS)


def test_generator_universe_in_draw_order():
    assert list(generator.FIELD_WIDTHS.items()) == list(FIELD_WIDTHS.items())
    assert generator.IP_READ == IP_READ
    assert generator.IP_WRITE == IP_WRITE
    assert generator.TCP_READ == TCP_READ
    assert generator.TCP_WRITE == TCP_WRITE
    assert generator.UDP_READ == UDP_READ
    assert generator.UDP_WRITE == UDP_WRITE


def test_observed_and_symbolic_fields():
    assert OBSERVED_FIELDS == OBSERVED
    assert _SYMBOLIC_FIELDS == SYMBOLIC


def test_emitter_paths():
    assert _by_region("p4") == P4_PATHS
    assert _by_region("cpp") == CPP_PATHS


def test_header_record_types():
    for header in (IPHDR, TCPHDR, UDPHDR, ETHHDR):
        assert header.fields == HEADER_TYPES[header.name]
        assert header.region == "packet." + header.name[:-3]


def test_store_and_alias_quirks():
    """What the three hand-written ``eth`` chains and ``_header`` did:
    only addresses and ``eth.h_proto`` mask a stored value, only the TCP
    ports fall back to the UDP header."""
    assert {row.key for row in FIELDS if row.masked} == {
        ("ip", "saddr"), ("ip", "daddr"),
        ("eth", "h_dest"), ("eth", "h_source"), ("eth", "h_proto"),
    }
    assert {row.key: row.alias for row in FIELDS if row.alias} == {
        ("tcp", "sport"): "udp", ("tcp", "dport"): "udp",
    }
    assert {row.key: row.wrapper.__name__ for row in FIELDS if row.wrapper} == {
        ("ip", "saddr"): "Ipv4Address", ("ip", "daddr"): "Ipv4Address",
        ("eth", "h_dest"): "MacAddress", ("eth", "h_source"): "MacAddress",
    }
