"""``ip.frag_off`` is Linux's 16-bit field: the three flag bits, then the
13-bit fragment offset (``gallium_runtime.h`` reads it so, and so does
every middlebox source that says ``ip->frag_off``).

The field-table row is its one home: the packet record reads and writes
it whole over its ``flags`` and ``fragment_offset`` (so the interpreter,
the compiled engine and the prover's view, which all go through the row,
agree), and the P4 text reads ``flags ++ fragOffset`` and writes a slice
of the value to each.  Every stream the generator and the benchmark
build carries IP flags 0, where the old 13-bit reading agreed; a
don't-fragment packet is where it did not.
"""

import re

from repro.compiler import compile_source
from repro.ir import lower_program
from repro.ir.compile import compile_function
from repro.ir.interp import Interpreter, PacketView, StateStore
from repro.lang import parse_program
from repro.net.packet import RawPacket
from repro.workloads.packets import make_tcp_packet

DF = 0x2  # IP flags: don't fragment
MF = 0x1  # IP flags: more fragments

SOURCE = (
    "class F { void process(Packet *pkt) {"
    " iphdr *ip = pkt->network_header();"
    " ip->id = ip->frag_off;"
    " ip->frag_off = ip->frag_off ^ 0x6001;"
    " pkt->send(); } };"
)


def df_frame() -> RawPacket:
    """A TCP frame with DF set and offset 0, through its wire bytes."""
    packet = make_tcp_packet("10.0.0.1", "10.0.0.2", 1000, 80)
    packet.ip.flags = DF
    return RawPacket.parse(packet.pack(), ingress_port=1)


def wire(packet: RawPacket) -> tuple:
    """(identification, flags ++ fragment offset) as the frame carries
    them (IPv4 bytes 4-7, after the 14-byte Ethernet header)."""
    frame = packet.pack()
    return (int.from_bytes(frame[18:20], "big"),
            int.from_bytes(frame[20:22], "big"))


def test_a_df_packet_reads_flags_then_offset():
    assert PacketView(df_frame()).get_field("ip", "frag_off") == 0x4000


def test_a_write_sets_both_parts_on_the_wire():
    packet = df_frame()
    PacketView(packet).set_field("ip", "frag_off", MF << 13 | 7)
    assert wire(packet)[1] == 0x2007
    assert PacketView(RawPacket.parse(packet.pack())).get_field(
        "ip", "frag_off") == 0x2007


def test_both_engines_read_and_write_the_16_bits():
    process = lower_program(parse_program(SOURCE)).process
    results = []
    for engine in (
        lambda packet: Interpreter(process, StateStore({})).run(
            PacketView(packet)),
        lambda packet: compile_function(process).run(
            StateStore({}), packet=PacketView(packet)),
    ):
        packet = df_frame()
        assert engine(packet).verdict == "send"
        results.append(wire(packet))
    # id gets flags ++ offset; XOR 0x6001 turns DF into MF, offset 0 to 1.
    assert results == [(0x4000, MF << 13 | 1)] * 2


def test_the_p4_text_reads_the_concatenation_and_writes_each_part():
    p4 = compile_source(SOURCE, verify=False).p4_source
    assert "(bit<16>)(hdr.ipv4.flags ++ hdr.ipv4.fragOffset)" in p4
    flags = re.search(r"hdr\.ipv4\.flags = meta\.scratch\[(\d+):(\d+)\];", p4)
    offset = re.search(
        r"hdr\.ipv4\.fragOffset = meta\.scratch\[(\d+):(\d+)\];", p4)
    assert flags and offset
    high, low = int(flags[1]), int(offset[2])
    assert (high - low, int(flags[2]) - low, int(offset[1]) - low) == (
        15, 13, 12)


def test_a_constant_store_prints_each_part_as_a_constant():
    p4 = compile_source(
        "class F { void process(Packet *pkt) {"
        " iphdr *ip = pkt->network_header(); ip->frag_off = 0x4001;"
        " pkt->send(); } };", verify=False).p4_source
    assert "hdr.ipv4.flags = 3w2;" in p4
    assert "hdr.ipv4.fragOffset = 13w1;" in p4
