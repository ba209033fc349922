"""A packet is a compact record: slotted headers, an annotation area made
on first write.

A deployment keeps whole packet streams resident, so what one packet costs
is a host-memory figure: these tests hold the layout (no per-instance
``__dict__``, no annotation dict until something annotates), that a copy
still shares no mutable state with its original, and a ceiling on what one
copy of a 1 500-byte TCP frame allocates.

``python -m tests.net.test_packet_record`` prints the bytes and
microseconds one ``copy()`` costs, per kind of frame.
"""

import timeit
import tracemalloc

import pytest

from repro.ir.interp import PacketView
from repro.net.addresses import ip, mac
from repro.net.fields import FIELDS
from repro.net.headers import EthernetHeader, Ipv4Header, TcpHeader, UdpHeader
from repro.net.packet import RawPacket
from repro.switchsim.switch_model import SHIM_DIR_KEY, SHIM_KEY

#: the frame size of the paper's iperf runs (§6.3)
FRAME_BYTES = 1500
COPIES = 2000
#: what one copy of a 1 500-byte TCP frame may allocate
COPY_BYTES_CEILING = 400


def tcp_frame(size: int = FRAME_BYTES) -> RawPacket:
    payload = bytes(size - EthernetHeader.SIZE - Ipv4Header.SIZE
                    - TcpHeader.SIZE)
    return RawPacket.make_tcp(
        EthernetHeader(mac("02:00:00:00:00:02"), mac("02:00:00:00:00:01")),
        Ipv4Header(saddr=ip("10.0.0.1"), daddr=ip("10.0.0.2")),
        TcpHeader(sport=1111, dport=80, seq=7, ack=9, flags=0x18),
        payload,
    )


def udp_frame(size: int = FRAME_BYTES) -> RawPacket:
    payload = bytes(size - EthernetHeader.SIZE - Ipv4Header.SIZE
                    - UdpHeader.SIZE)
    return RawPacket.make_udp(
        EthernetHeader(mac("02:00:00:00:00:02"), mac("02:00:00:00:00:01")),
        Ipv4Header(saddr=ip("10.0.0.3"), daddr=ip("10.0.0.4")),
        UdpHeader(sport=5353, dport=53),
        payload,
    )


def annotated(packet: RawPacket) -> RawPacket:
    packet.metadata[SHIM_KEY] = b"\x01\x02\x03"
    packet.metadata[SHIM_DIR_KEY] = "to_server"
    return packet


def bytes_per_copy(packet: RawPacket, copies: int = COPIES) -> float:
    """What one ``copy()`` leaves allocated, averaged over ``copies``
    copies kept alive (the list that holds them is made beforehand)."""
    kept = [None] * copies
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(copies):
            kept[index] = packet.copy()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / copies


def us_per_copy(packet: RawPacket, copies: int = COPIES) -> float:
    return min(timeit.repeat(packet.copy, number=copies, repeat=5)) \
        / copies * 1e6


#: the frames the footprint table reports, by name
FRAMES = {
    "tcp 1500 B": tcp_frame,
    "udp 1500 B": udp_frame,
    "tcp 1500 B, shim annotated": lambda: annotated(tcp_frame()),
}


class TestTheLayoutIsFixed:
    @pytest.mark.parametrize("record", [
        tcp_frame(), tcp_frame().eth, tcp_frame().ip, tcp_frame().tcp,
        udp_frame().udp,
    ], ids=["RawPacket", "EthernetHeader", "Ipv4Header", "TcpHeader",
            "UdpHeader"])
    def test_no_instance_dict(self, record):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.not_a_field = 1


class TestACopySharesNothingMutable:
    @pytest.mark.parametrize("make", [tcp_frame, udp_frame])
    def test_every_stored_field_stays_on_the_copy(self, make):
        original = make()
        wire = original.pack()
        clone = original.copy()
        view = PacketView(clone)
        written = 0
        for row in FIELDS:
            if row.region == "meta":
                continue  # read-only: not a store
            value = (view.get_field(row.region, row.name) + 1) & row.mask
            view.set_field(row.region, row.name, value)
            written += view.get_field(row.region, row.name) == value
        assert clone.pack() != wire
        assert original.pack() == wire
        assert written > 10

    def test_payload_bytes_are_shared_not_copied(self):
        original = tcp_frame()
        assert original.copy().payload is original.payload


class TestTheAnnotationAreaIsMadeOnFirstWrite:
    def test_a_packet_nothing_annotates_holds_no_dict(self):
        packet = tcp_frame()
        assert packet._meta is None
        assert packet.copy()._meta is None
        packet.pack()
        packet.five_tuple()
        assert packet._meta is None

    def test_an_emptied_area_is_not_copied(self):
        packet = tcp_frame()
        packet.metadata[SHIM_KEY] = b"\x01"
        del packet.metadata[SHIM_KEY]
        assert packet.copy()._meta is None

    def test_an_annotated_copy_gets_its_own_dict(self):
        original = annotated(tcp_frame())
        clone = original.copy()
        assert clone.metadata == original.metadata
        assert clone.metadata is not original.metadata
        clone.metadata[SHIM_KEY] = b"\xff"
        del clone.metadata[SHIM_DIR_KEY]
        original.metadata["int"] = []
        assert original.metadata == {
            SHIM_KEY: b"\x01\x02\x03", SHIM_DIR_KEY: "to_server", "int": [],
        }
        assert clone.metadata == {SHIM_KEY: b"\xff"}


class TestFootprint:
    def test_a_copy_of_a_full_size_frame_stays_small(self):
        assert bytes_per_copy(tcp_frame()) <= COPY_BYTES_CEILING


def main() -> None:
    print(f"{'frame':<28} {'B/copy':>8} {'us/copy':>8}")
    for name, make in FRAMES.items():
        packet = make()
        print(f"{name:<28} {bytes_per_copy(packet):>8.0f}"
              f" {us_per_copy(packet):>8.2f}")


if __name__ == "__main__":
    main()
