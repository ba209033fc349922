"""Hostile frames at ``RawPacket.parse``: a seeded byte-mutation fuzz.

Valid TCP and UDP frames are truncated, bit-flipped and extended.  Every
frame ``parse`` accepts re-packs to its own length (and parsing the
re-pack is a fixed point); every other frame is refused with
``PacketBuildError``, a ``ValueError`` — never another exception, never
a packet of a different shape.
"""

import random

import pytest

from repro.net.addresses import ip, mac
from repro.net.headers import EthernetHeader, Ipv4Header, TcpHeader, UdpHeader
from repro.net.packet import PacketBuildError, RawPacket

SEED = 28
MUTANTS = 3000


def _tcp(payload: bytes) -> bytes:
    return RawPacket.make_tcp(
        EthernetHeader(mac("02:00:00:00:00:02"), mac("02:00:00:00:00:01")),
        Ipv4Header(saddr=ip("10.0.0.1"), daddr=ip("10.0.0.2")),
        TcpHeader(sport=1111, dport=80, flags=0x18),
        payload,
    ).pack()


def _udp(payload: bytes) -> bytes:
    return RawPacket.make_udp(
        EthernetHeader(),
        Ipv4Header(saddr=ip("1.1.1.1"), daddr=ip("2.2.2.2")),
        UdpHeader(sport=5000, dport=53),
        payload,
    ).pack()


VALID = (_tcp(b""), _tcp(b"payload!"), _udp(b""), _udp(b"query"))


def _mutate(frame: bytes, rng: random.Random) -> bytes:
    kind = rng.randrange(3)
    if kind == 0:
        return frame[:rng.randrange(len(frame))]
    if kind == 1:
        data = bytearray(frame)
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        return bytes(data)
    return frame + bytes(rng.randrange(256) for _ in range(rng.randint(1, 24)))


def _accepted(frame: bytes) -> bool:
    """Parse ``frame``; hold an accepted one to its length, a refused one
    to ``PacketBuildError``."""
    try:
        packet = RawPacket.parse(frame)
    except ValueError as refusal:
        assert isinstance(refusal, PacketBuildError), repr(refusal)
        return False
    repacked = packet.pack()
    assert len(repacked) == len(frame) == packet.wire_length()
    assert RawPacket.parse(repacked).pack() == repacked
    return True


def test_valid_frames_round_trip():
    for frame in VALID:
        assert _accepted(frame)
        assert RawPacket.parse(frame).pack() == frame


def test_mutants_reshape_nothing():
    rng = random.Random(SEED)
    verdicts = [
        _accepted(_mutate(rng.choice(VALID), rng)) for _ in range(MUTANTS)
    ]
    # Both sides of the boundary are exercised, not just one.
    assert 0.2 < sum(verdicts) / MUTANTS < 0.8


def _with_byte(frame: bytes, offset: int, value: int) -> bytes:
    return frame[:offset] + bytes([value]) + frame[offset + 1:]


IHL = 14  # version / ihl byte
DOFF = 14 + 20 + 12  # TCP data offset / reserved byte


HOSTILE = {
    # ihl=2 would read the TCP ports out of IPv4-header bytes.
    "ihl2": (_with_byte(_tcp(b"data"), IHL, 0x42), "ihl 2"),
    # ihl=6: 62 bytes in, and options the header record cannot hold.
    "ihl6": (_with_byte(_tcp(b"opts"), IHL, 0x46), "ihl 6"),
    # A data offset past the frame would silently drop the payload.
    "doff15": (_with_byte(_tcp(b"data"), DOFF, 0xF0), "doff 15"),
    "doff6": (_with_byte(_tcp(b""), DOFF, 0x60), "doff 6"),
    "short_tcp": (_tcp(b"")[:14 + 20 + 19], "runs past"),
    "short_udp": (_udp(b"")[:14 + 20 + 7], "runs past"),
    "short_ip": (_tcp(b"")[:14 + 19], "runs past"),
    "short_eth": (b"\x00" * 13, "runs past"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_unrepresentable_headers_are_refused(case):
    frame, reason = HOSTILE[case]
    with pytest.raises(PacketBuildError, match=reason):
        RawPacket.parse(frame)
