"""Packet-region aliasing in dependency locations.

Click's ``transport_header()`` exposes one L4 view: TCP and UDP port
fields share byte offsets, and the interpreter honours the aliasing.
Dependency analysis must therefore treat ``tcp`` and ``udp`` as the same
location, or the partitioner can reorder a load of one protocol's view
past a store to the other's (difftest corpus ``l4_alias_hoist``).
"""

from repro.ir.values import (
    HEADER_REGIONS,
    LocKind,
    Location,
    aliased_packet_region,
)


def test_tcp_udp_collapse_to_l4():
    assert aliased_packet_region("tcp") == "l4"
    assert aliased_packet_region("udp") == "l4"
    assert Location.packet("tcp") == Location.packet("udp")


def test_other_regions_unchanged():
    for region in ("eth", "ip", "payload", "meta"):
        assert aliased_packet_region(region) == region
        assert Location.packet(region).name == region


def test_location_kind_preserved():
    loc = Location.packet("tcp")
    assert loc.kind is LocKind.PACKET
    assert loc.is_packet and not loc.is_global


def test_header_regions_still_name_both_protocols():
    """The raw region list is unchanged — only dependency locations fold."""
    assert "tcp" in HEADER_REGIONS and "udp" in HEADER_REGIONS


def test_an_operand_knows_its_width():
    """``bits`` / ``bytes`` are what every sizing site (shim fields,
    transfer bytes, scratchpad slots, P4 ``bit<N>``, C types) reads: the
    type's width, 32 where there is none to resolve, at least one bit,
    whole bytes rounded up."""
    from repro.ir.values import Const, Reg
    from repro.lang.types import BOOL, VOID, IntType, Type

    for type_, bits, size in [
        (BOOL, 1, 1), (IntType(8), 8, 1), (IntType(16), 16, 2),
        (IntType(48), 48, 6), (IntType(64), 64, 8),
        (VOID, 1, 1), (Type(), 32, 4), (None, 32, 4),
    ]:
        for operand in (Reg("r", type_), Const(0, type_)):
            assert (operand.bits, operand.bytes) == (bits, size), type_
