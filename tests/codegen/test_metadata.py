"""Tests for the scratchpad metadata allocator (§4.3.1)."""

from hypothesis import given, strategies as st

from repro.analysis.liveness import live_ranges
from repro.codegen.metadata import allocate_metadata
from repro.ir import lower_program
from repro.lang import parse_program
from tests.conftest import get_compiled


def lower(statements: str, members: str = ""):
    source = (
        f"class T {{ {members} void process(Packet *pkt) {{ {statements} }} }};"
    )
    return lower_program(parse_program(source))


class TestAllocator:
    def test_no_overlap_for_concurrently_live(self, middlebox_name, compiled):
        """Registers with overlapping live ranges get disjoint bytes."""
        function = compiled.plan.pre
        allocation = allocate_metadata(function)
        ranges = live_ranges(function)
        names = list(allocation.offsets)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                ra, rb = ranges[a], ranges[b]
                overlap_live = not (ra[1] < rb[0] or rb[1] < ra[0])
                if overlap_live:
                    oa, sa = allocation.offsets[a]
                    ob, sb = allocation.offsets[b]
                    assert oa + sa <= ob or ob + sb <= oa, (
                        f"{a} and {b} overlap in scratchpad"
                    )

    def test_reuse_never_worse_than_naive(self, middlebox_name, compiled):
        function = compiled.plan.pre
        with_reuse = allocate_metadata(function, reuse=True)
        without = allocate_metadata(function, reuse=False)
        assert with_reuse.total_bytes <= without.total_bytes
        assert with_reuse.naive_bytes == without.total_bytes

    def test_reuse_actually_saves_on_sequential_temps(self):
        lowered = lower(
            "uint32_t a = 1; uint32_t b = a + 1;"
            " uint32_t c = b + 1; uint32_t d = c + 1;"
            " iphdr *ip = pkt->network_header(); ip->ttl = (uint8_t)d;"
            " pkt->send();"
        )
        allocation = allocate_metadata(lowered.process)
        assert allocation.naive_bytes > allocation.total_bytes

    def test_offsets_cover_all_registers(self, middlebox_name, compiled):
        function = compiled.plan.pre
        allocation = allocate_metadata(function)
        for inst in function.instructions():
            result = inst.result()
            if result is not None:
                assert result.name in allocation.offsets

    def test_total_bytes_is_peak(self):
        lowered = lower("uint32_t a = 1; pkt->send();")
        allocation = allocate_metadata(lowered.process)
        highest = max(
            offset + size for offset, size in allocation.offsets.values()
        )
        assert allocation.total_bytes == highest
