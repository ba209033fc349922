"""Tests for the scratchpad metadata allocation (§4.3.1, constraint 4)."""

from repro.compiler import compile_source
from repro.difftest.generator import generate_program
from repro.difftest.runner import derive_seeds
from repro.ir import lower_program
from repro.lang import parse_program
from repro.partition.constraints import SwitchResources, allocate_metadata
from tests.analysis.test_liveness_distance import staged_ranges
from tests.partition.compile_pins import PIN_SEED, allocation_problems


def lower(statements: str, members: str = ""):
    source = (
        f"class T {{ {members} void process(Packet *pkt) {{ {statements} }} }};"
    )
    return lower_program(parse_program(source))


def pre_allocation(compiled):
    program = compiled.switch_program
    return allocate_metadata(
        program.pre, (), program.shim_to_server.carried()
    )


class TestAllocator:
    def test_no_overlap_for_concurrently_live(self, middlebox_name, compiled):
        """Registers with overlapping live ranges get disjoint bytes."""
        function = compiled.plan.pre
        allocation = pre_allocation(compiled)
        ranges = staged_ranges(function)
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
        naive = sum(reg.bytes for reg in function.registers().values())
        assert pre_allocation(compiled).total_bytes <= naive

    def test_reuse_actually_saves_on_sequential_temps(self):
        lowered = lower(
            "uint32_t a = 1; uint32_t b = a + 1;"
            " uint32_t c = b + 1; uint32_t d = c + 1;"
            " iphdr *ip = pkt->network_header(); ip->ttl = (uint8_t)d;"
            " pkt->send();"
        )
        function = lowered.process
        naive = sum(reg.bytes for reg in function.registers().values())
        assert allocate_metadata(function, (), ()).total_bytes < naive

    def test_offsets_cover_all_registers(self, middlebox_name, compiled):
        function = compiled.plan.pre
        allocation = pre_allocation(compiled)
        for inst in function.instructions():
            result = inst.result()
            if result is not None:
                assert result.name in allocation.offsets

    def test_total_bytes_is_peak(self):
        lowered = lower("uint32_t a = 1; pkt->send();")
        allocation = allocate_metadata(lowered.process, (), ())
        highest = max(
            offset + size for offset, size in allocation.offsets.values()
        )
        assert allocation.total_bytes == highest

    def test_the_boundary_holds_a_register_to_its_copy_point(self):
        """Two values that never overlap in stage order share one slot,
        unless the first is carried out at the exit (a to-server shim) or
        the second is carried in at the entry (a to-switch shim)."""
        lowered = lower(
            "iphdr *ip = pkt->network_header();"
            " uint32_t a = ip->saddr; ip->daddr = a;"
            " uint32_t b = ip->daddr; ip->saddr = b; pkt->send();"
        )
        function = lowered.process
        ranges = staged_ranges(function)
        assert ranges["a.1"][1] < ranges["b.2"][0]
        free = allocate_metadata(function, (), ())
        assert free.offsets["a.1"] == free.offsets["b.2"] == (4, 4)
        assert free.total_bytes == 8
        for held in (
            allocate_metadata(function, (), ["a.1"]),
            allocate_metadata(function, ["b.2"], ()),
        ):
            assert held.offsets["a.1"] != held.offsets["b.2"]
            assert held.total_bytes == 12

    def test_one_allocation_per_shape_and_boundary(self, middlebox_name,
                                                   compiled):
        """The partitioner, the lint and the emitter ask with the same
        boundary, in whatever order, and read one answer."""
        program = compiled.switch_program
        carried = program.shim_to_server.carried()
        allocation = allocate_metadata(program.pre, (), carried)
        assert program.stages("pre")[1] is allocation
        assert allocate_metadata(program.pre, (), reversed(carried)) is (
            allocation
        )
        report = compiled.plan.report
        assert allocation.total_bytes == report.metadata_bytes_pre


def test_tiny_gen027_is_held_to_its_allocation():
    """Under ``tiny()`` gen027 once passed on a 15 B peak of live bytes
    whose allocation needed 17 B of a 16 B scratchpad: constraint 4 is now
    the allocation, held to the shim boundary, and what metadata_t
    declares."""
    limits = SwitchResources.tiny()
    program_seed, _ = derive_seeds(PIN_SEED, 27)
    result = compile_source(
        generate_program(program_seed).source(), limits, verify=False
    )
    report = result.plan.report
    (_, pre), (_, post) = (
        result.switch_program.stages(side) for side in ("pre", "post")
    )
    assert (report.metadata_bytes_pre, report.metadata_bytes_post) == (
        pre.total_bytes, post.total_bytes
    )
    assert max(pre.total_bytes, post.total_bytes) <= limits.metadata_bytes
    assert allocation_problems(result, limits) == []
