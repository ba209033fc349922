"""Tests for liveness and dependency distances."""

from typing import Dict, Tuple

from repro.analysis.depgraph import build_dependency_graph
from repro.analysis.distance import dependency_distances
from repro.ir import lower_program
from repro.ir import instructions as irin
from repro.ir.function import Function
from repro.lang import parse_program
from repro.partition.constraints import allocate_metadata, measure_pipeline


def lower(statements: str, members: str = ""):
    source = (
        f"class T {{ {members} void process(Packet *pkt) {{ {statements} }} }};"
    )
    return lower_program(parse_program(source))


def staged_ranges(function: Function) -> Dict[str, Tuple[int, int]]:
    """First/last position of each register in the staged order, an op
    holding its results, its operands and its guard's conditions: the
    ranges the allocator scans, restated apart from it."""
    ranges: Dict[str, Tuple[int, int]] = {}
    for position, (inst, _, guard) in enumerate(
        measure_pipeline(function).staged
    ):
        names = [reg.name for reg in (*inst.defs(), *inst.uses())] + [
            cond.name for conjunction in guard for cond, _ in conjunction
        ]
        for name in names:
            ranges[name] = (ranges.get(name, (position,))[0], position)
    return ranges


def staged_uses(function: Function, name: str):
    """Staged positions of the ops reading ``name``, by operand or guard."""
    return [
        position for position, (inst, _, guard) in enumerate(
            measure_pipeline(function).staged
        )
        if name in {reg.name for reg in inst.uses()}
        or name in {cond.name for conj in guard for cond, _ in conj}
    ]


class TestLiveness:
    def test_live_ranges_cover_first_to_last_use(self):
        lowered = lower(
            "uint32_t a = 1; uint32_t b = 2; uint32_t c = a + b; pkt->send();"
        )
        function = lowered.process
        a_name = next(n for n in staged_ranges(function) if n.startswith("a."))
        first, last = staged_ranges(function)[a_name]
        assert first < last == max(staged_uses(function, a_name))

    def test_the_allocator_breaks_ties_in_program_order(self):
        """Definitions before operands, instruction by instruction: a
        lookup's value and found flag start together and take bytes in
        that order (string-hash order, and so ``PYTHONHASHSEED``'s, while
        the ranges came from a set)."""
        lowered = lower(
            "uint16_t k = 1; uint32_t *p = m.find(&k);"
            " if (p != NULL) { pkt->send(); } else { pkt->drop(); }",
            members="HashMap<uint16_t, uint32_t> m;",
        )
        find = next(inst for inst in lowered.process.instructions()
                    if isinstance(inst, irin.MapFind))
        assert find.defs() == (find.value, find.found)
        assert find.uses() == find.keys
        offsets = allocate_metadata(lowered.process, (), ()).offsets
        key, value, found = (offsets[reg.name][0] for reg in
                             (find.keys[0], find.value, find.found))
        assert key < value < found
        assert set(lowered.process.registers()) == set(offsets)

    def test_straight_line_ranges_open_at_their_definition(self):
        """Nothing is live into a straight-line function: in stage order
        every register's range opens at the op that defines it."""
        lowered = lower("uint32_t a = 1; uint32_t b = a; pkt->send();")
        staged = measure_pipeline(lowered.process).staged
        for name, (first, last) in staged_ranges(lowered.process).items():
            assert 0 <= first <= last < len(staged), name
            assert name in {reg.name for reg in staged[first][0].defs()}

    def test_branch_condition_range_reaches_its_use_in_the_branch(self):
        lowered = lower(
            "uint32_t a = 1;"
            " if (a) { uint32_t b = a + 1; pkt->send(); } else { pkt->drop(); }"
        )
        function = lowered.process
        a_name = next(n for n in staged_ranges(function) if n.startswith("a."))
        uses = staged_uses(function, a_name)
        # `a` is read by the branch's test and again inside the then block.
        assert len(uses) >= 2
        first, last = staged_ranges(function)[a_name]
        assert first < min(uses) and last == max(uses)

    def test_dead_temporaries_give_their_bytes_back(self):
        """Three values that never overlap in stage order — each read
        back from the header the previous one was stored to — need one
        value's bytes, not three (the §4.3.1 reuse the allocator relies
        on)."""
        lowered = lower(
            "iphdr *ip = pkt->network_header();"
            " uint32_t a = ip->saddr; ip->daddr = a;"
            " uint32_t b = ip->daddr; ip->saddr = b;"
            " uint32_t c = ip->saddr; ip->daddr = c; pkt->send();"
        )
        function = lowered.process
        registers = function.registers()
        total = sum(reg.bytes for reg in registers.values())
        allocated = allocate_metadata(function, (), ()).total_bytes
        assert max(reg.bytes for reg in registers.values()) <= allocated
        assert allocated < total


class TestDependencyDistance:
    def test_chain_lengths_monotone(self):
        lowered = lower(
            "uint32_t a = 1; uint32_t b = a + 1; uint32_t c = b + 1;"
            " pkt->send();"
        )
        graph = build_dependency_graph(lowered.process)
        from_entry, to_exit = dependency_distances(graph)
        binops = [
            i for i in graph.instructions
            if isinstance(i, irin.BinOp)
        ]
        assert from_entry[binops[0].id] < from_entry[binops[1].id]
        assert to_exit[binops[0].id] > to_exit[binops[1].id]

    def test_copies_are_free(self):
        """Assign/Cast cost no pipeline stage."""
        lowered = lower(
            "uint32_t a = 1; uint32_t b = a; uint32_t c = b; pkt->send();"
        )
        graph = build_dependency_graph(lowered.process)
        from_entry, _ = dependency_distances(graph)
        assigns = [
            i for i in graph.instructions if isinstance(i, irin.Assign)
        ]
        # Pure copy chains do not grow the stage count.
        assert max(from_entry[a.id] for a in assigns) <= 1

    def test_loop_instructions_get_sentinel(self):
        lowered = lower(
            "uint32_t i = 0; while (i < 2) { i += 1; } pkt->send();"
        )
        graph = build_dependency_graph(lowered.process)
        from_entry, _ = dependency_distances(graph)
        cyclic = [
            i for i in graph.instructions if graph.self_dependent(i)
        ]
        assert cyclic
        assert all(from_entry[i.id] >= 10**9 for i in cyclic)

    def test_table_lookup_costs_a_stage(self):
        lowered = lower(
            "uint16_t k = 1; uint32_t *v = t.find(&k);"
            " if (v != NULL) { pkt->send(); } else { pkt->drop(); }",
            members="HashMap<uint16_t, uint32_t> t;",
        )
        graph = build_dependency_graph(lowered.process)
        from_entry, _ = dependency_distances(graph)
        find = next(
            i for i in graph.instructions if isinstance(i, irin.MapFind)
        )
        assert from_entry[find.id] >= 1
