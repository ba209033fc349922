"""Tests for liveness and dependency distances."""

from repro.analysis.depgraph import build_dependency_graph
from repro.analysis.distance import dependency_distances
from repro.analysis.liveness import allocate_metadata, live_ranges
from repro.ir import lower_program
from repro.ir import instructions as irin
from repro.lang import parse_program


def lower(statements: str, members: str = ""):
    source = (
        f"class T {{ {members} void process(Packet *pkt) {{ {statements} }} }};"
    )
    return lower_program(parse_program(source))


class TestLiveness:
    def test_live_ranges_cover_first_to_last_use(self):
        lowered = lower(
            "uint32_t a = 1; uint32_t b = 2; uint32_t c = a + b; pkt->send();"
        )
        ranges = live_ranges(lowered.process)
        a_name = next(n for n in ranges if n.startswith("a."))
        first, last = ranges[a_name]
        assert first < last

    def test_live_ranges_list_registers_in_program_order(self):
        """Definitions before operands, instruction by instruction — the
        allocator breaks ties on this order, which was string-hash order
        (and so ``PYTHONHASHSEED``'s) while it came from a set."""
        lowered = lower(
            "uint16_t k = 1; uint32_t *p = m.find(&k);"
            " if (p != NULL) { pkt->send(); } else { pkt->drop(); }",
            members="HashMap<uint16_t, uint32_t> m;",
        )
        find = next(inst for inst in lowered.process.instructions()
                    if isinstance(inst, irin.MapFind))
        assert find.defs() == (find.value, find.found)
        assert find.uses() == find.keys
        order = list(live_ranges(lowered.process))
        value, found, key = (order.index(reg.name) for reg in
                             (find.value, find.found, find.keys[0]))
        assert key < value < found
        assert set(lowered.process.registers()) == set(order)
        assert set(lowered.process.defined_regs()) <= set(order)

    def test_straight_line_ranges_open_at_their_definition(self):
        """Nothing is live into a straight-line function: every
        register's range opens at the instruction that defines it."""
        lowered = lower("uint32_t a = 1; uint32_t b = a; pkt->send();")
        instructions = list(lowered.process.instructions())
        for name, (first, last) in live_ranges(lowered.process).items():
            assert 0 <= first <= last < len(instructions), name
            assert name in {reg.name for reg in instructions[first].defs()}

    def test_branch_condition_range_reaches_its_use_in_the_branch(self):
        lowered = lower(
            "uint32_t a = 1;"
            " if (a) { uint32_t b = a + 1; pkt->send(); } else { pkt->drop(); }"
        )
        function = lowered.process
        instructions = list(function.instructions())
        a_name = next(n for n in live_ranges(function) if n.startswith("a."))
        uses = [
            position for position, inst in enumerate(instructions)
            if a_name in {reg.name for reg in inst.uses()}
        ]
        # `a` is read by the branch and again inside the then block.
        assert len(uses) >= 2
        first, last = live_ranges(function)[a_name]
        assert first < min(uses) and last == max(uses)

    def test_dead_temporaries_give_their_bytes_back(self):
        """Three values that never overlap need one value's bytes, not
        three (the §4.3.1 reuse the allocator relies on)."""
        lowered = lower(
            "iphdr *ip = pkt->network_header();"
            " uint32_t a = 1; ip->saddr = a;"
            " uint32_t b = 2; ip->daddr = b;"
            " uint32_t c = 3; ip->id = c; pkt->send();"
        )
        function = lowered.process
        registers = function.registers()
        total = sum(registers[name].bytes for name in live_ranges(function))
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
