"""Tests for dependency extraction (paper §4.1, Figure 3)."""

import pytest

from repro.analysis.depgraph import DependencyKind, build_dependency_graph
from repro.analysis.reachability import compute_reachability
from repro.ir import instructions as irin
from repro.ir import lower_program
from repro.lang import parse_program
from tests.conftest import MINILB_SOURCE, get_bundle


def lower(statements: str, members: str = ""):
    source = (
        f"class T {{ {members} void process(Packet *pkt) {{ {statements} }} }};"
    )
    return lower_program(parse_program(source))


def find_inst(graph, predicate):
    return next(i for i in graph.instructions if predicate(i))


def kinds(graph, src, dst):
    """The dependency kinds on the edge ``src`` -> ``dst`` (maybe none)."""
    return graph.edges.get((src.id, dst.id), frozenset())


def statement_edges(graph):
    """The graph's edges lifted to source statements (Figure 3's view)."""
    stmt = {inst.id: inst.stmt_id for inst in graph.instructions}
    return {
        (stmt[a], stmt[b]) for a, b in graph.edges
        if stmt[a] >= 0 and stmt[b] >= 0 and stmt[a] != stmt[b]
    }


class TestCanHappenAfter:
    def test_straight_line_order(self):
        lowered = lower(
            "uint32_t a = 1; uint32_t b = a + 1; pkt->send();"
        )
        info = compute_reachability(lowered.process)
        insts = list(lowered.process.instructions())
        assert info.can_happen_after(insts[0], insts[1])
        assert not info.can_happen_after(insts[1], insts[0])

    def test_exclusive_branches_unordered(self):
        lowered = lower(
            "uint32_t a = 1;"
            " if (a) { pkt->send(); } else { pkt->drop(); }"
        )
        info = compute_reachability(lowered.process)
        send = find_inst(
            build_dependency_graph(lowered.process),
            lambda i: isinstance(i, irin.Send),
        )
        drop = find_inst(
            build_dependency_graph(lowered.process),
            lambda i: isinstance(i, irin.Drop),
        )
        assert not info.can_happen_after(send, drop)
        assert not info.can_happen_after(drop, send)

    def test_loop_instruction_after_itself(self):
        lowered = lower(
            "uint32_t i = 0; while (i < 3) { i += 1; } pkt->send();"
        )
        info = compute_reachability(lowered.process)
        graph = build_dependency_graph(lowered.process)
        increment = find_inst(
            graph,
            lambda i: isinstance(i, irin.BinOp)
            and i.op is irin.BinOpKind.ADD,
        )
        assert info.can_happen_after(increment, increment)
        assert graph.self_dependent(increment)


class TestDependencyKinds:
    def test_data_dependency_raw(self):
        lowered = lower("uint32_t a = 1; uint32_t b = a + 1; pkt->send();")
        graph = build_dependency_graph(lowered.process)
        assign_a = find_inst(
            graph,
            lambda i: isinstance(i, irin.Assign)
            and i.dst.name.startswith("a."),
        )
        add = find_inst(
            graph,
            lambda i: isinstance(i, irin.BinOp) and i.op is irin.BinOpKind.ADD,
        )
        assert DependencyKind.DATA in kinds(graph, assign_a, add)

    def test_anti_dependency_war(self):
        """find reads the map, insert writes it: insert depends on find."""
        lowered = lower(
            "uint16_t k = 1; uint32_t *v = t.find(&k);"
            " uint32_t nv = 5; t.insert(&k, &nv);"
            " pkt->send();",
            members="HashMap<uint16_t, uint32_t> t;",
        )
        graph = build_dependency_graph(lowered.process)
        find = find_inst(graph, lambda i: isinstance(i, irin.MapFind))
        insert = find_inst(graph, lambda i: isinstance(i, irin.MapInsert))
        assert DependencyKind.ANTI in kinds(graph, find, insert)

    def test_control_dependency(self):
        lowered = lower(
            "uint32_t a = 1;"
            " if (a) { uint32_t b = 2; pkt->send(); } else { pkt->drop(); }"
        )
        graph = build_dependency_graph(lowered.process)
        branch = find_inst(graph, lambda i: isinstance(i, irin.Branch))
        guarded = find_inst(
            graph,
            lambda i: isinstance(i, irin.Assign)
            and i.dst.name.startswith("b."),
        )
        assert DependencyKind.CONTROL in kinds(graph, branch, guarded)

    def test_output_commit_edge(self):
        """A global-state mutation orders before every reachable verdict."""
        lowered = lower(
            "uint16_t k = 1; uint32_t v = 2; t.insert(&k, &v); pkt->send();",
            members="HashMap<uint16_t, uint32_t> t;",
        )
        graph = build_dependency_graph(lowered.process)
        insert = find_inst(graph, lambda i: isinstance(i, irin.MapInsert))
        send = find_inst(graph, lambda i: isinstance(i, irin.Send))
        assert DependencyKind.OUTPUT_COMMIT in kinds(graph, insert, send)

    def test_no_output_commit_to_unreachable_verdict(self):
        lowered = lower(
            "uint32_t a = 1;"
            " if (a) { pkt->send(); }"
            " else { uint16_t k = 1; uint32_t v = 2; t.insert(&k, &v);"
            " pkt->send(); }",
            members="HashMap<uint16_t, uint32_t> t;",
        )
        graph = build_dependency_graph(lowered.process)
        insert = find_inst(graph, lambda i: isinstance(i, irin.MapInsert))
        sends = [i for i in graph.instructions if isinstance(i, irin.Send)]
        reachable_edges = [
            kinds(graph, insert, send) for send in sends
        ]
        with_edge = [
            kinds for kinds in reachable_edges
            if DependencyKind.OUTPUT_COMMIT in kinds
        ]
        assert len(with_edge) == 1  # only the same-branch send

    def test_header_write_before_send_is_data_dep(self):
        lowered = lower(
            "iphdr *ip = pkt->network_header(); ip->ttl = 9; pkt->send();"
        )
        graph = build_dependency_graph(lowered.process)
        store = find_inst(graph, lambda i: isinstance(i, irin.StorePacketField))
        send = find_inst(graph, lambda i: isinstance(i, irin.Send))
        assert DependencyKind.DATA in kinds(graph, store, send)


class TestMiniLBFigure3:
    """The MiniLB dependency graph must reproduce the paper's Figure 3."""

    @pytest.fixture(scope="class")
    def graph(self):
        return build_dependency_graph(get_bundle("minilb").lowered.process)

    def test_statement_edges_exist(self, graph):
        """Key statement-level edges from Figure 3.

        Statement ids are assigned when a statement finishes parsing, so
        compound statements get ids after their children: 0 decl ip_hdr
        (folded into pointer analysis), 1 hash32, 2 key, 3 find,
        4 daddr=*bk, 5 send(hit), 6 idx, 7 bk2, 8 daddr=bk2, 9 insert,
        10 send(miss), 11 the if itself.
        """
        edges = statement_edges(graph)
        assert (1, 2) in edges  # hash32 -> key
        assert (2, 3) in edges  # key -> find
        assert (1, 6) in edges  # hash32 -> idx (miss path)
        assert (3, 11) in edges  # find -> branch condition
        assert (7, 8) in edges  # backends[idx] -> daddr rewrite
        assert (2, 9) in edges  # key -> insert
        assert (9, 10) in edges  # insert -> send (output commit)
        assert (11, 4) in edges  # branch -> hit-path rewrite (control)

    def test_insert_orders_before_miss_send(self, graph):
        insert = find_inst(graph, lambda i: isinstance(i, irin.MapInsert))
        sends = [i for i in graph.instructions if isinstance(i, irin.Send)]
        assert any(
            DependencyKind.OUTPUT_COMMIT in kinds(graph, insert, send)
            for send in sends
        )

    def test_find_transitively_reaches_both_sends(self, graph):
        find = find_inst(graph, lambda i: isinstance(i, irin.MapFind))
        sends = [i for i in graph.instructions if isinstance(i, irin.Send)]
        assert all(graph.depends_transitively(send, find) for send in sends)

    def test_no_self_dependencies_in_minilb(self, graph):
        assert not any(graph.self_dependent(i) for i in graph.instructions)
