"""Tests for the label-removing algorithm (paper §4.2.1)."""

from typing import Set

import pytest

from repro.analysis.depgraph import build_dependency_graph
from repro.ir import instructions as irin
from repro.ir import lower_program
from repro.lang import parse_program
from repro.partition.labels import Partition, run_label_removal
from tests.conftest import get_bundle

PRE, POST, NON_OFF = "pre", "post", "non_off"


def lower(statements: str, members: str = ""):
    source = (
        f"class T {{ {members} void process(Packet *pkt) {{ {statements} }} }};"
    )
    return lower_program(parse_program(source))


def labels_of(assignment, inst) -> Set[str]:
    """The label set the rules left ``inst``: ``non_off`` always, ``pre`` /
    ``post`` unless its bit is in ``no_pre`` / ``no_post``."""
    at = assignment.graph.position[inst.id]
    return {NON_OFF} | {
        label
        for label, lost in ((PRE, assignment.no_pre), (POST, assignment.no_post))
        if not lost >> at & 1
    }


def partition_of(assignment, inst) -> Partition:
    return assignment.assignment()[inst.id]


def labels_for(lowered, predicate):
    graph = build_dependency_graph(lowered.process)
    assignment = run_label_removal(graph, 0, 0)
    inst = next(i for i in graph.instructions if predicate(i))
    return labels_of(assignment, inst), assignment, inst


class TestInitialLabels:
    """The starting sets, read off programs where no rule removes more."""

    def test_p4_supported_gets_all_labels(self):
        lowered = lower("uint32_t a = 1 + 2; pkt->send();")
        graph = build_dependency_graph(lowered.process)
        assignment = run_label_removal(graph, 0, 0)
        add = next(
            i for i in graph.instructions if isinstance(i, irin.BinOp)
        )
        assert labels_of(assignment, add) == {PRE, POST, NON_OFF}

    def test_unsupported_op_non_off_only(self):
        lowered = lower("uint32_t a = 7 % 3; pkt->send();")
        graph = build_dependency_graph(lowered.process)
        assignment = run_label_removal(graph, 0, 0)
        mod = next(
            i for i in graph.instructions
            if isinstance(i, irin.BinOp) and i.op is irin.BinOpKind.MOD
        )
        assert labels_of(assignment, mod) == {NON_OFF}

    def test_map_insert_non_off_only(self):
        lowered = lower(
            "uint16_t k = 1; uint32_t v = 2; t.insert(&k, &v); pkt->send();",
            members="HashMap<uint16_t, uint32_t> t;",
        )
        graph = build_dependency_graph(lowered.process)
        assignment = run_label_removal(graph, 0, 0)
        insert = next(
            i for i in graph.instructions if isinstance(i, irin.MapInsert)
        )
        assert labels_of(assignment, insert) == {NON_OFF}

    def test_pins_apply_and_are_kept(self):
        lowered = lower("uint32_t a = 1 + 2; pkt->send();")
        graph = build_dependency_graph(lowered.process)
        add = next(i for i in graph.instructions if isinstance(i, irin.BinOp))
        pin = 1 << graph.position[add.id]
        assignment = run_label_removal(graph, pin, pin)
        assert labels_of(assignment, add) == {NON_OFF}
        assert (assignment.pinned_pre, assignment.pinned_post) == (pin, pin)
        pre_only = run_label_removal(graph, pin, 0)
        assert labels_of(pre_only, add) == {POST, NON_OFF}


class TestRules:
    def test_rule2_pre_removal_propagates_downstream(self):
        """A value computed from a non-offloadable op cannot be pre."""
        lowered = lower(
            "uint32_t a = 7 % 3; uint32_t b = a + 1;"
            " iphdr *ip = pkt->network_header(); ip->ttl = (uint8_t)b;"
            " pkt->send();"
        )
        label_set, _, _ = labels_for(
            lowered,
            lambda i: isinstance(i, irin.BinOp)
            and i.op is irin.BinOpKind.ADD,
        )
        assert PRE not in label_set

    def test_rule1_post_removal_propagates_upstream(self):
        """Upstream of a server-only statement loses post."""
        lowered = lower(
            "uint16_t k = 1; uint32_t v = k + 1; t.insert(&k, &v);"
            " pkt->send();",
            members="HashMap<uint16_t, uint32_t> t;",
        )
        label_set, _, _ = labels_for(
            lowered,
            lambda i: isinstance(i, irin.BinOp)
            and i.op is irin.BinOpKind.ADD,
        )
        assert POST not in label_set

    def test_rule5_loops_non_off(self):
        lowered = lower(
            "uint32_t acc = 0;"
            " for (uint32_t i = 0; i < 3; i += 1) { acc += 1; }"
            " pkt->send();"
        )
        graph = build_dependency_graph(lowered.process)
        assignment = run_label_removal(graph, 0, 0)
        loop_add = next(
            i for i in graph.instructions
            if isinstance(i, irin.RegisterRMW) or (
                isinstance(i, irin.BinOp) and i.op is irin.BinOpKind.ADD
                and graph.self_dependent(i)
            )
        )
        assert labels_of(assignment, loop_add) == {NON_OFF}

    def test_verdict_after_insert_not_pre(self):
        """Output-commit edges keep state-installing paths off the fast path."""
        lowered = lower(
            "uint16_t k = 1; uint32_t v = 2; t.insert(&k, &v); pkt->send();",
            members="HashMap<uint16_t, uint32_t> t;",
        )
        label_set, _, _ = labels_for(lowered, lambda i: isinstance(i, irin.Send))
        assert PRE not in label_set
        assert POST in label_set  # released by the post partition

    def test_pure_filter_drop_stays_pre(self):
        lowered = lower(
            "uint16_t k = 1;"
            " if (t.contains(&k)) { pkt->send(); } else { pkt->drop(); }",
            members="HashMap<uint16_t, uint32_t> t;",
        )
        label_set, _, _ = labels_for(lowered, lambda i: isinstance(i, irin.Drop))
        assert PRE in label_set


class TestPartitionAssignment:
    def test_pre_wins_over_post(self):
        lowered = lower("uint32_t a = 1 + 1; pkt->send();")
        graph = build_dependency_graph(lowered.process)
        assignment = run_label_removal(graph, 0, 0)
        add = next(i for i in graph.instructions if isinstance(i, irin.BinOp))
        assert partition_of(assignment, add) is Partition.PRE

    def test_partition_order_respected_along_edges(self, middlebox_name, bundle):
        """For every dependency edge, partition(src) <= partition(dst)."""
        graph = build_dependency_graph(bundle.lowered.process)
        partitions = run_label_removal(graph, 0, 0).assignment()
        for (src_id, dst_id) in graph.edges:
            assert (
                partitions[src_id].value <= partitions[dst_id].value
            ), f"{middlebox_name}: edge {src_id} -> {dst_id} violates order"

    def test_everything_offloadable_is_offloaded(self):
        lowered = lower("uint32_t a = 1 + 1; pkt->send();")
        graph = build_dependency_graph(lowered.process)
        assignment = run_label_removal(graph, 0, 0)
        assert assignment.offloaded.bit_count() == len(graph.instructions)


class TestMiniLBFigure4Labels:
    """The MiniLB partitioning must match the paper's Figure 4."""

    @pytest.fixture(scope="class")
    def assignment(self):
        lowered = get_bundle("minilb").lowered
        graph = build_dependency_graph(lowered.process)
        return run_label_removal(graph, 0, 0)

    def _partition(self, assignment, predicate):
        inst = next(
            i for i in assignment.graph.instructions if predicate(i)
        )
        return partition_of(assignment, inst)

    def test_find_is_pre(self, assignment):
        assert self._partition(
            assignment, lambda i: isinstance(i, irin.MapFind)
        ) is Partition.PRE

    def test_insert_is_non_off(self, assignment):
        assert self._partition(
            assignment, lambda i: isinstance(i, irin.MapInsert)
        ) is Partition.NON_OFF

    def test_modulo_is_non_off(self, assignment):
        assert self._partition(
            assignment,
            lambda i: isinstance(i, irin.BinOp)
            and i.op is irin.BinOpKind.MOD,
        ) is Partition.NON_OFF

    def test_backend_lookup_is_non_off(self, assignment):
        assert self._partition(
            assignment, lambda i: isinstance(i, irin.VectorGet)
        ) is Partition.NON_OFF

    def test_hit_path_send_is_pre_and_miss_send_is_post(self, assignment):
        sends = [
            i for i in assignment.graph.instructions
            if isinstance(i, irin.Send)
        ]
        partitions = sorted(
            partition_of(assignment, send).name for send in sends
        )
        assert partitions == ["POST", "PRE"]

    def test_miss_daddr_rewrite_is_post(self, assignment):
        stores = [
            i for i in assignment.graph.instructions
            if isinstance(i, irin.StorePacketField) and i.field == "daddr"
        ]
        partitions = sorted(
            partition_of(assignment, store).name for store in stores
        )
        assert partitions == ["POST", "PRE"]

    def test_branch_is_pre(self, assignment):
        assert self._partition(
            assignment, lambda i: isinstance(i, irin.Branch)
        ) is Partition.PRE
