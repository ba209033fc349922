"""Tests for the label-removing algorithm (paper §4.2.1)."""

import pytest

from repro.analysis.depgraph import build_dependency_graph
from repro.ir import instructions as irin
from repro.ir import lower_program
from repro.lang import parse_program
from repro.partition.labels import Label, Partition, run_label_removal
from tests.conftest import get_bundle


def lower(statements: str, members: str = ""):
    source = (
        f"class T {{ {members} void process(Packet *pkt) {{ {statements} }} }};"
    )
    return lower_program(parse_program(source))


def labels_for(lowered, predicate):
    graph = build_dependency_graph(lowered.process)
    assignment = run_label_removal(graph)
    inst = next(i for i in graph.instructions if predicate(i))
    return assignment.labels[inst.id], assignment, inst


class TestInitialLabels:
    """The starting sets, read off programs where no rule removes more."""

    def test_p4_supported_gets_all_labels(self):
        lowered = lower("uint32_t a = 1 + 2; pkt->send();")
        graph = build_dependency_graph(lowered.process)
        labels = run_label_removal(graph).labels
        add = next(
            i for i in graph.instructions if isinstance(i, irin.BinOp)
        )
        assert labels[add.id] == {Label.PRE, Label.POST, Label.NON_OFF}

    def test_unsupported_op_non_off_only(self):
        lowered = lower("uint32_t a = 7 % 3; pkt->send();")
        graph = build_dependency_graph(lowered.process)
        labels = run_label_removal(graph).labels
        mod = next(
            i for i in graph.instructions
            if isinstance(i, irin.BinOp) and i.op is irin.BinOpKind.MOD
        )
        assert labels[mod.id] == {Label.NON_OFF}

    def test_map_insert_non_off_only(self):
        lowered = lower(
            "uint16_t k = 1; uint32_t v = 2; t.insert(&k, &v); pkt->send();",
            members="HashMap<uint16_t, uint32_t> t;",
        )
        graph = build_dependency_graph(lowered.process)
        labels = run_label_removal(graph).labels
        insert = next(
            i for i in graph.instructions if isinstance(i, irin.MapInsert)
        )
        assert labels[insert.id] == {Label.NON_OFF}

    def test_removed_pins_apply(self):
        lowered = lower("uint32_t a = 1 + 2; pkt->send();")
        graph = build_dependency_graph(lowered.process)
        add = next(i for i in graph.instructions if isinstance(i, irin.BinOp))
        pins = {add.id: {Label.PRE, Label.POST}}
        labels = run_label_removal(graph, pins).labels
        assert labels[add.id] == {Label.NON_OFF}


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
        assert Label.PRE not in label_set

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
        assert Label.POST not in label_set

    def test_rule5_loops_non_off(self):
        lowered = lower(
            "uint32_t acc = 0;"
            " for (uint32_t i = 0; i < 3; i += 1) { acc += 1; }"
            " pkt->send();"
        )
        graph = build_dependency_graph(lowered.process)
        assignment = run_label_removal(graph)
        loop_add = next(
            i for i in graph.instructions
            if isinstance(i, irin.RegisterRMW) or (
                isinstance(i, irin.BinOp) and i.op is irin.BinOpKind.ADD
                and graph.self_dependent(i)
            )
        )
        assert assignment.labels[loop_add.id] == {Label.NON_OFF}

    def test_verdict_after_insert_not_pre(self):
        """Output-commit edges keep state-installing paths off the fast path."""
        lowered = lower(
            "uint16_t k = 1; uint32_t v = 2; t.insert(&k, &v); pkt->send();",
            members="HashMap<uint16_t, uint32_t> t;",
        )
        label_set, _, _ = labels_for(lowered, lambda i: isinstance(i, irin.Send))
        assert Label.PRE not in label_set
        assert Label.POST in label_set  # released by the post partition

    def test_pure_filter_drop_stays_pre(self):
        lowered = lower(
            "uint16_t k = 1;"
            " if (t.contains(&k)) { pkt->send(); } else { pkt->drop(); }",
            members="HashMap<uint16_t, uint32_t> t;",
        )
        label_set, _, _ = labels_for(lowered, lambda i: isinstance(i, irin.Drop))
        assert Label.PRE in label_set


class TestPartitionAssignment:
    def test_pre_wins_over_post(self):
        lowered = lower("uint32_t a = 1 + 1; pkt->send();")
        graph = build_dependency_graph(lowered.process)
        assignment = run_label_removal(graph)
        add = next(i for i in graph.instructions if isinstance(i, irin.BinOp))
        assert assignment.partition_of(add) is Partition.PRE

    def test_partition_order_respected_along_edges(self, middlebox_name, bundle):
        """For every dependency edge, partition(src) <= partition(dst)."""
        graph = build_dependency_graph(bundle.lowered.process)
        assignment = run_label_removal(graph)
        for (src_id, dst_id) in graph.edges:
            src = graph.by_id(src_id)
            dst = graph.by_id(dst_id)
            assert (
                assignment.partition_of(src).value
                <= assignment.partition_of(dst).value
            ), f"{middlebox_name}: edge {src!r} -> {dst!r} violates order"

    def test_offloaded_count(self):
        lowered = lower("uint32_t a = 1 + 1; pkt->send();")
        graph = build_dependency_graph(lowered.process)
        assignment = run_label_removal(graph)
        assert assignment.offloaded_count() == len(graph.instructions)


class TestMiniLBFigure4Labels:
    """The MiniLB partitioning must match the paper's Figure 4."""

    @pytest.fixture(scope="class")
    def assignment(self):
        lowered = get_bundle("minilb").lowered
        graph = build_dependency_graph(lowered.process)
        return run_label_removal(graph)

    def _partition(self, assignment, predicate):
        inst = next(
            i for i in assignment.graph.instructions if predicate(i)
        )
        return assignment.partition_of(inst)

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
            assignment.partition_of(send).name for send in sends
        )
        assert partitions == ["POST", "PRE"]

    def test_miss_daddr_rewrite_is_post(self, assignment):
        stores = [
            i for i in assignment.graph.instructions
            if isinstance(i, irin.StorePacketField) and i.field == "daddr"
        ]
        partitions = sorted(
            assignment.partition_of(store).name for store in stores
        )
        assert partitions == ["POST", "PRE"]

    def test_branch_is_pre(self, assignment):
        assert self._partition(
            assignment, lambda i: isinstance(i, irin.Branch)
        ) is Partition.PRE
