"""Tests for the partitioning driver and resource constraints (§4.2.2)."""

import pytest

from repro.ir import instructions as irin
from repro.ir import lower_program
from repro.lang import parse_program
from repro.partition import (
    Partition,
    SwitchResources,
    partition_middlebox,
)
from tests.conftest import get_bundle, get_compiled


def lower(statements: str, members: str = ""):
    source = (
        f"class T {{ {members} void process(Packet *pkt) {{ {statements} }} }};"
    )
    return lower_program(parse_program(source))


class TestConstraint1Memory:
    def test_unannotated_map_stays_on_server(self):
        lowered = lower(
            "uint16_t k = 1;"
            " if (t.contains(&k)) { pkt->send(); } else { pkt->drop(); }",
            members="HashMap<uint16_t, uint32_t> t;",  # no max_entries
        )
        plan = partition_middlebox(lowered)
        assert plan.placements["t"].on_switch is False

    def test_annotated_map_fits(self):
        lowered = lower(
            "uint16_t k = 1;"
            " if (t.contains(&k)) { pkt->send(); } else { pkt->drop(); }",
            members="// @gallium: max_entries=1024\n"
                    "HashMap<uint16_t, uint32_t> t;",
        )
        plan = partition_middlebox(lowered)
        assert plan.placements["t"].on_switch
        assert plan.report.memory_bytes == 1024 * 6  # 2B key + 4B value

    def test_memory_pressure_evicts(self):
        lowered = lower(
            "uint16_t k = 1;"
            " if (t.contains(&k)) { pkt->send(); } else { pkt->drop(); }",
            members="// @gallium: max_entries=65536\n"
                    "HashMap<uint16_t, uint32_t> t;",
        )
        tiny = SwitchResources(memory_bytes=1000)
        plan = partition_middlebox(lowered, tiny)
        assert not plan.placements["t"].on_switch
        assert plan.report.memory_bytes <= 1000

    def test_memory_accounting_in_report(self, middlebox_name):
        plan = get_compiled(middlebox_name).plan
        assert plan.report.memory_bytes <= plan.limits.memory_bytes


class TestConstraint2Depth:
    def test_deep_chain_truncated(self):
        # A long dependent ALU chain exceeds a 4-stage pipeline.
        chain = "uint32_t a = 1;" + "".join(
            f" a = a + {i};" for i in range(2, 12)
        )
        lowered = lower(
            chain + " iphdr *ip = pkt->network_header();"
            " ip->ttl = (uint8_t)(a & 0xFF); pkt->send();"
        )
        limits = SwitchResources(pipeline_depth=4)
        plan = partition_middlebox(lowered, limits)
        assert plan.report.pipeline_depth_pre <= 4
        assert plan.counts()["non_off"] > 0

    def test_default_depth_fits_all_middleboxes(self, middlebox_name):
        plan = get_compiled(middlebox_name).plan
        assert plan.report.pipeline_depth_pre <= plan.limits.pipeline_depth
        assert plan.report.pipeline_depth_post <= plan.limits.pipeline_depth


class TestConstraint3SingleAccess:
    def test_sequential_accesses_keep_one(self):
        """Two dependent lookups of the same map: only one offloads."""
        lowered = lower(
            "uint16_t k = 1; uint32_t *a = t.find(&k);"
            " uint16_t k2 = 2; uint32_t *b = t.find(&k2);"
            " if (a != NULL && b != NULL) { pkt->send(); } else { pkt->drop(); }",
            members="// @gallium: max_entries=64\n"
                    "HashMap<uint16_t, uint32_t> t;",
        )
        plan = partition_middlebox(lowered)
        finds = [
            i for i in lowered.process.instructions()
            if isinstance(i, irin.MapFind)
        ]
        offloaded = [
            f for f in finds
            if plan.assignment[f.id] is not Partition.NON_OFF
        ]
        assert len(offloaded) <= 1

    def test_exclusive_branch_register_reads_both_offload(self):
        """Scalar (register) reads on mutually exclusive paths both stay on
        the switch — a register extern can appear in several branches."""
        lowered = lower(
            "uint8_t d = pkt->ingress_port();"
            " iphdr *ip = pkt->network_header();"
            " if (d == 1) { ip->daddr = target; pkt->send(); }"
            " else { ip->saddr = target; pkt->send(); }",
            members="uint32_t target;",
        )
        plan = partition_middlebox(lowered)
        loads = [
            i for i in lowered.process.instructions()
            if isinstance(i, irin.LoadState)
        ]
        assert len(loads) == 2
        assert all(plan.assignment[l.id] is Partition.PRE for l in loads)

    def test_exclusive_branch_table_accesses_keep_one(self):
        """Tables follow the strict paper rule: one application per
        pipeline, even across exclusive branches (Tofino restriction)."""
        lowered = lower(
            "uint8_t d = pkt->ingress_port();"
            " if (d == 1) {"
            "   uint16_t k = 1;"
            "   if (t.contains(&k)) { pkt->send(); } else { pkt->drop(); }"
            " } else {"
            "   uint16_t k2 = 2;"
            "   if (t.contains(&k2)) { pkt->send(); } else { pkt->drop(); }"
            " }",
            members="// @gallium: max_entries=64\n"
                    "HashMap<uint16_t, uint32_t> t;",
        )
        plan = partition_middlebox(lowered)
        finds = [
            i for i in lowered.process.instructions()
            if isinstance(i, irin.MapFind)
        ]
        offloaded = [
            f for f in finds
            if plan.assignment[f.id] is not Partition.NON_OFF
        ]
        assert len(offloaded) == 1

    def test_report_counts_per_traversal_sites(self, middlebox_name):
        plan = get_compiled(middlebox_name).plan
        assert all(v <= 1 for v in plan.report.state_access_sites.values())


class TestConstraints45Budgets:
    def test_transfer_budget_enforced(self, middlebox_name):
        plan = get_compiled(middlebox_name).plan
        assert plan.to_server.byte_size() <= plan.limits.transfer_bytes
        assert plan.to_switch.byte_size() <= plan.limits.transfer_bytes

    def test_metadata_budget_enforced(self, middlebox_name):
        plan = get_compiled(middlebox_name).plan
        assert plan.report.metadata_bytes_pre <= plan.limits.metadata_bytes
        assert plan.report.metadata_bytes_post <= plan.limits.metadata_bytes

    def test_starved_switch_still_partitions(self):
        """With tiny budgets everything legally collapses to the server."""
        bundle = get_bundle("minilb")
        limits = SwitchResources(
            memory_bytes=256, pipeline_depth=3, metadata_bytes=4,
            transfer_bytes=2,
        )
        plan = partition_middlebox(bundle.lowered, limits)
        assert not plan.report.violations(limits)

    def test_tighter_budget_offloads_less(self):
        bundle = get_bundle("lb")
        generous = partition_middlebox(bundle.lowered, SwitchResources())
        tight = partition_middlebox(
            bundle.lowered, SwitchResources(transfer_bytes=6)
        )
        assert tight.counts()["pre"] <= generous.counts()["pre"]
        assert tight.to_server.byte_size() <= 6


class TestPlacements:
    def test_write_locality_pins_offloaded_writers(self):
        """State written on the switch must not also be accessed on the
        server: replication is one-directional (journal -> switch), so a
        switch-side register write would leave the server's copy stale.

        Regression (difftest corpus ``stranded_offloaded_register_write``):
        with two RMWs on one scalar, single-access kept one on the switch
        and the server then updated a stale value.
        """
        lowered = lower(
            "ctr0 += 1; ctr0 -= 0; pkt->send();",
            members="uint32_t ctr0;",
        )
        plan = partition_middlebox(lowered)
        assert plan.placements["ctr0"].kind.value != "switch_register"
        rmws = [
            i for i in lowered.process.instructions()
            if isinstance(i, irin.RegisterRMW)
        ]
        assert len(rmws) == 2
        assert all(plan.assignment[r.id] is Partition.NON_OFF for r in rmws)

    def test_sole_register_writer_still_offloads(self):
        """The write-locality rule must not cost us the common case."""
        lowered = lower(
            "ctr0 += 1; pkt->send();",
            members="uint32_t ctr0;",
        )
        plan = partition_middlebox(lowered)
        assert plan.placements["ctr0"].kind.value == "switch_register"

    def test_minilb_placements(self):
        plan = get_compiled("minilb").plan
        assert plan.placements["map"].kind.value == "replicated_table"
        assert plan.placements["backends"].kind.value == "server_only"

    def test_mazunat_counter_is_switch_register(self):
        plan = get_compiled("mazunat").plan
        assert plan.placements["port_counter"].kind.value == "switch_register"
        assert plan.placements["nat_out"].kind.value == "replicated_table"

    def test_firewall_tables_not_replicated(self):
        plan = get_compiled("firewall").plan
        assert plan.placements["wl_out"].kind.value == "switch_table"
        assert plan.placements["wl_in"].kind.value == "switch_table"

    def test_trojan_flow_table_on_switch(self):
        plan = get_compiled("trojan").plan
        assert plan.placements["flows"].on_switch
        assert plan.placements["host_state"].on_switch

    def test_fully_offloaded_middleboxes_have_empty_server_partition(self):
        for name in ("firewall", "proxy"):
            plan = get_compiled(name).plan
            assert plan.counts()["non_off"] == 0
            assert plan.to_server.byte_size() == 0

    def test_summary_mentions_counts(self, middlebox_name):
        summary = get_compiled(middlebox_name).plan.summary()
        assert "pre=" in summary and "non_off=" in summary
