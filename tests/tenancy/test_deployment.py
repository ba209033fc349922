"""Tests for the multi-tenant deployment: dispatch, state, channel."""

import pytest

from repro.tenancy import build_tenant_specs
from repro.tenancy.allocator import PORTS_PER_TENANT
from repro.tenancy.deployment import (
    MultiTenantDeployment,
    TenantDispatchError,
)
from repro.workloads.iperf import IperfWorkload, middlebox_stream

TRIO = ["minilb", "mazunat", "lb"]


def build(names=TRIO, **kwargs):
    deployment = MultiTenantDeployment(build_tenant_specs(names), **kwargs)
    deployment.install()
    return deployment


def streams(deployment):
    return {
        t.name: middlebox_stream(t.name, IperfWorkload())
        for t in deployment.tenants
    }


class TestDispatch:
    def test_port_blocks_route_to_owning_tenant(self):
        deployment = build()
        for tenant in deployment.tenants:
            _, local = next(middlebox_stream(tenant.name, IperfWorkload()))
            owner, resolved = deployment.dispatch(
                tenant.placement.port_base + local
            )
            assert owner.name == tenant.name
            assert resolved == local

    def test_every_port_of_a_block_routes_to_its_tenant(self):
        deployment = build()
        for tenant in deployment.tenants:
            base = tenant.placement.port_base
            for local in range(1, PORTS_PER_TENANT + 1):
                owner, resolved = deployment.dispatch(base + local)
                assert (owner.name, resolved) == (tenant.name, local)
        past_the_carve = len(deployment.tenants) * PORTS_PER_TENANT + 1
        with pytest.raises(TenantDispatchError, match="outside every"):
            deployment.dispatch(past_the_carve)

    def test_unowned_port_raises(self):
        deployment = build()
        with pytest.raises(TenantDispatchError, match="outside every"):
            deployment.dispatch(999)
        with pytest.raises(TenantDispatchError, match="outside every"):
            deployment.dispatch(0)

    def test_egress_ports_translated_to_global(self):
        deployment = build()
        for tenant in deployment.tenants:
            base = tenant.placement.port_base
            stream = middlebox_stream(tenant.name, IperfWorkload())
            packet, local = next(stream)
            name, journey = deployment.process_packet(packet, base + local)
            assert name == tenant.name
            for port, _frame in journey.emitted:
                assert base < port <= base + 4


class TestNamespaces:
    def test_tenant_tables_are_distinct_objects(self):
        deployment = build()
        # Each tenant's objects are distinct instances — no aliasing.
        tables = [
            table
            for tenant in deployment.tenants
            for table in tenant.middlebox.switch.tables.values()
        ]
        assert tables
        assert len(tables) == len({id(t) for t in tables})

    def test_tenant_registers_are_distinct_objects(self):
        deployment = build()
        registers = [
            register
            for tenant in deployment.tenants
            for register in tenant.middlebox.switch.registers.values()
        ]
        assert registers
        assert len(registers) == len({id(r) for r in registers})

    def test_counters_tagged_by_tenant(self):
        deployment = build()
        deployment.run_workload(streams(deployment), 5)
        counters = deployment.counters()
        assert set(counters) == {t.name for t in deployment.tenants}

    def test_counters_are_each_tenants_own_switch(self):
        deployment = build()
        deployment.run_workload(streams(deployment), 5)
        counters = deployment.counters()
        for tenant in deployment.tenants:
            own = tenant.middlebox.switch.counters()
            assert counters[tenant.name] == own
            assert own["fast_path"] + own["punted"] == 5, tenant.name

    def test_snapshots_are_keyed_by_tenant(self):
        deployment = build(series_window_us=100.0)
        deployment.run_workload(streams(deployment), 5)
        names = {t.name for t in deployment.tenants}
        assert set(deployment.metrics_snapshots()) == names
        assert set(deployment.state_snapshots()) == names
        assert set(deployment.series_snapshots()) == names
        assert build().series_snapshots() == {}


class TestSharedChannel:
    def test_every_tenant_submits_on_the_one_channel(self):
        deployment = build()
        for tenant in deployment.tenants:
            control_plane = tenant.middlebox.switch.control_plane
            assert control_plane.channel is deployment.channel, tenant.name

    def test_concurrent_tenants_see_positive_queue_wait(self):
        """The satellite regression: round-robin interleaving across
        tenants puts every submitter behind the others' in-flight RPCs —
        strictly positive queue wait for all of them."""
        deployment = build()
        deployment.run_workload(streams(deployment), 60)
        stats = deployment.channel_stats()
        assert set(stats) == {t.name for t in deployment.tenants}
        for tenant, entry in stats.items():
            assert entry["rpc_count"] > 0, tenant
            assert entry["queue_wait_total_us"] > 0.0, tenant

    def test_serial_solo_tenant_never_queues(self):
        """A single tenant on the shared switch is a serial submitter:
        its clock always outruns its own RPCs, so the wait stays zero
        (queueing is purely a co-residency phenomenon)."""
        deployment = build(["minilb"])
        deployment.run_workload(streams(deployment), 30)
        (entry,) = deployment.channel_stats().values()
        assert entry["rpc_count"] > 0
        assert entry["queue_wait_total_us"] == 0.0


class TestWorkload:
    def test_round_robin_bounds_each_tenant(self):
        deployment = build()
        journeys = deployment.run_workload(streams(deployment), 7)
        assert set(journeys) == {t.name for t in deployment.tenants}
        for name, tenant_journeys in journeys.items():
            assert len(tenant_journeys) == 7, name

    def test_rejected_tenant_not_deployed(self):
        deployment = MultiTenantDeployment(
            build_tenant_specs(TRIO + ["firewall", "proxy"])
        )
        names = {t.name for t in deployment.tenants}
        assert "proxy" not in names
        assert names == {"firewall", "lb", "mazunat"}
        assert not deployment.admission.ok
