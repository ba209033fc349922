"""The multi-tenant switch: all admitted programs on one pipeline.

One physical switch fronts N admitted middleboxes (§4.3.1 generalized):
the combined program's first table matches the ingress port to pick the
owning tenant, then jumps into that tenant's pre/post pipelines.  In the
simulator each tenant's pipelines, tables, and registers are its
solo-compiled artifacts installed side by side — the dispatch stage and
the per-tenant port/SRAM/PHV carve come from the one
:class:`~repro.tenancy.allocator.AdmissionReport` the deployment makes.

Isolation model
---------------
Each tenant keeps its **own** telemetry bundle (clock, metrics, tracer)
and jitter RNG, exactly as in its solo deployment; tenants share only the
physical substrate the allocator carved (disjoint by construction) and
the control plane's **FIFO RPC channel**.  The shared channel is the one
coupling: a tenant's update batch queues behind other tenants' in-flight
RPCs (`control_plane.rpc_queue_wait_us` goes strictly positive, which a
solo deployment can never make it do — it would have to queue behind
itself).  Queue wait only delays output commit (``sync_wait_us``); it
never changes a verdict, register, or egress byte.  That is the isolation
guarantee :mod:`repro.tenancy.oracle` proves byte-exactly against solo
runs.

Dispatch
--------
Global ingress ports are carved in blocks of
:data:`~repro.tenancy.allocator.PORTS_PER_TENANT` per tenant (tenant *i*
owns ``base = i * 4``: ``base+1``/``base+2`` network, ``base+3`` its punt
port).  Egress ports in every emitted pair are translated back to global.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterator, List, Optional, Tuple

from repro.difftest import kernel
from repro.net.packet import RawPacket
from repro.runtime.deployment import GalliumMiddlebox, PacketJourney
from repro.switchsim.control_plane import RpcChannel
from repro.telemetry import Telemetry
from repro.tenancy.allocator import (
    PORTS_PER_TENANT,
    SharedSwitchBudget,
    SwitchResourceAllocator,
    TenantPlacement,
    TenantSpec,
)


class TenantDispatchError(Exception):
    """A packet arrived that no admitted tenant owns."""


@dataclass
class TenantRuntime:
    """One admitted tenant's slice of the shared switch."""

    spec: TenantSpec
    placement: TenantPlacement
    middlebox: GalliumMiddlebox
    journeys: List[PacketJourney] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.spec.name

    def state_snapshot(self) -> dict:
        """Final state, byte-comparable against a solo run."""
        return kernel.end_state(self.middlebox)


class MultiTenantDeployment:
    """All admitted middleboxes running on one switch + shared channel."""

    def __init__(
        self,
        specs: List[TenantSpec],
        budget: Optional[SharedSwitchBudget] = None,
        seed: int = 0,
        fast_path: bool = False,
        series_window_us: Optional[float] = None,
    ):
        self.admission = SwitchResourceAllocator(budget).admit(specs)
        #: the one shared control-plane pipe (the M/M/1 FIFO)
        self.channel = RpcChannel()
        by_name = {spec.name: spec for spec in specs}
        #: admitted tenants in placement order (tenant *i* owns port block *i*)
        self.tenants: List[TenantRuntime] = []
        for placement in self.admission.admitted:
            spec = by_name[placement.name]
            middlebox = GalliumMiddlebox(
                spec.plan,
                spec.program,
                config=spec.config,
                seed=seed,
                telemetry=Telemetry(
                    series_window_us=series_window_us,
                    series_tenant=spec.name,
                ),
                fast_path=fast_path,
            )
            # Share the RPC pipe; everything else stays per-tenant.
            middlebox.switch.control_plane.attach_channel(self.channel)
            if middlebox.telemetry.series is not None:
                # Windowing on: promote the default series now, before
                # any traffic, so window 0 starts at the epoch for every
                # tenant and the per-tenant hubs line up.
                middlebox.telemetry.series.promote_defaults()
            self.tenants.append(TenantRuntime(spec, placement, middlebox))

    def install(self) -> None:
        """Configure every tenant and push its state to the switch."""
        for tenant in self.tenants:
            tenant.middlebox.install()

    # -- the packet path ----------------------------------------------------

    def dispatch(self, ingress_port: int) -> Tuple[TenantRuntime, int]:
        """Resolve a global ingress port to (owning tenant, tenant-local
        ingress port) by the port block it falls in."""
        index, local = divmod(ingress_port - 1, PORTS_PER_TENANT)
        if not 0 <= index < len(self.tenants):
            raise TenantDispatchError(
                f"ingress port {ingress_port} is outside every tenant's"
                f" carve (tenants occupy ports 1-"
                f"{len(self.tenants) * PORTS_PER_TENANT})"
            )
        return self.tenants[index], local + 1

    def process_packet(
        self, packet: RawPacket, ingress_port: int
    ) -> Tuple[str, PacketJourney]:
        """Dispatch one packet to its tenant; returns (tenant, journey).

        ``ingress_port`` is global; the owning tenant sees its local
        port and the journey's emitted pairs are translated back to
        global ports.
        """
        tenant, local_port = self.dispatch(ingress_port)
        journey = tenant.middlebox.process_packet(packet, local_port)
        base = tenant.placement.port_base
        journey.emitted = [
            (base + port, frame) for port, frame in journey.emitted
        ]
        tenant.journeys.append(journey)
        return tenant.name, journey

    def run_workload(
        self,
        streams: Dict[str, Iterator[Tuple[RawPacket, int]]],
        packets_per_tenant: int,
    ) -> Dict[str, List[PacketJourney]]:
        """Interleave per-tenant streams round-robin through the switch.

        ``streams`` maps tenant name to a (packet, local ingress port)
        iterator — the same stream a solo deployment would consume, so
        solo and multi-tenant runs see identical per-tenant workloads.
        Round-robin interleaving is what makes the shared channel queue:
        tenant B's punt lands while tenant A's write-back RPC is still
        in flight.
        """
        bounded = {
            name: islice(stream, packets_per_tenant)
            for name, stream in streams.items()
        }
        active = [t for t in self.tenants if t.name in bounded]
        exhausted: set = set()
        while len(exhausted) < len(active):
            for tenant in active:
                if tenant.name in exhausted:
                    continue
                try:
                    packet, local_port = next(bounded[tenant.name])
                except StopIteration:
                    exhausted.add(tenant.name)
                    continue
                global_port = tenant.placement.port_base + local_port
                self.process_packet(packet, global_port)
        return {t.name: list(t.journeys) for t in active}

    # -- observability -------------------------------------------------------

    def counters(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant switch counters, tagged by tenant name."""
        return {
            tenant.name: tenant.middlebox.switch.counters()
            for tenant in self.tenants
        }

    def metrics_snapshots(self) -> Dict[str, dict]:
        """Per-tenant metrics, tagged by tenant name."""
        return {
            tenant.name: tenant.middlebox.telemetry.metrics.to_dict()
            for tenant in self.tenants
        }

    def channel_stats(self) -> Dict[str, dict]:
        """Shared-channel pressure as each tenant experienced it."""
        out: Dict[str, dict] = {}
        for tenant in self.tenants:
            metrics = tenant.middlebox.telemetry.metrics
            hist = metrics.histogram("control_plane.rpc_queue_wait_us")
            out[tenant.name] = {
                "rpc_count": hist.count,
                "queue_wait_total_us": hist.sum,
                "queue_wait_mean_us": hist.mean,
            }
        return out

    def state_snapshots(self) -> Dict[str, dict]:
        return {
            tenant.name: tenant.state_snapshot() for tenant in self.tenants
        }

    def series_snapshots(self) -> Dict[str, dict]:
        """Per-tenant windowed time series (tenants whose telemetry has
        windowing on; empty when ``series_window_us`` was not given)."""
        out: Dict[str, dict] = {}
        for tenant in self.tenants:
            hub = tenant.middlebox.telemetry.series
            if hub is not None:
                out[tenant.name] = hub.to_dict()
        return out
