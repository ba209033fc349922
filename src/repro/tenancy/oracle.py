"""Tenant-isolation oracle: multi-tenant output ≡ solo output, byte-exact.

The multi-tenant switch promises each admitted middlebox the semantics of
its solo deployment — co-residency may only add control-plane queueing
delay, never change behaviour.  This oracle proves it the strong way: it
runs every tenant twice on the same workload slice — once inside the
shared deployment (streams interleaved round-robin, control planes
contending on one RPC channel) and once alone — and demands byte
equality on

* per-packet verdicts (send/drop, fast-path/punted flags),
* egress frames (tenant-local egress port + packed wire bytes), and
* final data-plane state (every register value, every table snapshot).

Shared-channel queue wait (``sync_wait_us``) is the one sanctioned
difference; anything else is an isolation violation with the packet index
and the register, table or field named.  Observation, comparison and
end state are the oracle kernel's (:mod:`repro.difftest.kernel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.difftest import kernel
from repro.runtime.deployment import GalliumMiddlebox, PacketJourney
from repro.tenancy.allocator import (
    AdmissionReport,
    SharedSwitchBudget,
    TenantSpec,
    build_tenant_specs,
)
from repro.tenancy.deployment import MultiTenantDeployment, TenantRuntime
from repro.workloads.iperf import IperfWorkload, middlebox_stream

#: How many mismatches to spell out per tenant before truncating.
_MISMATCH_LIMIT = 5


@dataclass
class TenantVerdict:
    """One tenant's isolation comparison against its solo run."""

    name: str
    packets: int
    punts: int
    #: mean shared-channel-induced extra output-commit wait (µs)
    extra_sync_wait_us: float
    mismatches: List[str] = field(default_factory=list)

    @property
    def isolated(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "packets": self.packets,
            "punts": self.punts,
            "isolated": self.isolated,
            "extra_sync_wait_us": round(self.extra_sync_wait_us, 3),
            "mismatches": list(self.mismatches),
        }


@dataclass
class IsolationResult:
    """Oracle outcome for one tenant set."""

    admission: AdmissionReport
    verdicts: List[TenantVerdict] = field(default_factory=list)
    #: per-tenant shared-channel pressure from the multi-tenant run
    channel: Dict[str, dict] = field(default_factory=dict)
    #: per-tenant switch counters from the multi-tenant run
    counters: Dict[str, dict] = field(default_factory=dict)
    #: per-tenant windowed time series (``series_window_us`` runs only)
    series: Dict[str, dict] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(v.isolated for v in self.verdicts)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "admission": self.admission.to_dict(),
            "tenants": [v.to_dict() for v in self.verdicts],
        }

    def format(self) -> str:
        lines = []
        for verdict in self.verdicts:
            status = "isolated" if verdict.isolated else "VIOLATION"
            lines.append(
                f"  {verdict.name}: {status} — {verdict.packets} packets,"
                f" {verdict.punts} punts,"
                f" +{verdict.extra_sync_wait_us:.1f} µs mean queue wait"
            )
            lines.extend(f"    {m}" for m in verdict.mismatches)
        verdict_line = "PASS" if self.ok else "FAIL"
        lines.append(f"isolation: {verdict_line}")
        return "\n".join(lines)


def run_solo(
    name: str, packets: int, seed: int, fast_path: bool
) -> Tuple[List[PacketJourney], dict]:
    """One tenant's reference run: alone on its own switch.

    Compiles fresh (compilation is deterministic, and sharing compiled
    objects with the multi-tenant run could let one side's mutations
    leak into the other — the exact thing the oracle must not assume).
    """
    (spec,) = build_tenant_specs([name])
    middlebox = GalliumMiddlebox(
        spec.plan, spec.program, config=spec.config, seed=seed,
        fast_path=fast_path,
    )
    middlebox.install()
    stream = islice(middlebox_stream(name, IperfWorkload()), packets)
    journeys = [
        middlebox.process_packet(packet, ingress_port)
        for packet, ingress_port in stream
    ]
    return journeys, kernel.end_state(middlebox)


def run_isolation_oracle(
    specs: Sequence[TenantSpec],
    packets_per_tenant: int = 100,
    budget: Optional[SharedSwitchBudget] = None,
    seed: int = 0,
    fast_path: bool = False,
    series_window_us: Optional[float] = None,
) -> IsolationResult:
    """Deploy ``specs`` on one shared switch and compare every admitted
    tenant against its solo reference.

    The shared run uses the caller's compiled specs under the deployment's
    one admission (:attr:`IsolationResult.admission`); each solo reference
    compiles its tenant afresh.  ``series_window_us`` turns on per-tenant
    windowed time series for the multi-tenant run; the hubs land on
    :attr:`IsolationResult.series` keyed by tenant name.
    """
    shared = MultiTenantDeployment(
        list(specs), budget=budget, seed=seed, fast_path=fast_path,
        series_window_us=series_window_us,
    )
    shared.install()
    streams = {
        t.name: middlebox_stream(t.name, IperfWorkload())
        for t in shared.tenants
    }
    multi_journeys = shared.run_workload(streams, packets_per_tenant)
    multi_state = shared.state_snapshots()
    result = IsolationResult(
        admission=shared.admission,
        channel=shared.channel_stats(),
        counters=shared.counters(),
        series=shared.series_snapshots(),
    )
    for tenant in shared.tenants:
        solo_journeys, solo_state = run_solo(
            tenant.name, packets_per_tenant, seed, fast_path
        )
        result.verdicts.append(_compare_tenant(
            tenant,
            multi_journeys[tenant.name],
            multi_state[tenant.name],
            solo_journeys,
            solo_state,
        ))
    return result


_LABELS = ("multi", "solo")


def _compare_tenant(
    tenant: TenantRuntime,
    multi: List[PacketJourney],
    multi_state: dict,
    solo: List[PacketJourney],
    solo_state: dict,
) -> TenantVerdict:
    base = tenant.placement.port_base

    def findings() -> Iterator[kernel.Finding]:
        if len(multi) != len(solo):
            yield kernel.Finding(
                "count", None,
                f"packet count differs: multi={len(multi)} solo={len(solo)}",
            )
        for index, (m, s) in enumerate(zip(multi, solo)):
            yield from kernel.compare(
                index, kernel.observe_exact(m, port_base=base),
                kernel.observe_exact(s), _LABELS, parts=kernel.EXACT_PARTS,
            )
        yield from kernel.diff_state(
            multi_state, solo_state, _LABELS, kernel.ALL_SECTIONS
        )

    mismatches = [str(f) for f in islice(findings(), _MISMATCH_LIMIT + 1)]
    if len(mismatches) > _MISMATCH_LIMIT:
        mismatches[-1] = "... (further mismatches truncated)"
    punted = [(m, s) for m, s in zip(multi, solo) if m.punted]
    extra_wait = sum(m.sync_wait_us - s.sync_wait_us for m, s in punted)
    return TenantVerdict(
        name=tenant.name,
        packets=len(multi),
        punts=len(punted),
        extra_sync_wait_us=extra_wait / len(punted) if punted else 0.0,
        mismatches=mismatches,
    )
