"""One function per paper table/figure (§6).

Each function returns ``(header, rows)`` suitable for
:func:`repro.eval.reporting.render_table`, so the benchmarks print the same
rows/series the paper reports.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from repro.compiler import compile_lowered
from repro.eval.profiles import (
    MiddleboxProfile,
    build_baseline,
    build_gallium,
    profile_middlebox,
)
from repro.middleboxes import load
from repro.sim import costs
from repro.sim.capacity import CapacityModel
from repro.sim.clock import migration_us
from repro.sim.fluid import FluidFlowSimulator
from repro.sim.latency import LatencyModel
from repro.switchsim.control_plane import ControlPlane, StateUpdate
from repro.switchsim.tables import ExactMatchTable
from repro.telemetry.health import (
    RECOVERY_MIDDLEBOX,
    measure_detection_latency,
)
from repro.workloads.conga import (
    DISTRIBUTIONS,
    packets_in_flow,
    sample_flow_sizes,
)
from repro.workloads.iperf import (
    IperfWorkload,
    established_flow_packets,
    middlebox_stream,
)

#: Middleboxes evaluated in the paper's §6 (MiniLB is the running example).
EVAL_MIDDLEBOXES = ("mazunat", "lb", "firewall", "proxy", "trojan")

PACKET_SIZES = (100, 500, costs.MTU)
CORE_COUNTS = (1, 2, 4)
#: The incident the recovery tables time-weight a degraded window against.
INCIDENT_WINDOW_S = 1.0


# ---------------------------------------------------------------------------
# Table 1 — lines of code before/after compilation
# ---------------------------------------------------------------------------


def table1_loc() -> Tuple[List[str], List[List]]:
    header = ["Middlebox", "Input (C++)", "Output (P4)", "Output (C++)"]
    rows = []
    for name in EVAL_MIDDLEBOXES:
        bundle = load(name)
        result = compile_lowered(bundle.lowered)
        rows.append(
            [bundle.display_name, result.input_loc(), result.p4_loc(),
             result.cpp_loc()]
        )
    return header, rows


# ---------------------------------------------------------------------------
# Table 2 — latency
# ---------------------------------------------------------------------------


def table2_latency(samples: int = 200) -> Tuple[List[str], List[List]]:
    """Nptcp-style latency of established-flow packets (paper Table 2)."""
    header = ["Middlebox", "FastClick (µs)", "Gallium (µs)", "Reduction"]
    model = LatencyModel()
    rows = []
    for name in EVAL_MIDDLEBOXES:
        profile = _established_profile(name, packets=samples)
        wire_bytes = 100  # Nptcp-style small messages
        baseline_mean = model.baseline_us(
            int(profile.baseline_instructions_per_packet), wire_bytes
        )
        if profile.slow_fraction < 0.5:
            gallium_mean = model.fast_path_us(wire_bytes)
        else:
            gallium_mean = model.slow_path_us(
                int(profile.server_instructions_per_punt), wire_bytes
            )
        baseline = model.population([baseline_mean] * samples)
        gallium = model.population([gallium_mean] * samples)
        reduction = 1.0 - gallium.mean_us / baseline.mean_us
        rows.append(
            [
                load(name).display_name,
                f"{baseline.mean_us:.2f} ± {baseline.std_us:.2f}",
                f"{gallium.mean_us:.2f} ± {gallium.std_us:.2f}",
                f"{reduction:.0%}",
            ]
        )
    return header, rows


def _established_profile(name: str, packets: int = 200) -> MiddleboxProfile:
    """Profile steady-state packets of one established flow."""
    gallium = build_gallium(name)
    baseline = build_baseline(name)
    # Establish the flow on both (SYN).
    warmup = list(middlebox_stream(name, IperfWorkload(connections=1,
                                                       packets_per_connection=1)))
    for packet, ingress in warmup[:2]:
        baseline.process_packet(packet.copy(), ingress)
        gallium.process_packet(packet, ingress)
    profile = MiddleboxProfile(name=name)
    for packet, ingress in established_flow_packets(name, packets, 100):
        clone = packet.copy()
        result = baseline.process_packet(clone, ingress)
        journey = gallium.process_packet(packet, ingress)
        profile.packets += 1
        profile.baseline_instructions_total += result.instructions
        if journey.fast_path:
            profile.fast_path_packets += 1
        else:
            profile.punted_packets += 1
            profile.server_instructions_total += journey.server_instructions
    return profile


# ---------------------------------------------------------------------------
# Table 3 — state synchronization overhead
# ---------------------------------------------------------------------------


def table3_state_sync(trials: int = 50) -> Tuple[List[str], List[List]]:
    header = ["# tables", "Insert (µs)", "Modify (µs)", "Delete (µs)"]
    rows = []
    for count in (1, 2, 4):
        tables = {
            f"t{i}": ExactMatchTable(f"t{i}", [32], 32, 65536)
            for i in range(count)
        }
        control = ControlPlane(tables, {})
        cells = [count]
        for op in ("insert", "modify", "delete"):
            latencies = []
            for trial in range(trials):
                updates = [
                    StateUpdate(
                        "insert" if op != "delete" else "delete",
                        f"t{i}",
                        (trial * count + i,),
                        None if op == "delete" else trial,
                    )
                    for i in range(count)
                ]
                # Re-tag the op so the latency model sees modify vs insert.
                if op == "modify":
                    updates = [
                        StateUpdate("modify", u.target, u.key, u.value)
                        for u in updates
                    ]
                result = control.apply_batch(updates)
                latencies.append(result.visibility_latency_us)
            mean = statistics.mean(latencies)
            std = statistics.pstdev(latencies)
            cells.append(f"{mean:.1f} ± {std:.1f}")
        rows.append(cells)
    return header, rows


# ---------------------------------------------------------------------------
# Figure 7 — TCP microbenchmark throughput vs packet size
# ---------------------------------------------------------------------------


#: iperf packets per connection behind each Figure 7 cell
FIGURE7_PACKETS_PER_CONNECTION = 40


def figure7_throughput(name: str) -> Tuple[List[str], List[List]]:
    header = ["Packet size", "Offloaded (1c)"] + [
        f"Click-{n}c" for n in CORE_COUNTS
    ]
    capacity = CapacityModel()
    rows = []
    for size in PACKET_SIZES:
        workload = IperfWorkload(
            packets_per_connection=FIGURE7_PACKETS_PER_CONNECTION,
            packet_size=size,
        )
        profile = profile_middlebox(name, middlebox_stream(name, workload))
        offloaded = capacity.gallium_throughput(
            profile.slow_fraction,
            profile.server_instructions_per_punt,
            size,
            shim_bytes=profile.shim_to_server_bytes,
        )
        row = [f"{size}B", round(offloaded.gbps, 1)]
        for core_count in CORE_COUNTS:
            baseline = capacity.baseline_throughput(
                profile.baseline_instructions_per_packet, size, core_count
            )
            row.append(round(baseline.gbps, 1))
        rows.append(row)
    return header, rows


def cpu_savings(name: str) -> float:
    """Cycles saved at iso-throughput (§6.3: 21–79 %)."""
    packet_size = costs.MTU
    workload = IperfWorkload(packet_size=packet_size)
    profile = profile_middlebox(name, middlebox_stream(name, workload))
    capacity = CapacityModel()
    return capacity.cycles_saved_fraction(
        profile.baseline_instructions_per_packet,
        profile.slow_fraction,
        profile.server_instructions_per_punt,
        packet_size,
    )


# ---------------------------------------------------------------------------
# Figures 8 & 9 — realistic (CONGA) workloads
# ---------------------------------------------------------------------------

FCT_BIN_EDGES = [100_000, 10_000_000]  # 0-100K, 100K-10M, >10M bytes


def _workload_profiles(name: str, flow_sizes: List[int]) -> Dict[str, Dict]:
    """Derive fluid-simulation parameters from a measured profile."""
    # Measure with a small representative stream.
    workload = IperfWorkload(connections=8, packets_per_connection=30)
    profile = profile_middlebox(name, middlebox_stream(name, workload))
    latency = LatencyModel()

    total_packets = sum(packets_in_flow(size) + 2 for size in flow_sizes)
    # Slow-path packets per flow: what the measured per-flow punt count was.
    flows_measured = workload.connections
    punts_per_flow = profile.punted_packets / max(1, flows_measured)
    slow_packets = punts_per_flow * len(flow_sizes)
    gallium_slow_fraction = min(1.0, slow_packets / max(1, total_packets))

    baseline_pps = costs.packets_per_second_per_core(
        profile.baseline_instructions_per_packet, costs.MTU
    )
    server_pps = costs.packets_per_second_per_core(
        max(profile.server_instructions_per_punt, 1.0), costs.MTU
    )
    setup_gallium = latency.slow_path_us(
        int(profile.server_instructions_per_punt),
        100,
        sync_wait_us=profile.sync_wait_avg_us if profile.sync_events else 0.0,
        shim_bytes=profile.shim_to_server_bytes,
    )
    setup_baseline = latency.baseline_us(
        int(profile.baseline_instructions_per_packet), 100
    )
    return {
        "profile": profile,
        "gallium": {
            "server_pps_budget": server_pps if gallium_slow_fraction > 0 else None,
            "server_packet_fraction": gallium_slow_fraction,
            "setup_latency_us": setup_gallium,
            "per_packet_latency_us": latency.fast_path_us(costs.MTU),
        },
        "baseline": {
            "server_pps_budget": baseline_pps,  # scaled by cores at call site
            "server_packet_fraction": 1.0,
            "setup_latency_us": setup_baseline,
            "per_packet_latency_us": latency.baseline_us(
                int(profile.baseline_instructions_per_packet), costs.MTU
            ),
        },
    }


def figure8_workloads(
    name: str, flows: int = 2000
) -> Tuple[List[str], List[List]]:
    """Average throughput on the enterprise / data-mining workloads."""
    header = ["Workload", "Offloaded (1c)"] + [
        f"Click-{n}c" for n in CORE_COUNTS
    ]
    rows = []
    for workload_name in ("enterprise", "datamining"):
        sizes = sample_flow_sizes(DISTRIBUTIONS[workload_name], flows)
        params = _workload_profiles(name, sizes)
        sim = FluidFlowSimulator(sizes, **params["gallium"])
        sim.run()
        row = [workload_name, round(sim.average_throughput_gbps(), 1)]
        for core_count in CORE_COUNTS:
            base_params = dict(params["baseline"])
            base_params["server_pps_budget"] *= core_count
            base_sim = FluidFlowSimulator(sizes, **base_params)
            base_sim.run()
            row.append(round(base_sim.average_throughput_gbps(), 1))
        rows.append(row)
    return header, rows


def figure9_fct(name: str, flows: int = 2000) -> Tuple[List[str], List[List]]:
    """Average flow completion time by flow-size bin (µs)."""
    header = ["Flow size", "Click(E)", "Offloaded(E)", "Click(D)", "Offloaded(D)"]
    columns: Dict[str, Dict[str, float]] = {}
    for workload_name, letter in (("enterprise", "E"), ("datamining", "D")):
        sizes = sample_flow_sizes(DISTRIBUTIONS[workload_name], flows)
        params = _workload_profiles(name, sizes)
        base_params = dict(params["baseline"])
        base_params["server_pps_budget"] *= 4  # Click-4c
        for system, system_params in (
            (f"Click({letter})", base_params),
            (f"Offloaded({letter})", params["gallium"]),
        ):
            sim = FluidFlowSimulator(sizes, **system_params)
            sim.run()
            columns[system] = sim.fct_by_bins(FCT_BIN_EDGES)
    bins = ["0-100K", "100K-10M", ">10M"]
    rows = []
    for bin_label in bins:
        row = [bin_label]
        for column in ("Click(E)", "Offloaded(E)", "Click(D)", "Offloaded(D)"):
            value = columns.get(column, {}).get(bin_label)
            row.append(round(value, 1) if value is not None else "-")
        rows.append(row)
    return header, rows


# ---------------------------------------------------------------------------
# Fault recovery — outage timelines on the punt path (beyond the paper)
# ---------------------------------------------------------------------------


def _recovery_rates() -> Tuple[MiddleboxProfile, CapacityModel, float, float]:
    """What every recovery table prices a degraded window against: the
    recovery middlebox's measured profile on MTU-sized iperf traffic, the
    capacity model, its fault-free Gallium Gbps, and the fallback Gbps —
    with the slow path down, punts are queued or dropped and only the
    fast-path share of the traffic gets through the switch at line rate."""
    name, size = RECOVERY_MIDDLEBOX, costs.MTU
    workload = IperfWorkload(packet_size=size)
    profile = profile_middlebox(name, middlebox_stream(name, workload))
    capacity = CapacityModel()
    normal = capacity.gallium_throughput(
        profile.slow_fraction,
        profile.server_instructions_per_punt,
        size,
        shim_bytes=profile.shim_to_server_bytes,
    ).gbps
    line_gbps = capacity.line_rate_pps(size) * size * 8 / 1e9
    return profile, capacity, normal, line_gbps * (1.0 - profile.slow_fraction)


def _priced_gbps(normal: float, degraded: float, share: float) -> float:
    """The rate when ``share`` (at most all) of the time or traffic runs
    at ``degraded`` Gbps instead of ``normal``: every recovery table
    prices its degraded window through this."""
    return normal - (normal - degraded) * min(1.0, share)


def fault_recovery() -> Tuple[List[str], List[List]]:
    """Recovery behaviour of the bounded punt queue across outage lengths.

    The paper's testbed never kills the middlebox server; this table
    quantifies what the graceful-degradation machinery (``repro.faults``)
    costs when it does: punts dropped at the bounded queue, backlog
    drain time after the server returns, the p99 latency the outage adds
    to punts that survive — and the throughput cost of fallback mode.
    While the punt path is down only the offloaded fast path delivers
    packets, so the deployment runs at the fallback rate for the outage
    plus the backlog-drain window; *Effective Gbps* time-weights that
    against the fault-free (normal) rate over the whole run.
    """
    from repro.faults.timeline import OutageScenario, simulate_outage

    arrival_interval_us = 200.0
    _profile, _capacity, normal, fallback = _recovery_rates()

    header = [
        "Scenario", "Served", "Dropped", "Max queue",
        "Recovery (ms)", "Added p99 (ms)",
        "Normal Gbps", "Fallback Gbps", "Effective Gbps",
    ]
    rows = []
    for outage_ms in (1.0, 10.0, 50.0):
        for queue_depth in (8, 32, 128):
            scenario = OutageScenario(
                arrival_interval_us=arrival_interval_us,
                outage_us=outage_ms * 1000.0,
                queue_depth=queue_depth,
            )
            timeline = simulate_outage(scenario)
            # Time spent in fallback mode: the outage itself plus the
            # backlog drain, out of the run's total duration.
            run_us = scenario.punts * arrival_interval_us
            effective = _priced_gbps(
                normal, fallback,
                (scenario.outage_us + timeline.recovery_us) / run_us,
            )
            rows.append([
                scenario.describe(),
                timeline.served,
                timeline.dropped,
                timeline.max_queue,
                round(timeline.recovery_us / 1000.0, 2),
                round(timeline.added_p99_us() / 1000.0, 2),
                round(normal, 2),
                round(fallback, 2),
                round(effective, 2),
            ])
    return header, rows


def failover_recovery() -> Tuple[List[str], List[List]]:
    """Throughput cost of promoting the standby after a primary crash.

    The failover deployment (:mod:`repro.runtime.failover`) keeps a warm
    standby switch whose tables track every committed batch, so promotion
    needs no bulk reprogram — only crash *detection* plus one
    authoritative state resync from the server.  During that promotion
    window every packet is punted to the server's fallback interpreter,
    which runs the whole program in software: the deployment temporarily
    degrades from Gallium throughput to single-core baseline throughput.

    This table prices the window through the capacity model.  The first
    row uses the **measured** φ-accrual detection latency — a seeded
    failover run with a primary crash, timed from the crash packet to
    the heartbeat monitor crossing its φ threshold
    (:func:`repro.telemetry.health.measure_detection_latency`) — so the
    promotion window is costed from the detector the deployment actually
    runs.  The swept rows keep coarser supervisor heartbeat intervals as
    the exact-boundary reference.  The resync cost comes from the
    Table-3 batch-latency model over the program's actual
    switch-resident tables.  *Effective Gbps* time-weights the degraded
    window against the normal rate over an ``INCIDENT_WINDOW_S`` incident,
    and *Shed Gbps·ms* is the capacity lost while the window is open —
    the traffic the server either queues or drops.
    """
    from repro.runtime.deployment import compile_middlebox
    from repro.switchsim.control_plane import expected_batch_latency_us

    _plan, program = compile_middlebox(load(RECOVERY_MIDDLEBOX).lowered)
    switch_tables = len(program.tables)

    profile, capacity, normal, _fallback = _recovery_rates()
    # Promotion window: the full program runs on one server core (the
    # fallback interpreter), exactly as in a punt-everything deployment.
    window = capacity.baseline_throughput(
        profile.baseline_instructions_per_packet, costs.MTU, cores=1
    ).gbps
    # Resync = clear + re-install every switch-resident table from the
    # server's authoritative copy, one bulk insert batch.
    resync_us = expected_batch_latency_us(switch_tables, "insert")

    header = [
        "Scenario", "Resync (µs)", "Window (ms)",
        "Normal Gbps", "Window Gbps", "Shed Gbps·ms", "Effective Gbps",
    ]
    rows = []
    incident_ms = INCIDENT_WINDOW_S * 1000.0

    def price(label: str, detect_ms: float) -> None:
        window_ms = detect_ms + resync_us / 1000.0
        shed = max(0.0, normal - window) * window_ms
        effective = _priced_gbps(normal, window, window_ms / incident_ms)
        rows.append([
            label,
            round(resync_us, 1),
            round(window_ms, 3),
            round(normal, 2),
            round(window, 2),
            round(shed, 2),
            round(effective, 2),
        ])

    # Measured detection: the φ-accrual monitor on a seeded crash run.
    measured = measure_detection_latency()
    price(
        f"measured φ detect={measured['detection_latency_us']:g}µs"
        f" tables={switch_tables}",
        measured["detection_latency_us"] / 1000.0,
    )
    # Exact-boundary reference sweep: coarser supervisor heartbeats.
    for detect_ms in (1.0, 10.0, 50.0):
        price(
            f"detect={detect_ms:g}ms tables={switch_tables} (reference)",
            detect_ms,
        )
    return header, rows


def pool_recovery() -> Tuple[List[str], List[List]]:
    """Throughput cost of losing one punt-path pool member.

    The pooled deployment (:mod:`repro.runtime.pool`) spreads punted
    flows over N servers behind a connection-consistent selector, so a
    member crash stalls only the ~1/N of punted flows that member owns
    — the rest of the punt path keeps serving.  Recovery is a live
    flow-state migration: the crashed member's slots re-home to the
    survivors and the state they own is rebuilt from the switch's
    replicated copies (or the server-side checkpoint for server-only
    state), priced by :func:`repro.sim.clock.migration_us` on the
    simulated clock.

    The first row is **measured**: a seeded pooled run of this
    middlebox with an injected member crash, reporting the entry count
    the migration actually moved and the window the deployment actually
    charged.  The swept rows price reference pool sizes and state sizes
    through the same model.  *Degraded Gbps* is throughput while the
    migration window is open (the affected share of punted traffic
    falls back to fast-path-only delivery, cf. the fallback rate in the
    punt-queue table); *Effective Gbps* time-weights that window
    against an ``INCIDENT_WINDOW_S`` incident — compare with the
    switch-failover table above, where the whole punt path degrades.
    """
    from itertools import islice

    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan, PoolMemberCrash
    from repro.runtime.degradation import DegradationPolicy
    from repro.runtime.deployment import compile_middlebox
    from repro.runtime.pool import PooledDeployment

    name, packet_size = RECOVERY_MIDDLEBOX, costs.MTU
    # A downed member's flows see fast-path-only delivery (the same
    # fallback rate as a full punt-path outage) — but only for the 1/N
    # share of flows the member owns.
    _profile, _capacity, normal, fallback = _recovery_rates()

    header = [
        "Scenario", "Entries", "Window (ms)", "Affected",
        "Normal Gbps", "Degraded Gbps", "Effective Gbps",
    ]
    rows = []
    incident_ms = INCIDENT_WINDOW_S * 1000.0

    def price(label: str, servers: int, entries: int,
              window_ms: float) -> None:
        degraded = _priced_gbps(normal, fallback, 1.0 / servers)
        effective = _priced_gbps(normal, degraded, window_ms / incident_ms)
        rows.append([
            label,
            entries,
            round(window_ms, 3),
            f"1/{servers}",
            round(normal, 2),
            round(degraded, 2),
            round(effective, 2),
        ])

    # Measured migration: a seeded pooled run with one member crash.
    # Many short connections make the punt path (flow setup) do real
    # work, so the crashed member owns real state to migrate.
    bundle = load(name)
    plan, program = compile_middlebox(bundle.lowered)
    policy = DegradationPolicy()
    punt_heavy = IperfWorkload(
        packet_size=packet_size, connections=48, packets_per_connection=4
    )
    measured_packets = 200

    def pooled_run(fault_plan=None):
        injector = None
        if fault_plan is not None:
            injector = FaultInjector(fault_plan, seed=0)
        deployment = PooledDeployment(
            plan, program, servers=3, config=bundle.config, seed=0,
            policy=policy, injector=injector,
        )
        deployment.install()
        for packet, ingress_port in islice(
            middlebox_stream(name, punt_heavy), measured_packets
        ):
            deployment.process_packet(packet, ingress_port)
        deployment.recover()
        return deployment

    # Dry pass: find the member owning the most committed state — the
    # worst-case single-member crash for this workload.
    dry = pooled_run()
    victim = max(
        sorted(dry.pool.members),
        key=lambda m: dry.pool.count_owned(
            frozenset(dry.pool.selector.slots_owned(m))
        ),
    )
    crashed = pooled_run(FaultPlan((
        PoolMemberCrash(
            member=victim,
            at_packet=int(measured_packets * 0.6),
            migration_window=10,
        ),
    )))
    measured = crashed.telemetry.metrics
    entries = measured.counter_value("pool.migrated_entries")
    measured_ms = measured.histogram("pool.migration_us").sum / 1000.0
    price(
        f"measured crash servers=3 entries={entries}",
        3, entries, measured_ms,
    )
    # Reference sweep: pool size × migrated-state size.
    for servers in (2, 4, 8):
        for ref_entries in (256, 1024):
            window_ms = migration_us(ref_entries) / 1000.0
            price(
                f"servers={servers} entries={ref_entries} (reference)",
                servers, ref_entries, window_ms,
            )
    return header, rows


#: the tenants the sweep admits, in order, and each one's packet count
#: (all four fit the default shared budget together)
TENANCY_SWEEP_NAMES = ("minilb", "mazunat", "lb", "proxy")
TENANCY_SWEEP_PACKETS = 60


def tenancy_sweep() -> Tuple[List[str], List[List]]:
    """Shared-channel queueing cost as tenant count grows (no paper
    analogue — Gallium deploys one middlebox per switch).

    For N = 1..4, the first N of :data:`TENANCY_SWEEP_NAMES` are admitted
    onto one switch and driven with identical per-tenant workloads,
    round-robin interleaved.  The only shared resource with dynamic
    contention is the control plane's FIFO RPC channel, so the sweep
    reports where cross-tenant queueing starts to dominate a write-back
    batch's latency: *Queue share* is mean queue wait over mean total visibility
    latency (queue wait included).  At N=1 the share is exactly zero —
    a serial submitter never queues behind itself — and it grows with N
    while verdicts, egress bytes, and final state stay byte-identical to
    solo runs (the isolation oracle's guarantee).
    """
    from repro.tenancy import build_tenant_specs
    from repro.tenancy.deployment import MultiTenantDeployment

    header = [
        "Tenants", "Punts", "RPCs",
        "Mean queue wait (µs)", "Mean visibility (µs)", "Queue share",
    ]
    rows = []
    for count in range(1, len(TENANCY_SWEEP_NAMES) + 1):
        subset = list(TENANCY_SWEEP_NAMES[:count])
        deployment = MultiTenantDeployment(build_tenant_specs(subset))
        deployment.install()
        streams = {
            tenant.name: middlebox_stream(tenant.name, IperfWorkload())
            for tenant in deployment.tenants
        }
        journeys = deployment.run_workload(streams, TENANCY_SWEEP_PACKETS)
        punts = sum(
            1 for js in journeys.values() for j in js if j.punted
        )
        rpc_count = 0
        wait_sum = 0.0
        visibility_sum = 0.0
        visibility_count = 0
        for snapshot in deployment.metrics_snapshots().values():
            histograms = snapshot["histograms"]
            wait = histograms["control_plane.rpc_queue_wait_us"]
            visibility = histograms["control_plane.batch_visibility_us"]
            rpc_count += wait["count"]
            wait_sum += wait["sum"]
            visibility_sum += visibility["sum"]
            visibility_count += visibility["count"]
        mean_wait = wait_sum / rpc_count if rpc_count else 0.0
        mean_visibility = (
            visibility_sum / visibility_count if visibility_count else 0.0
        )
        share = mean_wait / mean_visibility if mean_visibility else 0.0
        rows.append([
            f"{count} ({'+'.join(subset)})",
            punts,
            rpc_count,
            round(mean_wait, 1),
            round(mean_visibility, 1),
            round(share, 3),
        ])
    return header, rows
