"""Every workload and metric of the benchmark, in one place.

``run.py`` reports from this list, ``compare.py`` gates on it, and the
smoke run checks that ``BENCHMARK.json`` and the README name exactly
what is listed here.

Three groups:

* :data:`END_TO_END` — defined on all five workloads, printed by a
  ``--trace 0`` run, gated by ``BENCHMARK.json``.
* :data:`ROWS` — the named end-to-end rows that only some workloads have
  (``gallium_pps`` means nothing to ``compile``).  ``BENCHMARK.json``
  wants every end-to-end metric on every workload, so these travel with
  the per-layer metrics there; ``compare.py`` still gates them with the
  bounds given here.
* :data:`LAYERS` — single-layer figures from the traced run.

``domain`` says which clock a figure is on: ``host`` time moves with the
code's speed (it is reported in calibrated seconds, see ``hostspeed.py``,
so that it moves less with the machine's), ``sim`` is the simulated
switch/server and must repeat exactly for a seed, ``count`` is a count of
the tool's own operations and repeats exactly too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

PACKET = ("elephants", "mice", "churn")
ALL = PACKET + ("compile", "campaign")

WORKLOADS: Dict[str, str] = {
    "elephants":
        "10 long-lived 1500-byte TCP flows per middlebox (paper 6.3 iperf);"
        " punt share <= 0.1 %, so host time is the switch fast path",
    "mice":
        "CONGA enterprise flow sizes, every flow a fresh 5-tuple, 16 at"
        " once; 12-25 % of packets punt, so the server path dominates",
    "churn":
        "CONGA data-mining sizes, 512 flows at once through base, 128-entry"
        " cached and 3-server pooled deployments; evict-refill and HRW",
    "compile":
        "six bundled sources x3, 12 generated programs, six symbolic"
        " proofs; parse to verify, no packet path",
    "campaign":
        "24 fault-campaign scenarios of 25 packets through run_campaign;"
        " the harness wall time people wait on",
}

#: Bounds, as the share by which a figure may worsen.  Identical runs on
#: the shared two-core boxes this was written on spread 10-20 % between
#: quartiles raw and 3-8 % calibrated (README, "Host time is reported in
#: calibrated seconds"); a third of the bound has to stay above that, so
#: host-time figures get the driver's ceiling.
HOST_BOUND = 0.25
RSS_BOUND = 0.10
EXACT = 0.0


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    domain: str  # "host" | "sim" | "count"
    workloads: Tuple[str, ...]
    what: str
    #: share by which the figure may worsen; None for ungated layers
    bound: Optional[float] = None
    #: the end-to-end figure a fall (or rise) of this layer should move
    moves: str = ""


END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", "host", ALL,
           "import + load + compile + install() + stream generation:"
           " everything before the timed loops (median of 3 imports +"
           " median of 3 set-ups)",
           HOST_BOUND),
    Metric("ops_per_s", "1/s", "higher", "host", ALL,
           "operations per second of host time: packets (geomean over the"
           " workload's lanes of packets / timed seconds), compiles+proofs,"
           " or scenarios (pool size / sum of per-operation mean times)",
           HOST_BOUND),
    Metric("peak_rss_mb", "MB", "lower", "host", ALL,
           "ru_maxrss of the workload's process", RSS_BOUND),
]

ROWS: List[Metric] = [
    Metric("gallium_pps", "pkt/s", "higher", "host", PACKET,
           "GalliumMiddlebox(fast_path=True), default telemetry",
           HOST_BOUND),
    Metric("baseline_pps", "pkt/s", "higher", "host", PACKET,
           "FastClickRuntime(fast_path=True) on the same stream",
           HOST_BOUND),
    Metric("observed_pps", "pkt/s", "higher", "host", ("elephants", "mice"),
           "gallium with tracing sampled 1/16, windowed series and INT 1/8",
           HOST_BOUND),
    Metric("cached_pps", "pkt/s", "higher", "host", ("churn",),
           "CachedGalliumMiddlebox(cache_entries=128)", HOST_BOUND),
    Metric("pooled_pps", "pkt/s", "higher", "host", ("churn",),
           "PooledDeployment(servers=3)", HOST_BOUND),
    Metric("server_instr_per_pkt", "instr/pkt", "lower", "sim", PACKET,
           "mean server IR instructions per packet (the paper's headline)",
           EXACT),
    Metric("sim_latency_mean_us", "us", "lower", "sim", PACKET,
           "mean of the latency.end_to_end_us histogram", EXACT),
    Metric("compile_bundled_ms", "ms", "lower", "host", ("compile",),
           "geomean over the six of the mean compile_source(verify=True)",
           HOST_BOUND),
    Metric("compile_fuzz_s", "s", "lower", "host", ("compile",),
           "sum over the 12 generated programs of the mean compile",
           HOST_BOUND),
    Metric("prove_s", "s", "lower", "host", ("compile",),
           "sum over the six of the mean verify_symbolic", HOST_BOUND),
    Metric("campaign_scenarios_per_s", "1/s", "higher", "host",
           ("campaign",), "scenarios / sum of mean stats.elapsed_s",
           HOST_BOUND),
]

_FAST = "gallium_pps, most on elephants"
_PUNT = "gallium_pps and pooled_pps on mice and churn"
_CACHE = "cached_pps on churn"
_ENGINE = "baseline_pps and gallium_pps together"
_COMPILE = "compile_fuzz_s, campaign_scenarios_per_s"


def _layer(name, unit, better, domain, workloads, what, moves=""):
    return Metric(name, unit, better, domain, workloads, what, None, moves)


LAYERS: List[Metric] = [
    # -- packet path, from the spans ------------------------------------------
    _layer("runtime.deployment.self_us_per_pkt", "us/pkt", "lower", "host",
           PACKET, "process_packet minus its children: journey, latency"
           " model, bookkeeping", _FAST),
    _layer("switchsim.receive_us_per_call", "us/call", "lower", "host",
           PACKET, "SwitchModel.receive self time", _FAST),
    _layer("switchsim.receive_calls_per_pkt", "calls/pkt", "lower", "count",
           PACKET, "1 on the fast path, 2 for a punt"),
    _layer("runtime.server.handle_us_per_punt", "us/punt", "lower", "host",
           PACKET, "ServerRuntime.handle self time", _PUNT),
    _layer("switchsim.control_plane.apply_batch_us_per_batch", "us/batch",
           "lower", "host", PACKET, "ControlPlane.apply_batch self time",
           _PUNT),
    _layer("switchsim.control_plane.batches_per_pkt", "batches/pkt",
           "lower", "count", PACKET, "update batches per packet"),
    _layer("switchsim.control_plane.tables_touched_per_batch",
           "tables/batch", "lower", "sim", PACKET,
           "mean tables in one state sync"),
    _layer("sim.clock.advance_calls_per_pkt", "calls/pkt", "lower", "count",
           PACKET, "SimClock.advance calls per packet", _FAST),
    _layer("telemetry.histogram.observe_calls_per_pkt", "calls/pkt",
           "lower", "count", PACKET, "Histogram.observe calls per packet",
           _FAST),
    # -- packet path, simulated side -------------------------------------------
    _layer("runtime.punt_share", "share", "lower", "sim", PACKET,
           "packets that leave the fast path"),
    _layer("runtime.drop_share", "share", "lower", "sim", PACKET,
           "packets dropped"),
    _layer("runtime.cache.hit_rate", "share", "higher", "sim", ("churn",),
           "cached deployment: packets served from the switch", _CACHE),
    _layer("runtime.cache.evictions_per_pkt", "1/pkt", "lower", "sim",
           ("churn",), "cached deployment: FIFO evictions", _CACHE),
    _layer("runtime.cache.refills_per_pkt", "1/pkt", "lower", "sim",
           ("churn",), "cached deployment: refills from the read log",
           _CACHE),
    _layer("runtime.pool.member_share_max", "share", "lower", "sim",
           ("churn",), "largest share of punts one pool member served"),
    _layer("sim.pre_instr_per_pkt", "instr/pkt", "lower", "sim", PACKET,
           "switch pre-pipeline IR instructions per packet"),
    _layer("sim.post_instr_per_pkt", "instr/pkt", "lower", "sim", PACKET,
           "switch post-pipeline IR instructions per packet"),
    _layer("sim.sync_wait_mean_us", "us", "lower", "sim", PACKET,
           "mean output-commit wait of a punt"),
    _layer("sim.clock_end_us", "us", "lower", "sim", PACKET,
           "simulated clock after one pass, summed over middleboxes"),
    # -- packet path, tight loops ------------------------------------------------
    _layer("ir.compile.engine_pps", "pkt/s", "higher", "host", PACKET,
           "bare compiled process closure (BENCH_6's engine row)", _ENGINE),
    _layer("ir.interp.engine_pps", "pkt/s", "higher", "host", PACKET,
           "bare interpreted process function"),
    _layer("gallium_over_engine", "ratio", "higher", "host", PACKET,
           "gallium_pps / ir.compile.engine_pps: the gap ROADMAP wants"
           " closed", _FAST),
    _layer("net.copy_us_per_pkt", "us/pkt", "lower", "host", PACKET,
           "RawPacket.copy"),
    _layer("net.parse_us_per_pkt", "us/pkt", "lower", "host", PACKET,
           "RawPacket.parse(pack())"),
    _layer("net.packetview_us_per_pkt", "us/pkt", "lower", "host", PACKET,
           "PacketView construction", _ENGINE),
    _layer("codegen.shim_roundtrip_us", "us", "lower", "host", PACKET,
           "ShimLayout.encode + decode, mean over the six", _PUNT),
    _layer("telemetry.overhead_share", "share", "lower", "host",
           ("elephants", "mice"), "1 - observed_pps / gallium_pps",
           "observed_pps"),
    _layer("telemetry.histogram_observe_ns", "ns", "lower", "host", PACKET,
           "Histogram.observe in a tight loop", _FAST),
    _layer("sim.clock_advance_ns", "ns", "lower", "host", PACKET,
           "SimClock.advance in a tight loop", _FAST),
    _layer("gallium.chunk_us_per_pkt_p95", "us/pkt", "lower", "host",
           PACKET, "95th percentile over all gallium chunks"),
    _layer("trace.overhead_share", "share", "lower", "host", PACKET,
           "1 - traced / untraced rate over the same lanes"),
    # -- compile path ------------------------------------------------------------
    *[
        _layer(f"{phase}_ms.{group}", "ms", "lower", "host", ("compile",),
               f"{what}, summed over the {group} programs",
               _COMPILE if phase == "partition.partition" else "")
        for phase, what in (
            ("lang.parse", "parse_program"),
            ("ir.lower", "lower_program"),
            ("partition.partition", "partition_middlebox"),
            ("codegen.program", "shim synthesis + SwitchProgram.from_plan"),
            ("codegen.emit_p4", "emit_p4_program"),
            ("codegen.emit_cpp", "emit_cpp_program"),
            ("verify.static", "verify_compilation"),
        )
        for group in ("bundled", "fuzz")
    ],
    _layer("partition.label_removal_calls", "count", "lower", "count",
           ("compile",), "run_label_removal calls over all 18 programs",
           _COMPILE),
    _layer("verify.symbolic_worlds", "count", "lower", "count",
           ("compile",), "branch worlds explored over the six proofs",
           "prove_s"),
    _layer("verify.symbolic_worlds_per_s", "worlds/s", "higher", "host",
           ("compile",), "worlds / prove_s", "prove_s"),
    _layer("ir.instructions", "instr", "lower", "count", ("compile",),
           "IR instructions of process, summed over all 18 programs"),
    _layer("partition.offloaded_stmt_share", "share", "higher", "count",
           ("compile",), "mean share of instructions placed on the switch;"
           " must stay exact when only compile time is optimised"),
    _layer("codegen.p4_loc", "loc", "lower", "count", ("compile",),
           "emitted P4 lines over all 18 programs"),
    _layer("codegen.cpp_loc", "loc", "lower", "count", ("compile",),
           "emitted C++ lines over all 18 programs"),
    # -- harness ---------------------------------------------------------------------
    _layer("faults.compile_share", "share", "lower", "host", ("campaign",),
           "time inside compile_middlebox as called from run_fault_oracle",
           "campaign_scenarios_per_s"),
    _layer("faults.oracle_s_per_scenario_p50", "s", "lower", "host",
           ("campaign",), "median scenario"),
    _layer("faults.oracle_s_per_scenario_max", "s", "lower", "host",
           ("campaign",), "slowest scenario", "campaign_scenarios_per_s"),
    _layer("faults.violations", "count", "lower", "count", ("campaign",),
           "violations + crashes"),
    _layer("faults.degraded_ok", "count", "higher", "count", ("campaign",),
           "scenarios that degraded as declared"),
    _layer("faults.clean", "count", "higher", "count", ("campaign",),
           "scenarios the faults never touched"),
]

#: what a ``--trace 1`` run prints
PER_LAYER: List[Metric] = ROWS + LAYERS

BY_NAME: Dict[str, Metric] = {
    metric.name: metric for metric in END_TO_END + PER_LAYER
}


def applies(metric: Metric, workload: str) -> bool:
    return workload in metric.workloads


def benchmark_json(command: List[str], paths: List[str],
                   run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` this catalog implies."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
