"""The packet-path workloads: ``elephants``, ``mice`` and ``churn``.

One *lane* is one deployment flavour of one middlebox fed the workload's
stream in fixed-size chunks.  Lanes take turns, one chunk each, until the
time budget is spent, so every lane sees the same share of whatever noise
the host has.  A lane that reaches the end of its stream starts over on a
freshly built deployment (a stream replayed into a warm deployment would
find every flow already installed and stop punting).

Only the per-packet loop is timed.  Outside the timer a lane copies its
next chunk (deployments rewrite packets in place), collects garbage, and
afterwards checks every verdict and egress port of the chunk against the
hand-written reference middlebox and lets :class:`hostspeed.HostSpeed`
sample the host.  A lane's rate is packets fed over seconds timed, in
calibrated seconds (see ``hostspeed.py`` for why not a median of chunks).
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import spans
import streams
from hostspeed import HostSpeed
from repro.click.packet import Packet
from repro.ir.compile import compile_function
from repro.ir.externs import ExternHost
from repro.ir.interp import Interpreter, PacketView, StateStore
from repro.middleboxes import MIDDLEBOX_NAMES, load
from repro.middleboxes.registry import LB_BACKENDS
from repro.net.addresses import ip
from repro.net.packet import RawPacket
from repro.runtime.baseline import FastClickRuntime
from repro.runtime.cache import CachedGalliumMiddlebox
from repro.runtime.deployment import GalliumMiddlebox, compile_middlebox
from repro.runtime.pool import PooledDeployment
from repro.sim.clock import SimClock
from repro.telemetry import (
    DEFAULT_WINDOW_US,
    INSTRUCTION_BOUNDS,
    Histogram,
    Telemetry,
)

#: packets per middlebox stream, per timed chunk, and per three-way check
SIZES = {
    "elephants": {"packets": 24_000, "chunk": 2_000, "check": 5_000},
    "mice": {"packets": 20_000, "chunk": 2_000, "check": 5_000},
    "churn": {"packets": 10_000, "chunk": 1_000, "check": 5_000},
}
SMOKE_DIVISOR = 10

#: the middleboxes that admit cache mode / that keep per-flow state
CACHEABLE = ("minilb", "lb")
STATEFUL = ("minilb", "mazunat", "lb", "trojan")
CACHE_ENTRIES = 128
POOL_SERVERS = 3
DEPLOY_SEED = 0
#: default wiring of every deployment: ingress side -> egress side
PORT_PAIRS = {1: 2, 2: 1}

#: deployment flavours whose lanes make up ``ops_per_s``
OPS_VARIANTS = {
    "elephants": ("gallium",),
    "mice": ("gallium",),
    "churn": ("gallium", "cached", "pooled"),
}
#: flavours timed (untraced) in the traced run, for the named pps rows
ROW_VARIANTS = {
    "elephants": ("gallium", "baseline", "observed"),
    "mice": ("gallium", "baseline", "observed"),
    "churn": ("gallium", "baseline", "cached", "pooled"),
}
VARIANT_MIDDLEBOXES = {
    "gallium": MIDDLEBOX_NAMES,
    "baseline": MIDDLEBOX_NAMES,
    "observed": MIDDLEBOX_NAMES,
    "cached": CACHEABLE,
    "pooled": STATEFUL,
}

#: share of the traced run's time budget per phase
TRACED_SPLIT = {"untraced": 0.50, "traced": 0.35, "micro": 0.15}

Outcome = Tuple[str, int]


class Context:
    """Everything a packet-path run sets up before timing starts."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        sizes = dict(SIZES[workload])
        if smoke:
            sizes = {key: value // SMOKE_DIVISOR
                     for key, value in sizes.items()}
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.bundles = {name: load(name) for name in MIDDLEBOX_NAMES}
        self.compiled = {
            name: compile_middlebox(bundle.lowered)
            for name, bundle in self.bundles.items()
        }
        slots = streams.schedule(workload, seed, sizes["packets"])
        rendered: Dict[str, streams.Stream] = {}
        # The streams are acyclic and live for the whole run; letting
        # the collector walk them while they grow only adds noise.
        gc.disable()
        try:
            for name in MIDDLEBOX_NAMES:
                convention = streams.convention(name)
                if convention not in rendered:
                    rendered[convention] = streams.materialize(
                        convention, slots
                    )
        finally:
            gc.enable()
        self.streams = {
            name: rendered[streams.convention(name)]
            for name in MIDDLEBOX_NAMES
        }
        # One deployment of each flavour the workload times, installed,
        # so set-up covers what a first packet would wait for.
        for variant in OPS_VARIANTS[workload]:
            for name in VARIANT_MIDDLEBOXES[variant]:
                self.build(variant, name)
        #: (verdict, egress port) per packet from the reference; filled
        #: by :func:`check`
        self.expected: Dict[str, List[Outcome]] = {}

    # -- deployments ---------------------------------------------------------

    def build(self, variant: str, name: str):
        """A fresh, installed deployment of ``name``."""
        bundle = self.bundles[name]
        if variant in ("baseline", "interpreted"):
            runtime = FastClickRuntime(
                bundle.lowered, config=bundle.config,
                fast_path=variant == "baseline",
            )
            runtime.install()
            if name == "minilb":
                runtime.state.vectors["backends"] = _minilb_backends()
            return runtime
        plan, program = self.compiled[name]
        common = dict(config=bundle.config, seed=DEPLOY_SEED, fast_path=True)
        if variant == "gallium":
            deployment = GalliumMiddlebox(plan, program, **common)
        elif variant == "observed":
            deployment = GalliumMiddlebox(
                plan, program,
                telemetry=Telemetry(
                    tracing=True, sample_every=16,
                    series_window_us=DEFAULT_WINDOW_US, int_sample_every=8,
                ),
                **common,
            )
        elif variant == "cached":
            deployment = CachedGalliumMiddlebox(
                plan, program, cache_entries=CACHE_ENTRIES, **common
            )
        elif variant == "pooled":
            deployment = PooledDeployment(
                plan, program, servers=POOL_SERVERS, **common
            )
        else:
            raise KeyError(f"unknown deployment flavour {variant!r}")
        deployment.install()
        if name == "minilb":
            # The registry config leaves minilb's backend vector empty,
            # which makes ``hash % backends.size()`` degenerate.
            deployment.state.vectors["backends"] = _minilb_backends()
            deployment.sync_all_state()
        return deployment


def _minilb_backends() -> List[int]:
    return [int(ip(address)) for address in LB_BACKENDS]


def _outcomes(variant: str, results: list) -> List[Outcome]:
    """(verdict, egress port) per result; port 0 when not sent."""
    if variant in ("baseline", "interpreted"):
        return [
            (r.verdict, (r.egress_port or PORT_PAIRS[1])
             if r.verdict == "send" else 0)
            for r in results
        ]
    return [
        (j.verdict, j.emitted[0][0] if j.emitted else 0) for j in results
    ]


# -- correctness ----------------------------------------------------------------


def check(ctx: Context) -> dict:
    """The untimed correctness pass.

    Over the first ``check`` packets of every stream the compiled gallium
    deployment, the *interpreted* unpartitioned runtime and the
    hand-written reference must agree on verdict, egress port and packed
    bytes; on ``churn`` the cached and pooled deployments must equal the
    base one.  The reference also runs the rest of the stream, so every
    timed chunk has verdicts and ports to be held against.
    """
    window = ctx.sizes["check"]
    attempted = failed = 0
    out_sha = hashlib.sha256()
    in_sha = hashlib.sha256()
    mismatches: List[str] = []
    for name in MIDDLEBOX_NAMES:
        stream = ctx.streams[name]
        head = stream[:window]
        in_sha.update(streams.digest(head).encode())
        reference = ctx.bundles[name].make_reference()
        expected: List[Outcome] = []
        ref_bytes: List[bytes] = []
        for index, (packet, port) in enumerate(stream):
            handle = Packet(packet.copy())
            handle.raw.ingress_port = port
            reference.push(handle)
            sent = handle.action.value == "send"
            expected.append(
                ("send", handle.egress_port or PORT_PAIRS[port]) if sent
                else ("drop", 0)
            )
            if index < window:
                ref_bytes.append(handle.raw.pack() if sent else b"")
        ctx.expected[name] = expected

        observed = {}
        variants = ["gallium", "interpreted"]
        if ctx.workload == "churn":
            variants += [v for v in ("cached", "pooled")
                         if name in VARIANT_MIDDLEBOXES[v]]
        for variant in variants:
            target = ctx.build(variant, name)
            fresh = [(packet.copy(), port) for packet, port in head]
            results = [target.process_packet(p, port) for p, port in fresh]
            outcomes = _outcomes(variant, results)
            observed[variant] = [
                (verdict, port, fresh[i][0].pack() if verdict == "send"
                 else b"")
                for i, (verdict, port) in enumerate(outcomes)
            ]
        want = [(v, p, b) for (v, p), b in zip(expected, ref_bytes)]
        for variant, got in observed.items():
            attempted += len(got)
            wrong = sum(1 for g, w in zip(got, want) if g != w)
            if wrong:
                failed += wrong
                first = next(i for i, (g, w) in enumerate(zip(got, want))
                             if g != w)
                mismatches.append(
                    f"{name}/{variant}: {wrong} of {len(got)} differ from"
                    f" the reference, first at packet {first}"
                )
        for verdict, port, frame in observed["gallium"]:
            out_sha.update(f"{verdict}:{port}:".encode())
            out_sha.update(frame)
    return {
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "stream_digest": in_sha.hexdigest(),
        "output_digest": out_sha.hexdigest(),
    }


# -- lanes ------------------------------------------------------------------------


class Lane:
    """One deployment flavour of one middlebox, fed chunk by chunk."""

    def __init__(self, ctx: Context, variant: str, name: str,
                 traced: bool = False):
        self.ctx = ctx
        self.variant = variant
        self.name = name
        self.stream = ctx.streams[name]
        self.expected = ctx.expected[name]
        self.chunk = ctx.sizes["chunk"]
        self.recorder = spans.SpanRecorder(ROOT_SPAN) if traced else None
        self.cursor = 0
        self.target = None
        self.chunk_pps: List[float] = []
        self.packets = 0
        self.seconds = 0.0
        self.failed = 0
        self.passes = 0
        #: state syncs of the first pass and the switch tables they touched
        self.syncs = 0
        self.sync_tables = 0
        #: simulated-side numbers of the first complete pass
        self.first_pass: Optional[dict] = None

    @property
    def label(self) -> str:
        return f"{self.variant}/{self.name}"

    def step(self, host: HostSpeed) -> None:
        """Feed the next chunk; time only the per-packet loop."""
        if self.cursor == 0:
            self.target = self.ctx.build(self.variant, self.name)
            if self.recorder is not None:
                instrument(self.recorder, self.target)
        end = min(self.cursor + self.chunk, len(self.stream))
        fresh = [(packet.copy(), port)
                 for packet, port in self.stream[self.cursor:end]]
        process = self.target.process_packet
        gc.collect()
        started = time.perf_counter()
        results = [process(packet, port) for packet, port in fresh]
        elapsed = time.perf_counter() - started
        count = end - self.cursor
        self.chunk_pps.append(count / elapsed)
        self.packets += count
        self.seconds += elapsed
        outcomes = _outcomes(self.variant, results)
        if outcomes != self.expected[self.cursor:end]:
            self.failed += sum(
                1 for got, want in zip(outcomes,
                                       self.expected[self.cursor:end])
                if got != want
            )
        if self.variant != "baseline" and self.passes == 0:
            for journey in results:
                if journey.sync_tables:
                    self.syncs += 1
                    self.sync_tables += journey.sync_tables
        if self.recorder is not None:
            self.recorder.drain()
        host.cover(elapsed)
        self.cursor = end
        if end == len(self.stream):
            self.passes += 1
            if self.first_pass is None and self.variant != "baseline":
                self.first_pass = simulated_side(self.target, len(self.stream))
            self.cursor = 0
            self.target = None

    @property
    def pps(self) -> float:
        """Packets fed per second timed (uncalibrated)."""
        return self.packets / self.seconds if self.seconds else 0.0


def run_lanes(lanes: List[Lane], budget_s: float,
              complete: Callable[[Lane], bool] = lambda lane: True
              ) -> HostSpeed:
    """Round-robin the lanes one chunk at a time until ``budget_s`` of
    wall time has passed *and* every lane that ``complete`` selects has
    finished its stream at least once.  Returns the host-speed samples
    taken alongside."""
    host = HostSpeed()
    started = time.perf_counter()
    while True:
        for lane in lanes:
            lane.step(host)
            if time.perf_counter() - started >= budget_s and all(
                    other.passes for other in lanes if complete(other)):
                return host


def simulated_side(deployment, packets: int) -> dict:
    """Simulated-time numbers of a deployment that has seen ``packets``
    packets: exact for a seed, whatever the host."""
    telemetry = deployment.telemetry
    snapshot = telemetry.metrics.to_dict()
    histograms = snapshot["histograms"]
    counters = snapshot["counters"]

    def hist_sum(name: str) -> float:
        return histograms.get(name, {}).get("sum", 0.0)

    def hist_mean(name: str) -> float:
        entry = histograms.get(name)
        return entry["sum"] / entry["count"] if entry and entry["count"] else 0.0

    clock_end = round(telemetry.clock.now_us, 6)
    digest = hashlib.sha256(
        json.dumps([snapshot, clock_end], sort_keys=True).encode()
    ).hexdigest()
    side = {
        "packets": packets,
        "punt_share": counters.get("switch.punted_packets", 0) / packets,
        "drop_share": counters.get("switch.dropped_packets", 0) / packets,
        "server_instr_per_pkt":
            hist_sum("server.instructions_per_punt") / packets,
        "sim_latency_mean_us": hist_mean("latency.end_to_end_us"),
        "pre_instr_per_pkt": hist_sum("switch.pre_instructions") / packets,
        "post_instr_per_pkt": hist_sum("switch.post_instructions") / packets,
        "sync_wait_mean_us": hist_mean("punt.sync_wait_us"),
        "batches_per_pkt":
            counters.get("control_plane.batches_applied", 0) / packets,
        "clock_end_us": clock_end,
        "sim_digest": digest,
    }
    if isinstance(deployment, CachedGalliumMiddlebox):
        stats = deployment.stats
        side.update(
            cache_hit_rate=stats.hit_rate,
            cache_evictions_per_pkt=stats.evictions / packets,
            cache_refills_per_pkt=stats.refills / packets,
        )
    if isinstance(deployment, PooledDeployment):
        handled = [member.runtime.packets_handled
                   for member in deployment.pool.members.values()]
        side["pool_member_share_max"] = (
            max(handled) / sum(handled) if sum(handled) else 0.0
        )
    return side


# -- spans --------------------------------------------------------------------------

ROOT_SPAN = "runtime.deployment.process_packet"


def instrument(recorder: spans.SpanRecorder, deployment) -> None:
    """Span the layer boundaries of one deployment the benchmark built:
    instance attributes only, nothing under ``src/`` is touched."""
    recorder.wrap_attribute(deployment, "process_packet", ROOT_SPAN)
    recorder.wrap_attribute(deployment.switch, "receive",
                            "switchsim.receive")
    servers = [deployment.server]
    if isinstance(deployment, PooledDeployment):
        servers = [member.runtime
                   for member in deployment.pool.members.values()]
    for server in servers:
        recorder.wrap_attribute(server, "handle", "runtime.server.handle")
    recorder.wrap_attribute(deployment.switch.control_plane, "apply_batch",
                            "switchsim.control_plane.apply_batch")
    recorder.wrap_attribute(deployment.telemetry.clock, "advance",
                            "sim.clock.advance")
    metrics = deployment.telemetry.metrics
    for name in metrics.to_dict()["histograms"]:
        _, histogram = metrics.lookup(name)
        recorder.wrap_slotted_method(histogram, "observe",
                                     "telemetry.histogram.observe")


# -- tight loops ----------------------------------------------------------------------


def _engine_loop(ctx: Context, name: str, compiled: bool, packets: int):
    """(packets, loop) running the bare lowered ``process`` function per
    packet, no deployment around it (BENCH_6's ``engine`` row)."""
    bundle = ctx.bundles[name]
    lowered = bundle.lowered
    state = StateStore(lowered.state)
    externs = ExternHost(config=bundle.config)
    if lowered.configure is not None:
        Interpreter(lowered.configure, state, externs).run()
    if name == "minilb":
        state.vectors["backends"] = _minilb_backends()
    state.drain_journal()
    fresh = [(p.copy(), port) for p, port in ctx.streams[name][:packets]]
    if compiled:
        function = compile_function(lowered.process)

        def run() -> None:
            for packet, port in fresh:
                packet.ingress_port = port
                function.run(state, externs, packet=PacketView(packet))
                state.journal.clear()
    else:
        process = lowered.process

        def run() -> None:
            for packet, port in fresh:
                packet.ingress_port = port
                Interpreter(process, state, externs).run(PacketView(packet))
                state.journal.clear()

    return len(fresh), run


def microbenchmarks(ctx: Context, budget_s: float) -> dict:
    """Single-layer costs measured in tight loops, in calibrated time.
    Sizes scale with the budget; each figure is the median of three."""
    host = HostSpeed()
    scale = max(0.1, budget_s / 1.5)
    packets = max(200, int(1500 * scale))
    calls = max(20_000, int(200_000 * scale))
    rounds = max(2_000, calls // 20)
    sample = ctx.streams["mazunat"][:packets]

    def per_item(count: int, loop: Callable[[], None],
                 repeats: int = 3) -> float:
        """Median seconds per item of ``loop``, which handles ``count``."""
        timings = []
        for _ in range(repeats):
            gc.collect()
            started = time.perf_counter()
            loop()
            elapsed = time.perf_counter() - started
            host.cover(elapsed)
            timings.append(elapsed / count)
        return statistics.median(timings)

    def copy_all() -> None:
        for packet, _ in sample:
            packet.copy()

    def parse_all() -> None:
        for packet, _ in sample:
            RawPacket.parse(packet.pack())

    def view_all() -> None:
        for packet, _ in sample:
            PacketView(packet)

    histogram = Histogram("bench.observe", INSTRUCTION_BOUNDS)
    values = [float((i * 2_654_435_761) % 600) for i in range(1024)]

    def observe_all() -> None:
        observe = histogram.observe
        for index in range(calls):
            observe(values[index & 1023])

    clock = SimClock()

    def advance_all() -> None:
        advance = clock.advance
        for _ in range(calls):
            advance(0.05)

    def shim_roundtrips(name: str) -> Callable[[], None]:
        layout = ctx.compiled[name][1].shim_to_server
        fields = {field.name: 1 for field in layout.fields}

        def loop() -> None:
            for _ in range(rounds):
                layout.decode(layout.encode(fields))

        return loop

    seconds = {
        "net.copy_us_per_pkt": per_item(len(sample), copy_all),
        "net.parse_us_per_pkt": per_item(len(sample), parse_all),
        "net.packetview_us_per_pkt": per_item(len(sample), view_all),
        "codegen.shim_roundtrip_us": statistics.fmean(
            per_item(rounds, shim_roundtrips(name))
            for name in MIDDLEBOX_NAMES),
        "telemetry.histogram_observe_ns": per_item(calls, observe_all),
        "sim.clock_advance_ns": per_item(calls, advance_all),
    }
    compiled = {
        name: per_item(*_engine_loop(ctx, name, True, packets))
        for name in MIDDLEBOX_NAMES
    }
    interpreted = {
        name: per_item(*_engine_loop(ctx, name, False, packets // 4),
                       repeats=1)
        for name in MIDDLEBOX_NAMES
    }
    micro = {
        name: host.seconds(value) * (1e9 if name.endswith("_ns") else 1e6)
        for name, value in seconds.items()
    }
    micro["ir.compile.engine_pps"] = host.rate(
        1.0 / statistics.geometric_mean(list(compiled.values())))
    micro["ir.interp.engine_pps"] = host.rate(
        1.0 / statistics.geometric_mean(list(interpreted.values())))
    micro["engine_pps_by_middlebox"] = {
        "compiled": {n: host.rate(1.0 / v) for n, v in compiled.items()},
        "interpreted": {n: host.rate(1.0 / v)
                        for n, v in interpreted.items()},
    }
    micro["host_slowdown"] = host.slowdown
    return micro


# -- the two runs -------------------------------------------------------------------


def _lanes(ctx: Context, variants: Sequence[str], traced: bool = False
           ) -> List[Lane]:
    return [Lane(ctx, variant, name, traced=traced)
            for variant in variants
            for name in VARIANT_MIDDLEBOXES[variant]]


def _rate_of(lanes: Sequence[Lane], host: HostSpeed) -> float:
    """Geometric mean over ``lanes`` of packets per calibrated second."""
    return host.rate(statistics.geometric_mean([lane.pps for lane in lanes]))


def measure(ctx: Context, seconds: float) -> dict:
    """The end-to-end run: the lanes behind ``ops_per_s``, tracing off."""
    lanes = _lanes(ctx, OPS_VARIANTS[ctx.workload])
    host = run_lanes(lanes, seconds)
    return summarize(ctx, lanes, host)


def measure_traced(ctx: Context, seconds: float) -> dict:
    """The per-layer run: every named flavour untraced, then the
    ``ops_per_s`` lanes again with spans on, then the tight loops."""
    ops_variants = OPS_VARIANTS[ctx.workload]
    untraced = _lanes(ctx, ROW_VARIANTS[ctx.workload])
    host = run_lanes(untraced, seconds * TRACED_SPLIT["untraced"],
                     complete=lambda lane: lane.variant in ops_variants)
    traced = _lanes(ctx, ops_variants, traced=True)
    traced_host = run_lanes(traced, seconds * TRACED_SPLIT["traced"],
                            complete=lambda lane: False)
    micro = microbenchmarks(ctx, seconds * TRACED_SPLIT["micro"])
    summary = summarize(ctx, untraced, host)
    summary["micro"] = micro
    summary.update(layer_metrics(ctx, summary, traced, traced_host, micro))
    summary["recorders"] = {lane.label: lane.recorder for lane in traced}
    return summary


def summarize(ctx: Context, lanes: List[Lane], host: HostSpeed) -> dict:
    """Named rows, simulated-side rows and per-lane detail."""
    by_variant: Dict[str, List[Lane]] = {}
    for lane in lanes:
        by_variant.setdefault(lane.variant, []).append(lane)
    ops_lanes = [lane for lane in lanes
                 if lane.variant in OPS_VARIANTS[ctx.workload]]
    rows = {f"{variant}_pps": _rate_of(group, host)
            for variant, group in by_variant.items()}
    gallium = [lane.first_pass for lane in by_variant["gallium"]
               if lane.first_pass is not None]

    def mean_of(key: str, sides: List[dict] = gallium) -> float:
        values = [side[key] for side in sides if key in side]
        return statistics.fmean(values) if values else 0.0

    rows["server_instr_per_pkt"] = mean_of("server_instr_per_pkt")
    rows["sim_latency_mean_us"] = mean_of("sim_latency_mean_us")
    layers = {
        "runtime.punt_share": mean_of("punt_share"),
        "runtime.drop_share": mean_of("drop_share"),
        "sim.pre_instr_per_pkt": mean_of("pre_instr_per_pkt"),
        "sim.post_instr_per_pkt": mean_of("post_instr_per_pkt"),
        "sim.sync_wait_mean_us": mean_of("sync_wait_mean_us"),
        "sim.clock_end_us": sum(side["clock_end_us"] for side in gallium),
    }
    cached = [lane.first_pass for lane in by_variant.get("cached", [])
              if lane.first_pass is not None]
    pooled = [lane.first_pass for lane in by_variant.get("pooled", [])
              if lane.first_pass is not None]
    if cached:
        layers["runtime.cache.hit_rate"] = mean_of("cache_hit_rate", cached)
        layers["runtime.cache.evictions_per_pkt"] = mean_of(
            "cache_evictions_per_pkt", cached)
        layers["runtime.cache.refills_per_pkt"] = mean_of(
            "cache_refills_per_pkt", cached)
    if pooled:
        layers["runtime.pool.member_share_max"] = max(
            side["pool_member_share_max"] for side in pooled)
    syncs = sum(lane.syncs for lane in ops_lanes)
    layers["switchsim.control_plane.tables_touched_per_batch"] = (
        sum(lane.sync_tables for lane in ops_lanes) / syncs if syncs else 0.0
    )
    chunk_us = sorted(1e6 / pps for lane in by_variant["gallium"]
                      for pps in lane.chunk_pps)
    layers["gallium.chunk_us_per_pkt_p95"] = host.seconds(
        statistics.quantiles(chunk_us, n=20)[-1] if len(chunk_us) > 1
        else chunk_us[0]
    )
    sim_sha = hashlib.sha256()
    for lane in ops_lanes:
        if lane.first_pass is not None:
            sim_sha.update(lane.first_pass["sim_digest"].encode())
    return {
        "ops_per_s": _rate_of(ops_lanes, host),
        "host_slowdown": host.slowdown,
        "attempted": sum(lane.packets for lane in lanes),
        "failed": sum(lane.failed for lane in lanes),
        "timed_s": sum(lane.seconds for lane in lanes),
        "rows": rows,
        "layers": layers,
        "sim_digest": sim_sha.hexdigest(),
        "detail": {
            lane.label: {
                "pps": host.rate(lane.pps),
                "chunks": len(lane.chunk_pps),
                "packets": lane.packets,
                "passes": lane.passes,
                "failed": lane.failed,
                "first_pass": lane.first_pass,
            }
            for lane in lanes
        },
    }


def layer_metrics(ctx: Context, summary: dict, traced: List[Lane],
                  host: HostSpeed, micro: dict) -> dict:
    """Fold the traced lanes' spans into per-layer figures."""
    cost = spans.span_cost_ns()
    totals: Dict[str, Dict[str, int]] = {}
    closure = 0.0
    for lane in traced:
        lane_summary = lane.recorder.summary()
        closure = max(closure, lane_summary["closure_error"])
        for name, layer in lane_summary["layers"].items():
            mine = totals.setdefault(name, dict.fromkeys(layer, 0))
            for key, value in layer.items():
                mine[key] += value
    packets = sum(lane.packets for lane in traced)

    def calls(name: str) -> int:
        return totals.get(name, {}).get("calls", 0)

    def self_us(name: str, per: int) -> float:
        """Calibrated self time per ``per``, with the recorder's own
        cost taken out: each span adds ``inner`` to itself and ``outer``
        to its parent."""
        layer = totals.get(name)
        if not layer or not per:
            return 0.0
        adjusted = (layer["self_ns"] - layer["calls"] * cost["inner_ns"]
                    - layer["children"] * cost["outer_ns"])
        return host.seconds(max(adjusted, 0.0)) / 1000.0 / per

    def per_packet(name: str) -> float:
        return calls(name) / packets if packets else 0.0

    receive = "switchsim.receive"
    handle = "runtime.server.handle"
    batch = "switchsim.control_plane.apply_batch"
    rows = summary["rows"]
    layers = {
        "runtime.deployment.self_us_per_pkt": self_us(ROOT_SPAN, packets),
        "switchsim.receive_us_per_call": self_us(receive, calls(receive)),
        "switchsim.receive_calls_per_pkt": per_packet(receive),
        "runtime.server.handle_us_per_punt": self_us(handle, calls(handle)),
        "switchsim.control_plane.apply_batch_us_per_batch":
            self_us(batch, calls(batch)),
        "switchsim.control_plane.batches_per_pkt": per_packet(batch),
        "sim.clock.advance_calls_per_pkt": per_packet("sim.clock.advance"),
        "telemetry.histogram.observe_calls_per_pkt":
            per_packet("telemetry.histogram.observe"),
        "gallium_over_engine":
            rows["gallium_pps"] / micro["ir.compile.engine_pps"],
        "trace.overhead_share":
            1.0 - _rate_of(traced, host) / summary["ops_per_s"],
    }
    if "observed_pps" in rows:
        layers["telemetry.overhead_share"] = (
            1.0 - rows["observed_pps"] / rows["gallium_pps"])
    for name in ("ir.compile.engine_pps", "ir.interp.engine_pps",
                 "net.copy_us_per_pkt", "net.parse_us_per_pkt",
                 "net.packetview_us_per_pkt", "codegen.shim_roundtrip_us",
                 "telemetry.histogram_observe_ns", "sim.clock_advance_ns"):
        layers[name] = micro[name]
    return {
        "traced_layers": layers,
        "span_cost_ns": cost,
        "span_closure_error": closure,
        "span_totals": totals,
        "traced_packets": packets,
        "traced_host_slowdown": host.slowdown,
    }
