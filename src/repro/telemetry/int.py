"""In-band per-hop telemetry (INT) over the simulated pipeline.

Real INT (P4.org's In-band Network Telemetry) has each hop append a
small metadata stack to a sample of live packets — per-hop latency,
queue occupancy — which a sink strips and aggregates.  This module
mirrors that inside the simulation: the simulated switch stamps
INT-style records onto a deterministic sample of packets (every
``sample_every``-th packet of the arrival order, so the sample is a
pure function of the stream, never of wall clock), and the
:class:`IntCollector` sink aggregates the stamps into per-flow reports.

A stamp is a plain dict appended to ``packet.metadata[INT_KEY]`` —
genuinely in-band: it rides the packet's annotation area through the
punt path, and deep traces can inspect it.  The collector additionally
keeps its own per-packet buffer so aggregation is robust to the punt
path swapping packet objects (the cached runtime processes a pristine
clone).  Stamps observe per-hop fields:

* ``hop`` — ``"switch.pre"`` / ``"switch.post"`` pipeline traversals
* ``instructions`` / ``latency_us`` — per-stage occupancy and cost
* ``punted`` — whether this traversal ended in a punt
* ``time_us`` — simulated stamp time

and the sink folds in punt-queue depth and RPC-queue wait (delta of the
control plane's ``rpc_queue_wait_us`` histogram across the packet), so
a flow report answers *which hop* cost what.  Aggregates also feed the
metrics registry (``int.*``) where the time-series layer can window
them.

Zero overhead when disabled: a ``Telemetry`` built without
``int_sample_every`` has no collector, components hold ``None``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.net.addresses import Ipv4Address
from repro.sim.clock import SERVER_INSTR_US, SimClock
from repro.telemetry.metrics import MetricsRegistry

#: Packet-metadata key the stamps ride under (cf. the shim's key).
INT_KEY = "gallium_int"

#: Bucket bounds for per-hop pipeline latency (µs) — switch traversals
#: are in the tens-of-ns to single-µs range.
HOP_LATENCY_BOUNDS_US: Tuple[float, ...] = (
    0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0,
)
#: Bucket bounds for punt-queue depth samples.
QUEUE_DEPTH_BOUNDS: Tuple[float, ...] = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


class FlowAggregate:
    """Running aggregate of one flow's sampled INT stamps."""

    __slots__ = ("key", "packets", "sampled", "punts", "fallbacks", "drops",
                 "queued", "sync_wait_us", "rpc_wait_us", "max_queue_depth",
                 "hops")

    def __init__(self, key):
        self.key = key
        self.packets = 0
        self.sampled = 0
        self.punts = 0
        self.fallbacks = 0
        self.drops = 0
        self.queued = 0
        self.sync_wait_us = 0.0
        self.rpc_wait_us = 0.0
        self.max_queue_depth = 0
        #: hop -> [count, instructions, latency_us, max_latency_us]
        self.hops: Dict[str, List[float]] = {}

    def fold_stamp(self, stamp: dict) -> None:
        hop = self.hops.setdefault(stamp["hop"], [0, 0, 0.0, 0.0])
        hop[0] += 1
        hop[1] += stamp["instructions"]
        hop[2] += stamp["latency_us"]
        if stamp["latency_us"] > hop[3]:
            hop[3] = stamp["latency_us"]

    def label(self) -> str:
        if self.key is None:
            return "non-ip"
        saddr, daddr, sport, dport, proto = self.key
        return (f"{Ipv4Address(saddr)}:{sport}"
                f"->{Ipv4Address(daddr)}:{dport}/{proto}")

    def to_dict(self) -> dict:
        return {
            "flow": self.label(),
            "packets": self.packets,
            "sampled": self.sampled,
            "punts": self.punts,
            "fallbacks": self.fallbacks,
            "drops": self.drops,
            "queued": self.queued,
            "sync_wait_us": round(self.sync_wait_us, 6),
            "rpc_wait_us": round(self.rpc_wait_us, 6),
            "max_queue_depth": self.max_queue_depth,
            "hops": {
                hop: {
                    "packets": int(count),
                    "instructions": int(instructions),
                    "latency_us": round(latency, 6),
                    "max_latency_us": round(max_latency, 6),
                }
                for hop, (count, instructions, latency, max_latency)
                in sorted(self.hops.items())
            },
        }


class IntCollector:
    """INT source gate + sink: decides the sample, aggregates the stamps.

    The deployment calls :meth:`begin_packet` at ingress (fixing whether
    this packet is stamped and capturing its flow key *before* any
    header rewrite) and :meth:`collect` when the journey completes; the
    switch model calls :meth:`stamp` per pipeline traversal while
    :attr:`stamping` is true.
    """

    def __init__(self, clock: SimClock, metrics: MetricsRegistry,
                 sample_every: int = 1):
        if sample_every < 1:
            raise ValueError(
                f"int_sample_every must be >= 1, got {sample_every!r}"
            )
        self.clock = clock
        self.metrics = metrics
        self.sample_every = int(sample_every)
        self.stamping = False
        self._current: Optional[FlowAggregate] = None
        self._pending: List[dict] = []
        self._rpc_sum_base = 0.0
        self._flows: Dict[object, FlowAggregate] = {}
        self._order: List[object] = []
        self._c_stamped = metrics.counter("int.stamped_packets")
        self._h_hop_latency = metrics.histogram(
            "int.hop_latency_us", HOP_LATENCY_BOUNDS_US
        )
        self._h_queue_depth = metrics.histogram(
            "int.punt_queue_depth", QUEUE_DEPTH_BOUNDS
        )

    # -- source side ------------------------------------------------------

    def begin_packet(self, index: int, packet) -> None:
        """Fix the sampling decision for arrival ``index`` and capture the
        flow key from the pre-rewrite headers."""
        self.stamping = index % self.sample_every == 0
        self._pending = []
        if not self.stamping:
            self._current = None
            return
        key = packet.five_tuple() if hasattr(packet, "five_tuple") else None
        flow = self._flows.get(key)
        if flow is None:
            flow = self._flows[key] = FlowAggregate(key)
            self._order.append(key)
        self._current = flow
        self._c_stamped.inc()
        self._rpc_sum_base = self._rpc_wait_sum()

    def stamp(self, packet, hop: str, instructions: int,
              latency_us: float, punted: bool = False) -> None:
        """One hop's INT record (switch model hook; only called while
        :attr:`stamping`)."""
        record = {
            "hop": hop,
            "instructions": int(instructions),
            "latency_us": round(float(latency_us), 6),
            "punted": bool(punted),
            "time_us": round(self.clock.now_us, 3),
        }
        metadata = getattr(packet, "metadata", None)
        if metadata is not None:
            metadata.setdefault(INT_KEY, []).append(record)
        self._pending.append(record)
        self._h_hop_latency.observe(record["latency_us"])

    # -- sink side --------------------------------------------------------

    def collect(self, journey, queue_depth: int = 0) -> None:
        """Fold the completed journey's stamps into its flow aggregate.

        Stamps are attributed to the packet whose processing interval
        produced them; punts drained from the outage queue therefore
        attribute to the boundary packet that triggered the drain —
        deterministic, and documented rather than hidden.
        """
        flow = self._current
        stamps = self._pending
        self._pending = []
        self._current = None
        if flow is None:
            return
        flow.packets += 1
        flow.sampled += 1
        for stamp in stamps:
            flow.fold_stamp(stamp)
        # The punt path's server leg doesn't traverse the switch stamper;
        # synthesize its hop from the journey so reports cover every hop.
        server_instructions = getattr(journey, "server_instructions", 0)
        if server_instructions:
            record = {
                "hop": "server",
                "instructions": server_instructions,
                "latency_us": round(
                    server_instructions * SERVER_INSTR_US, 6
                ),
                "punted": False,
                "time_us": round(self.clock.now_us, 3),
            }
            flow.fold_stamp(record)
            self._h_hop_latency.observe(record["latency_us"])
        # getattr: the baseline's BaselineResult lacks journey fields.
        if getattr(journey, "punted", False):
            flow.punts += 1
        if getattr(journey, "fallback", False):
            flow.fallbacks += 1
        if getattr(journey, "queued", False):
            flow.queued += 1
        if journey.verdict == "drop":
            flow.drops += 1
        flow.sync_wait_us += getattr(journey, "sync_wait_us", 0.0)
        rpc_sum = self._rpc_wait_sum()
        flow.rpc_wait_us += rpc_sum - self._rpc_sum_base
        self._rpc_sum_base = rpc_sum
        if queue_depth > flow.max_queue_depth:
            flow.max_queue_depth = queue_depth
        self._h_queue_depth.observe(float(queue_depth))

    def _rpc_wait_sum(self) -> float:
        found = self.metrics.lookup("control_plane.rpc_queue_wait_us")
        if found is None or found[0] != "histogram":
            return 0.0
        return found[1].sum

    # -- reporting --------------------------------------------------------

    def flow_reports(self) -> List[dict]:
        """Per-flow aggregates in deterministic (first-seen) order."""
        return [self._flows[key].to_dict() for key in self._order]

    def to_dict(self) -> dict:
        return {
            "sample_every": self.sample_every,
            "stamped_packets": self._c_stamped.value,
            "flows": self.flow_reports(),
        }
