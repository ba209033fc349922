"""Processor-sharing fluid simulation of the CONGA workloads (Figs. 8, 9).

100 worker threads each run one flow at a time (paper §6.3); active flows
share two resources:

* the 100 Gbps wire (fair share among active flows),
* the middlebox server's packet budget — for the baseline every packet of
  every flow; for Gallium only each flow's slow-path packets.

Each flow's rate is the minimum of its wire share and what the server
budget admits.  The simulator advances between flow arrival/completion
events, integrating transferred bytes; flow setup pays the slow-path
latency (plus state sync for middleboxes that install per-flow state).

This deliberately abstracts TCP dynamics (no slow start) — the paper's
comparison is middlebox-bound, not congestion-bound — and is documented as
such in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.costs import LINE_RATE_GBPS, MTU


@dataclass
class FlowRecord:
    """Result of one simulated flow."""

    size_bytes: int
    start_us: float
    finish_us: float = 0.0
    setup_us: float = 0.0

    @property
    def fct_us(self) -> float:
        return self.finish_us - self.start_us


@dataclass
class _ActiveFlow:
    record: FlowRecord
    remaining_bytes: float
    worker: int


class FluidFlowSimulator:
    """Simulates flows through one middlebox deployment.

    Parameters
    ----------
    flow_sizes:
        bytes per flow, one entry per flow to run.
    workers:
        number of concurrent sender threads (each runs one flow at a time).
    setup_latency_us:
        one-time cost at flow start (slow-path round trip + state sync for
        Gallium; a server round trip for the baseline).
    server_pps_budget:
        packets/s the middlebox server sustains, or None if the server is
        not on the data path (fully offloaded middleboxes).
    server_packet_fraction:
        fraction of each flow's packets that must traverse the server
        (1.0 for the baseline; the punt fraction for Gallium).
    """

    def __init__(
        self,
        flow_sizes: List[int],
        workers: int = 100,
        setup_latency_us: float = 0.0,
        server_pps_budget: Optional[float] = None,
        server_packet_fraction: float = 1.0,
        per_packet_latency_us: float = 16.0,
    ):
        self.flow_sizes = list(flow_sizes)
        self.workers = workers
        self.setup_latency_us = setup_latency_us
        self.server_pps_budget = server_pps_budget
        self.server_packet_fraction = server_packet_fraction
        self.line_rate_Bps_us = LINE_RATE_GBPS * 1e9 / 8 / 1e6  # bytes per µs
        self.per_packet_latency_us = per_packet_latency_us
        self.records: List[FlowRecord] = []

    # -- rate allocation -----------------------------------------------------

    def _flow_rate(self, active_count: int) -> float:
        """Bytes/µs each active flow gets under fair sharing."""
        if active_count == 0:
            return 0.0
        wire_share = self.line_rate_Bps_us / active_count
        if self.server_pps_budget is None or self.server_packet_fraction <= 0:
            return wire_share
        # Server budget in bytes/µs across all active flows, scaled by how
        # many of each flow's packets actually touch the server.
        server_bytes_per_us = (
            self.server_pps_budget * MTU / 1e6 / self.server_packet_fraction
        )
        server_share = server_bytes_per_us / active_count
        return min(wire_share, server_share)

    # -- main loop ----------------------------------------------------------------

    def run(self) -> List[FlowRecord]:
        pending = list(reversed(self.flow_sizes))  # pop() takes the next flow
        active: List[_ActiveFlow] = []
        now = 0.0

        def start_flow(worker: int) -> None:
            nonlocal now
            size = pending.pop()
            record = FlowRecord(
                size_bytes=size, start_us=now, setup_us=self.setup_latency_us
            )
            active.append(
                _ActiveFlow(record=record, remaining_bytes=float(size), worker=worker)
            )

        for worker in range(min(self.workers, len(pending))):
            start_flow(worker)

        max_iterations = 10 * len(self.flow_sizes) + 100
        iterations = 0
        while active:
            iterations += 1
            if iterations > max_iterations:
                raise RuntimeError("fluid simulation failed to converge")
            rate = self._flow_rate(len(active))
            if rate <= 0:
                raise RuntimeError("zero rate with active flows")
            # Next completion under the current sharing.
            next_flow = min(active, key=lambda f: f.remaining_bytes)
            dt = next_flow.remaining_bytes / rate
            now += dt
            for flow in active:
                flow.remaining_bytes -= rate * dt
            finished = [f for f in active if f.remaining_bytes <= 1e-9]
            active = [f for f in active if f.remaining_bytes > 1e-9]
            for flow in finished:
                record = flow.record
                record.finish_us = (
                    now + record.setup_us + self.per_packet_latency_us
                )
                self.records.append(record)
                if pending:
                    start_flow(flow.worker)
        return self.records

    # -- summary metrics ---------------------------------------------------------

    def total_bytes(self) -> int:
        return sum(r.size_bytes for r in self.records)

    def makespan_us(self) -> float:
        if not self.records:
            return 0.0
        return max(r.finish_us for r in self.records)

    def average_throughput_gbps(self) -> float:
        makespan = self.makespan_us()
        if makespan <= 0:
            return 0.0
        return self.total_bytes() * 8 / (makespan * 1e3)

    def fct_by_bins(self, edges: List[int]) -> Dict[str, float]:
        """Average FCT (µs) per flow-size bin; edges in bytes."""
        bins: Dict[str, List[float]] = {}
        labels = _bin_labels(edges)
        for record in self.records:
            label = labels[_bin_index(record.size_bytes, edges)]
            bins.setdefault(label, []).append(record.fct_us)
        return {
            label: sum(values) / len(values)
            for label, values in bins.items()
        }


def _bin_index(size: int, edges: List[int]) -> int:
    for index, edge in enumerate(edges):
        if size < edge:
            return index
    return len(edges)


def _bin_labels(edges: List[int]) -> List[str]:
    labels = []
    previous = 0
    for edge in edges:
        labels.append(f"{_fmt(previous)}-{_fmt(edge)}")
        previous = edge
    labels.append(f">{_fmt(previous)}")
    return labels


def _fmt(value: int) -> str:
    if value >= 10**6:
        return f"{value // 10**6}M"
    if value >= 10**3:
        return f"{value // 10**3}K"
    return str(value)
