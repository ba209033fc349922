"""Sustainable-throughput analysis (paper Figure 7).

Bottleneck model over measured per-packet costs:

* the switch forwards at line rate (the Tofino is never the bottleneck),
* a server core sustains ``SERVER_HZ / cycles_per_packet`` packets/s,
* the baseline pushes *every* packet through ``cores`` server cores,
* Gallium pushes only the punted fraction through one core, so its
  sustainable ingest rate is ``core_rate / slow_fraction`` (line rate when
  the slow fraction is negligible).

Throughput in Gbps = sustainable packet rate × packet size, capped at line
rate.  CPU savings at iso-throughput fall out of the same numbers
(§6.3: "If we constrain the throughput to be identical, Gallium saves
processing cycles by 21-79%").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import costs


@dataclass
class ThroughputEstimate:
    """Sustainable throughput and the cost breakdown behind it."""

    gbps: float
    packet_rate_pps: float
    bottleneck: str  # "line_rate" | "server"
    server_core_utilization: float  # of one core, can exceed 1 pre-cap

    def __str__(self) -> str:
        return f"{self.gbps:.1f} Gbps ({self.bottleneck})"


class CapacityModel:
    def line_rate_pps(self, wire_bytes: int) -> float:
        # 20 bytes of Ethernet preamble+IPG+FCS overhead per frame.
        return costs.LINE_RATE_GBPS * 1e9 / ((wire_bytes + 20) * 8)

    def baseline_throughput(
        self, instructions_per_packet: float, wire_bytes: int, cores: int
    ) -> ThroughputEstimate:
        """FastClick on ``cores`` server cores."""
        per_core = costs.packets_per_second_per_core(
            instructions_per_packet, wire_bytes
        )
        server_rate = per_core * cores
        line_rate = self.line_rate_pps(wire_bytes)
        rate = min(server_rate, line_rate)
        return ThroughputEstimate(
            gbps=rate * wire_bytes * 8 / 1e9,
            packet_rate_pps=rate,
            bottleneck="server" if server_rate < line_rate else "line_rate",
            server_core_utilization=rate / per_core / cores,
        )

    def gallium_throughput(
        self,
        slow_fraction: float,
        slow_instructions_per_packet: float,
        wire_bytes: int,
        shim_bytes: int = 0,
    ) -> ThroughputEstimate:
        """Gallium, its slow path on one server core (the paper's
        "Offloaded (1c)"), with the given measured slow-path fraction and
        cost."""
        line_rate = self.line_rate_pps(wire_bytes)
        if slow_fraction <= 0:
            return ThroughputEstimate(
                gbps=line_rate * wire_bytes * 8 / 1e9,
                packet_rate_pps=line_rate,
                bottleneck="line_rate",
                server_core_utilization=0.0,
            )
        per_core = costs.packets_per_second_per_core(
            slow_instructions_per_packet, wire_bytes + shim_bytes
        )
        server_limited = per_core / slow_fraction
        rate = min(server_limited, line_rate)
        utilization = rate * slow_fraction / per_core
        return ThroughputEstimate(
            gbps=rate * wire_bytes * 8 / 1e9,
            packet_rate_pps=rate,
            bottleneck="server" if server_limited < line_rate else "line_rate",
            server_core_utilization=utilization,
        )

    # -- CPU savings at iso-throughput (§6.3) --------------------------------

    def cycles_saved_fraction(
        self,
        baseline_instructions: float,
        slow_fraction: float,
        slow_instructions: float,
        wire_bytes: int,
    ) -> float:
        """Fraction of server cycles Gallium saves at the same throughput."""
        baseline_cycles = costs.server_packet_cycles(
            baseline_instructions, wire_bytes
        )
        gallium_cycles = slow_fraction * costs.server_packet_cycles(
            slow_instructions, wire_bytes
        )
        if baseline_cycles <= 0:
            return 0.0
        return max(0.0, 1.0 - gallium_cycles / baseline_cycles)
