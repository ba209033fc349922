"""Calibrated cost model for the simulated testbed.

Constants are calibrated so the *baseline* numbers land near the paper's
testbed measurements (FastClick one-way latency ≈ 22–23 µs, single-core
FastClick forwarding a few Mpps), and all comparisons derive from the same
constants — so relative results (who wins, by what factor) come from the
measured per-packet work, not from per-system fudge factors.

Calibration sources:

* servers: Intel Xeon E5-2680 @ 2.5 GHz (paper §6.3),
* links: 100 Gbps, directly attached (sub-µs propagation),
* endhosts use the Linux kernel stack (the bulk of the 22 µs baseline),
* the middlebox server runs DPDK (a few µs of NIC/PCIe/driver overhead).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """All timing/cost constants used by the performance models."""

    # -- CPU ------------------------------------------------------------
    server_hz: float = 2.5e9
    #: cycles one interpreted IR instruction costs as compiled C++ on the
    #: server (includes average memory-access costs)
    cycles_per_instruction: float = 30.0
    #: fixed DPDK rx+tx+dispatch cycles per packet on the server
    server_overhead_cycles: float = 800.0
    #: extra cycles per byte touched (payload copies at larger MTUs)
    server_cycles_per_byte: float = 0.45

    # -- propagation / fixed latencies (µs) --------------------------------
    endhost_tx_us: float = 6.9
    endhost_rx_us: float = 7.65
    link_us: float = 0.35
    #: switch pipeline traversal at line rate
    switch_us: float = 0.65
    #: NIC+PCIe on the middlebox server, each direction
    server_nic_us: float = 2.2

    # -- line rates -----------------------------------------------------------
    line_rate_gbps: float = 100.0

    # -- derived helpers ---------------------------------------------------------

    def server_packet_cycles(self, instructions: int, wire_bytes: int = 0) -> float:
        """Cycles one packet costs on one server core."""
        return (
            self.server_overhead_cycles
            + instructions * self.cycles_per_instruction
            + wire_bytes * self.server_cycles_per_byte
        )

    def server_packet_us(self, instructions: int, wire_bytes: int = 0) -> float:
        """Service time of one packet on one server core, in µs."""
        return (
            self.server_packet_cycles(instructions, wire_bytes)
            / self.server_hz * 1e6
        )

    def serialization_us(self, wire_bytes: int) -> float:
        """Time to put a packet on a 100 Gbps wire, in µs."""
        return wire_bytes * 8 / (self.line_rate_gbps * 1e3)

    def packets_per_second_per_core(
        self, instructions: float, wire_bytes: float = 0.0
    ) -> float:
        return self.server_hz / self.server_packet_cycles(
            instructions, wire_bytes
        )
