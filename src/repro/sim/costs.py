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

Every timing model (:mod:`~repro.sim.latency`, :mod:`~repro.sim.capacity`,
:mod:`~repro.sim.fluid`, :mod:`repro.eval.experiments`) reads these names;
none restates a number.
"""

from __future__ import annotations

# -- CPU ----------------------------------------------------------------------
SERVER_HZ = 2.5e9
#: cycles one interpreted IR instruction costs as compiled C++ on the server
#: (includes average memory-access costs)
CYCLES_PER_INSTRUCTION = 30.0
#: fixed DPDK rx+tx+dispatch cycles per packet on the server
SERVER_OVERHEAD_CYCLES = 800.0
#: extra cycles per byte touched (payload copies at larger MTUs)
SERVER_CYCLES_PER_BYTE = 0.45

# -- propagation / fixed latencies (µs) ---------------------------------------
ENDHOST_TX_US = 6.9
ENDHOST_RX_US = 7.65
LINK_US = 0.35
#: switch pipeline traversal at line rate
SWITCH_US = 0.65
#: NIC+PCIe on the middlebox server, each direction
SERVER_NIC_US = 2.2

# -- wire ---------------------------------------------------------------------
LINE_RATE_GBPS = 100.0
#: wire bytes of a full-sized packet (§6.3 iperf)
MTU = 1500


def server_packet_cycles(instructions: float, wire_bytes: float) -> float:
    """Cycles one packet costs on one server core."""
    return (
        SERVER_OVERHEAD_CYCLES
        + instructions * CYCLES_PER_INSTRUCTION
        + wire_bytes * SERVER_CYCLES_PER_BYTE
    )


def server_packet_us(instructions: float, wire_bytes: float) -> float:
    """Service time of one packet on one server core, in µs."""
    return server_packet_cycles(instructions, wire_bytes) / SERVER_HZ * 1e6


def serialization_us(wire_bytes: float) -> float:
    """Time to put a packet on the wire, in µs."""
    return wire_bytes * 8 / (LINE_RATE_GBPS * 1e3)


def packets_per_second_per_core(instructions: float, wire_bytes: float) -> float:
    return SERVER_HZ / server_packet_cycles(instructions, wire_bytes)
