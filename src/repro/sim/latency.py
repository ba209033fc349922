"""Packet latency composition (paper Table 2).

One-way latency of a packet through the testbed:

* **FastClick baseline**: endhost TX → link → switch → link → server
  (NIC + full middlebox processing) → link → switch → link → endhost RX.
* **Gallium fast path**: endhost TX → link → switch (pre pipeline) →
  link → endhost RX — the server hop disappears, which is where the ~31 %
  reduction comes from.
* **Gallium slow path**: like the baseline but with the non-offloaded
  partition only, plus the state-sync output-commit wait when the packet
  triggered updates.

Per-packet instruction counts come from actually running the compiled
artifacts; only the constants in :mod:`repro.sim.costs` are calibrated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.sim import costs as c

#: endhost jitter (kernel stack noise) as a fraction of the mean latency
JITTER_FRACTION = 0.02
#: seed of every model's jitter draws
LATENCY_SEED = 0


@dataclass
class LatencySample:
    """Mean/stddev of a latency population, in µs."""

    mean_us: float
    std_us: float
    samples: List[float]

    def __str__(self) -> str:
        return f"{self.mean_us:.2f} ± {self.std_us:.2f} µs"


class LatencyModel:
    """Composes per-packet latency from path components."""

    def __init__(self):
        self._rng = random.Random(LATENCY_SEED)

    # -- path compositions -------------------------------------------------

    def baseline_us(self, instructions: int, wire_bytes: int) -> float:
        """Endhost→endhost through the server-based middlebox."""
        return (
            c.ENDHOST_TX_US
            + c.LINK_US
            + c.SWITCH_US
            + c.LINK_US
            + 2 * c.SERVER_NIC_US
            + c.server_packet_us(instructions, wire_bytes)
            + c.LINK_US
            + c.SWITCH_US
            + c.LINK_US
            + c.ENDHOST_RX_US
            + 2 * c.serialization_us(wire_bytes)
        )

    def fast_path_us(self, wire_bytes: int) -> float:
        """Endhost→endhost with the switch handling the packet alone."""
        return (
            c.ENDHOST_TX_US
            + c.LINK_US
            + c.SWITCH_US
            + c.LINK_US
            + c.ENDHOST_RX_US
            + c.serialization_us(wire_bytes)
        )

    def slow_path_us(
        self,
        server_instructions: int,
        wire_bytes: int,
        sync_wait_us: float = 0.0,
        shim_bytes: int = 0,
    ) -> float:
        """Endhost→endhost for a punted packet (plus output-commit wait)."""
        return (
            c.ENDHOST_TX_US
            + c.LINK_US
            + c.SWITCH_US  # pre pipeline
            + c.LINK_US
            + 2 * c.SERVER_NIC_US
            + c.server_packet_us(server_instructions, wire_bytes + shim_bytes)
            + sync_wait_us
            + c.LINK_US
            + c.SWITCH_US  # post pipeline
            + c.LINK_US
            + c.ENDHOST_RX_US
            + 2 * c.serialization_us(wire_bytes + shim_bytes)
        )

    # -- sampling ---------------------------------------------------------------

    def sample(self, mean_us: float) -> float:
        """One measured latency with endhost jitter (kernel stack noise)."""
        return max(0.0, self._rng.gauss(mean_us, mean_us * JITTER_FRACTION))

    def population(self, mean_us_iter) -> LatencySample:
        samples = [self.sample(m) for m in mean_us_iter]
        if not samples:
            return LatencySample(0.0, 0.0, [])
        mean = sum(samples) / len(samples)
        variance = sum((s - mean) ** 2 for s in samples) / len(samples)
        return LatencySample(mean, variance**0.5, samples)
