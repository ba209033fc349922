"""CONGA flow-size distributions (paper §6.3's realistic workloads).

The paper draws flow sizes from the enterprise and data-mining workloads
of CONGA (Alizadeh et al., SIGCOMM'14).  The original traces are not
public; the distributions below re-synthesize the published CDF shapes
with the two properties the Gallium evaluation leans on:

* ~90 % of flows in both workloads are small (< 10 packets),
* the data-mining workload's long flows are *longer* than the
  enterprise workload's ("We do better on the data-mining workload
  because the long flows are longer"), so more bytes ride the fast path.

Sampling inverts the CDF with log-linear interpolation between knots.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class CongaDistribution:
    """A flow-size CDF given as (bytes, cumulative probability) knots."""

    name: str
    knots: Tuple[Tuple[int, float], ...]

    def sample(self, rng: random.Random) -> int:
        """Draw one flow size in bytes (inverse-CDF, log-interpolated)."""
        u = rng.random()
        previous_size, previous_cdf = self.knots[0]
        if u <= previous_cdf:
            return previous_size
        for size, cdf in self.knots[1:]:
            if u <= cdf:
                # Interpolate in log-size space for a smooth heavy tail.
                span = cdf - previous_cdf
                fraction = (u - previous_cdf) / span if span > 0 else 0.0
                log_low = math.log(max(previous_size, 1))
                log_high = math.log(max(size, 1))
                return int(math.exp(log_low + fraction * (log_high - log_low)))
            previous_size, previous_cdf = size, cdf
        return self.knots[-1][0]


#: Enterprise workload: mostly small request/response flows, tail to ~100 MB.
ENTERPRISE = CongaDistribution(
    "enterprise",
    (
        (100, 0.02),
        (500, 0.30),
        (1_000, 0.50),
        (5_000, 0.80),
        (15_000, 0.90),  # ~10 packets
        (100_000, 0.96),
        (1_000_000, 0.99),
        (10_000_000, 0.998),
        (100_000_000, 1.0),
    ),
)

#: Data-mining workload: even more tiny flows, but a much heavier tail
#: (shuffle phases move GBs).
DATA_MINING = CongaDistribution(
    "datamining",
    (
        (100, 0.45),
        (500, 0.70),
        (1_000, 0.80),
        (15_000, 0.90),  # ~10 packets
        (100_000, 0.94),
        (1_000_000, 0.96),
        (10_000_000, 0.98),
        (100_000_000, 0.995),
        (1_000_000_000, 1.0),
    ),
)

DISTRIBUTIONS = {"enterprise": ENTERPRISE, "datamining": DATA_MINING}


#: seed of every flow-size draw
FLOW_SIZE_SEED = 42


def sample_flow_sizes(distribution: CongaDistribution, count: int) -> List[int]:
    """Draw ``count`` flow sizes (paper: "We draw 100000 flow sizes")."""
    rng = random.Random(FLOW_SIZE_SEED)
    return [distribution.sample(rng) for _ in range(count)]


def packets_in_flow(size_bytes: int, mtu_payload: int = 1400) -> int:
    """Data packets needed to carry ``size_bytes``."""
    return max(1, (size_bytes + mtu_payload - 1) // mtu_payload)
