"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is the single sink for every quantitative signal in the
deployment — switch pipeline counters, control-plane batch latencies,
punt-path accounting, cache statistics, and the drop-reason taxonomy —
replacing the ad-hoc integer attributes those components used to carry.
Output is deterministic: histogram bucket bounds are fixed at creation
and :meth:`MetricsRegistry.to_dict` sorts every mapping, so two runs with
the same seeds serialize to byte-identical JSON.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Default bucket upper bounds (µs) for latency-style histograms.
LATENCY_BOUNDS_US: Tuple[float, ...] = (
    50.0, 100.0, 150.0, 200.0, 300.0, 500.0,
    1000.0, 2000.0, 5000.0, 10000.0,
)
#: Default bucket upper bounds for per-packet instruction counts.
INSTRUCTION_BOUNDS: Tuple[float, ...] = (
    5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
)


class Counter:
    """A monotonically *usable* integer counter (``set`` exists so the
    registry can absorb legacy ``attribute += 1`` call sites)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def set(self, value: int) -> None:
        self.value = int(value)

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


def counter_property(name: str) -> property:
    """A legacy ``stats.hits += 1`` field as a view of ``_counters[name]``."""

    def _get(self) -> int:
        return self._counters[name].value

    def _set(self, value: int) -> None:
        self._counters[name].set(value)

    return property(_get, _set)


class Gauge:
    """A last-value-wins float gauge."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """A fixed-bound bucket histogram (cumulative-style, plus overflow).

    ``bounds`` are inclusive upper bounds; an observation larger than the
    last bound lands in the overflow bucket.  Bounds are frozen at
    creation so serialized output never depends on observation order.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "sum",
                 "max_observed")

    def __init__(self, name: str, bounds: Sequence[float]):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name!r}: bounds must be sorted"
                             " and non-empty")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        # -inf, not 0.0: an all-negative observation stream must report
        # its true (negative) maximum, not a phantom zero.
        self.max_observed = float("-inf")

    def cell(self, value: float) -> Tuple[float, int]:
        """``(observed, bucket)``: the float :meth:`observe` would add to
        ``sum`` and the bucket it would count it in.

        A per-packet path that observes the same few values over and
        over memoises this pair and applies :meth:`observe`'s four
        updates itself — same operations, same order, so ``sum`` comes
        out bit-identical.
        """
        value = float(value)
        return value, bisect_left(self.bounds, value)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value > self.max_observed:
            self.max_observed = value
        # bisect_left over the sorted inclusive upper bounds lands value
        # in the first bucket with value <= bound; an overflow observation
        # returns len(bounds), which is exactly the overflow bucket index.
        self.bucket_counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile estimate from the buckets.

        Returns the upper bound of the bucket holding the rank, clamped
        to the largest observation (so a population narrower than its
        bucket reports its true maximum, and the overflow bucket doesn't
        report infinity).  This is the registry's single percentile
        implementation — components must not keep raw sample lists just
        to re-derive it.
        """
        if self.count == 0:
            return 0.0
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction {fraction!r} outside [0, 1]")
        rank = max(1, int(round(fraction * self.count)))
        seen = 0
        for index, bucket in enumerate(self.bucket_counts):
            seen += bucket
            if seen >= rank:
                if index < len(self.bounds):
                    return min(self.bounds[index], self.max_observed)
                return self.max_observed
        return self.max_observed  # pragma: no cover — seen == count

    def to_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.bucket_counts),
            "count": self.count,
            "sum": round(self.sum, 6),
        }

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.2f}>"


class MetricsRegistry:
    """Namespace of metrics with get-or-create accessors.

    Names are dotted paths (``"control_plane.batches_applied"``,
    ``"drops.by_reason.punt_lost"``); components own a prefix and the
    registry keeps the union, so one registry per deployment sees every
    signal.
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._check_unused(name, self._gauges, self._histograms)
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_unused(name, self._counters, self._histograms)
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str,
                  bounds: Sequence[float] = LATENCY_BOUNDS_US) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._check_unused(name, self._counters, self._gauges)
            metric = self._histograms[name] = Histogram(name, bounds)
        elif metric.bounds != tuple(float(b) for b in bounds):
            raise ValueError(
                f"histogram {name!r} re-registered with different bounds"
            )
        return metric

    @staticmethod
    def _check_unused(name: str, *families: Dict[str, object]) -> None:
        for family in families:
            if name in family:
                raise ValueError(
                    f"metric {name!r} already registered as another type"
                )

    def lookup(self, name: str) -> Optional[Tuple[str, object]]:
        """``("counter" | "gauge" | "histogram", metric)`` for a
        registered name, or ``None`` — the time-series layer promotes
        *existing* metrics and must never create them as a side effect."""
        metric = self._counters.get(name)
        if metric is not None:
            return ("counter", metric)
        gauge = self._gauges.get(name)
        if gauge is not None:
            return ("gauge", gauge)
        histogram = self._histograms.get(name)
        if histogram is not None:
            return ("histogram", histogram)
        return None

    def counters_with_prefix(self, prefix: str) -> Iterator[Counter]:
        """Counters whose name starts with ``prefix``, sorted by name."""
        for name in sorted(self._counters):
            if name.startswith(prefix):
                yield self._counters[name]

    def counter_value(self, name: str) -> int:
        metric = self._counters.get(name)
        return metric.value if metric is not None else 0

    def to_dict(self) -> dict:
        """Deterministic (sorted, fixed-bucket) snapshot of all metrics."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: round(self._gauges[name].value, 6)
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].to_dict()
                for name in sorted(self._histograms)
            },
        }
