"""Windowed time series over the simulated clock.

The :class:`~repro.telemetry.metrics.MetricsRegistry` reports end-of-run
aggregates; this module adds the *time* axis.  A :class:`TimeSeriesHub`
promotes existing registry metrics to windowed series keyed on the
simulation clock: simulated time is cut into fixed-width windows
(``window_us``), and at every window boundary the hub snapshots the
delta each promoted metric accumulated while that window was current.

Semantics, chosen for determinism:

* **Window key.**  Window ``i`` covers simulated time
  ``[i * window_us, (i + 1) * window_us)``.  Deployments call
  :meth:`TimeSeriesHub.roll` once per packet, right after the
  inter-packet gap advance, so a packet's *entire* cost (including punt
  round-trips that jump the clock hundreds of µs) is attributed to the
  window in which its processing began.  That makes bucketing a pure
  function of the packet stream — independent of wall clock, iteration
  order, or sampling jitter.
* **Sparse encoding.**  Only windows in which a metric actually moved
  emit an entry (counters/histograms: non-zero delta; gauges: value
  changed).  Quiet windows are implicit, so long punt-induced clock
  jumps don't bloat the JSON.
* **Lazy resolution.**  Metrics are promoted *by name*; a name that
  does not exist yet (e.g. ``failover.promotions`` before the first
  promotion) resolves on a later roll with a zero baseline, which is
  exactly right because registry metrics start at zero.  Names that
  never resolve are omitted from :meth:`TimeSeriesHub.to_dict`.

Per-window entries:

* counter — ``{"index", "start_us", "delta", "total", "rate_per_ms"}``
* gauge — ``{"index", "start_us", "value"}``
* histogram — ``{"index", "start_us", "count", "sum", "buckets"}``
  (all three are deltas for that window)

Like the tracer, the hub follows the ``None``-pointer discipline: a
:class:`~repro.telemetry.Telemetry` built without ``series_window_us``
has no hub at all, and components hold ``None`` — the disabled fast
path is one ``is not None`` test.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sim.clock import SimClock
from repro.telemetry.metrics import MetricsRegistry

#: Default window width: 100 µs of simulated time — fine enough to
#: separate punt bursts from fast-path cruising on the default workloads,
#: coarse enough that a 25-packet trace yields a handful of windows.
DEFAULT_WINDOW_US = 100.0

#: Metric names the CLI promotes by default (``python -m repro obs``).
#: Unresolved names (deployment flavours that never create them) are
#: silently omitted from the output, so one list serves every flavour.
DEFAULT_SERIES: Tuple[str, ...] = (
    "baseline.packets_processed",
    "cache.hits",
    "cache.misses",
    "control_plane.rpc_queue_wait_us",
    "failover.promotions",
    "health.detection_latency_us",
    "health.heartbeats",
    "health.phi",
    "int.stamped_packets",
    "latency.end_to_end_us",
    "pool.member_crashes",
    "pool.member_drains",
    "pool.migration_us",
    "pool.migrations",
    "punt.served",
    "switch.dropped_packets",
    "switch.fast_path_packets",
    "switch.punted_packets",
)


class _Series:
    """One promoted metric: resolved handle + last-window baseline."""

    __slots__ = ("name", "kind", "metric", "base_count", "base_sum",
                 "base_buckets", "last_gauge", "windows")

    def __init__(self, name: str):
        self.name = name
        self.kind: Optional[str] = None
        self.metric = None
        self.base_count = 0
        self.base_sum = 0.0
        self.base_buckets: List[int] = []
        self.last_gauge: Optional[float] = None
        self.windows: List[dict] = []

    def resolve(self, registry: MetricsRegistry,
                snapshot_baseline: bool = True) -> bool:
        """Bind to the registry metric if it exists now; idempotent.

        ``snapshot_baseline`` (promotion time) starts the series at the
        metric's *current* value — whatever accumulated before promotion
        is not this hub's history.  Lazy resolution at window close
        passes ``False``: the metric was born *after* promotion, so its
        whole value is post-promotion delta and the baseline is zero
        (histograms keep their zero-filled bucket baseline too).
        """
        if self.metric is not None:
            return True
        found = registry.lookup(self.name)
        if found is None:
            return False
        self.kind, self.metric = found
        if self.kind == "histogram" and not snapshot_baseline:
            self.base_buckets = [0] * len(self.metric.bucket_counts)
        if snapshot_baseline:
            if self.kind == "counter":
                self.base_count = self.metric.value
            elif self.kind == "histogram":
                self.base_count = self.metric.count
                self.base_sum = self.metric.sum
                self.base_buckets = list(self.metric.bucket_counts)
        return True

    def close_window(self, index: int, start_us: float,
                     window_us: float) -> None:
        """Emit this metric's delta for window ``index`` if it moved."""
        metric = self.metric
        if metric is None:
            return
        if self.kind == "counter":
            delta = metric.value - self.base_count
            if delta:
                self.windows.append({
                    "index": index,
                    "start_us": round(start_us, 3),
                    "delta": delta,
                    "total": metric.value,
                    "rate_per_ms": round(delta * 1000.0 / window_us, 6),
                })
                self.base_count = metric.value
        elif self.kind == "gauge":
            value = metric.value
            if self.last_gauge is None or value != self.last_gauge:
                self.windows.append({
                    "index": index,
                    "start_us": round(start_us, 3),
                    "value": round(value, 6),
                })
                self.last_gauge = value
        else:  # histogram
            delta_count = metric.count - self.base_count
            if delta_count:
                self.windows.append({
                    "index": index,
                    "start_us": round(start_us, 3),
                    "count": delta_count,
                    "sum": round(metric.sum - self.base_sum, 6),
                    "buckets": [
                        now - then for now, then in
                        zip(metric.bucket_counts, self.base_buckets)
                    ],
                })
                self.base_count = metric.count
                self.base_sum = metric.sum
                self.base_buckets = list(metric.bucket_counts)


class TimeSeriesHub:
    """Windowed series over promoted registry metrics.

    One hub per deployment side (held by its ``Telemetry``); the
    optional ``tenant`` label tags the serialized output so a
    ``MultiTenantDeployment`` can merge per-tenant hubs into one report.
    """

    def __init__(self, clock: SimClock, metrics: MetricsRegistry,
                 window_us: float = DEFAULT_WINDOW_US,
                 tenant: Optional[str] = None):
        if window_us <= 0.0:
            raise ValueError(f"window_us must be positive, got {window_us!r}")
        self.clock = clock
        self.metrics = metrics
        self.window_us = float(window_us)
        self.tenant = tenant
        self._series: Dict[str, _Series] = {}
        self._open_index = int(clock.now_us // self.window_us)
        self._finalized = False

    # -- promotion --------------------------------------------------------

    def promote(self, name: str, required: bool = True) -> bool:
        """Promote registry metric ``name`` to a windowed series.

        With ``required`` the name must be promotable *eventually* —
        promotion itself never fails, but only names that resolve against
        the registry by serialization time appear in the output.  Returns
        whether the name resolved immediately.
        """
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = _Series(name)
        resolved = series.resolve(self.metrics)
        if required and not resolved:
            # Leave it registered for lazy resolution; callers that need
            # a hard failure can check the return value.
            pass
        return resolved

    def promote_defaults(self) -> List[str]:
        """Promote the default name set; returns the immediately-resolved
        subset (deployment-flavour-deterministic)."""
        return [n for n in DEFAULT_SERIES if self.promote(n, required=False)]

    @property
    def promoted(self) -> Tuple[str, ...]:
        return tuple(sorted(self._series))

    # -- windowing --------------------------------------------------------

    def roll(self) -> None:
        """Close windows up to the current clock position.

        Called once per packet (after the inter-packet gap advance); a
        no-op while the clock is still inside the open window, so the
        per-packet overhead with no elapsed boundary is one floor-divide.
        """
        current = int(self.clock.now_us // self.window_us)
        if current == self._open_index:
            return
        self._close_open_window()
        self._open_index = current

    def finalize(self) -> None:
        """Close the currently open window (end of run)."""
        if self._finalized:
            return
        self._close_open_window()
        self._finalized = True

    def _close_open_window(self) -> None:
        index = self._open_index
        start_us = index * self.window_us
        for name in self._series:
            series = self._series[name]
            if series.metric is None:
                series.resolve(self.metrics, snapshot_baseline=False)
            series.close_window(index, start_us, self.window_us)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """Deterministic snapshot (finalizes the open window)."""
        self.finalize()
        payload: dict = {
            "window_us": round(self.window_us, 6),
            "series": {
                name: {
                    "kind": series.kind,
                    "windows": series.windows,
                }
                for name, series in sorted(self._series.items())
                if series.metric is not None
            },
        }
        if self.tenant is not None:
            payload["tenant"] = self.tenant
        return payload
