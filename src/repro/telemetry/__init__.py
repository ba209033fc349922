"""Pipeline telemetry: per-packet tracing, metrics, and trace diffing.

One :class:`Telemetry` object is threaded through a deployment (switch
model, control plane, server runtime, cache, degradation accounting) and
bundles the three observability pieces:

* a shared simulated clock (:class:`repro.sim.clock.SimClock`) so every
  event carries a reproducible timestamp,
* a :class:`~repro.telemetry.metrics.MetricsRegistry` that absorbs the
  components' counters/gauges/histograms, and
* a :class:`~repro.telemetry.tracer.PacketTracer` recording per-packet
  pipeline provenance (disabled by default; zero overhead when off —
  components hold ``None`` instead of a disabled tracer).

:func:`~repro.telemetry.diff.diff_traces` compares two deployments'
traces and pinpoints the first divergent effect; the difftest and fault
oracles use it to attach provenance to every failure.

The time-resolved layer rides the same bundle, with the same
``None``-pointer zero-overhead discipline:

* ``series_window_us`` attaches a
  :class:`~repro.telemetry.timeseries.TimeSeriesHub` windowing promoted
  registry metrics over the simulated clock,
* ``int_sample_every`` attaches an
  :class:`~repro.telemetry.int.IntCollector` aggregating the switch's
  in-band per-hop stamps into flow reports.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.clock import SimClock
from repro.telemetry.diff import TraceDiff, diff_traces
from repro.telemetry.metrics import (
    INSTRUCTION_BOUNDS,
    LATENCY_BOUNDS_US,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.int import INT_KEY, IntCollector
from repro.telemetry.timeseries import (
    DEFAULT_SERIES,
    DEFAULT_WINDOW_US,
    TimeSeriesHub,
)
from repro.telemetry.tracer import (
    EFFECT_KINDS,
    READ_KINDS,
    PacketTracer,
    TraceEvent,
)

__all__ = [
    "Counter",
    "DEFAULT_SERIES",
    "DEFAULT_WINDOW_US",
    "EFFECT_KINDS",
    "Gauge",
    "Histogram",
    "INSTRUCTION_BOUNDS",
    "INT_KEY",
    "IntCollector",
    "LATENCY_BOUNDS_US",
    "MetricsRegistry",
    "PacketTracer",
    "READ_KINDS",
    "SimClock",
    "Telemetry",
    "TimeSeriesHub",
    "TraceDiff",
    "TraceEvent",
    "diff_traces",
]


class Telemetry:
    """Clock + metrics + tracer bundle for one deployment side."""

    def __init__(self, tracing: bool = False, deep: bool = False,
                 sample_every: Optional[int] = None,
                 punted_only: bool = False,
                 series_window_us: Optional[float] = None,
                 series_tenant: Optional[str] = None,
                 int_sample_every: Optional[int] = None):
        self.clock = SimClock()
        self.metrics = MetricsRegistry()
        self.tracer = PacketTracer(self.clock, enabled=tracing, deep=deep,
                                   sample_every=sample_every,
                                   punted_only=punted_only)
        # Time-resolved layer: built only when asked for, so the disabled
        # path costs nothing (components hold None, not an off object).
        self.series: Optional[TimeSeriesHub] = (
            TimeSeriesHub(self.clock, self.metrics,
                          window_us=series_window_us, tenant=series_tenant)
            if series_window_us is not None else None
        )
        self.int_collector: Optional[IntCollector] = (
            IntCollector(self.clock, self.metrics,
                         sample_every=int_sample_every)
            if int_sample_every is not None else None
        )

    @property
    def active_tracer(self) -> Optional[PacketTracer]:
        """The tracer when tracing is on, else ``None`` (components store
        this, keeping the disabled fast path to one ``is not None``)."""
        return self.tracer if self.tracer.enabled else None

    @property
    def active_series(self) -> Optional[TimeSeriesHub]:
        """The time-series hub when windowing is on, else ``None``."""
        return self.series

    @property
    def active_int(self) -> Optional[IntCollector]:
        """The INT collector when stamping is on, else ``None``."""
        return self.int_collector
