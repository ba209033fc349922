"""Windowed time series: deterministic bucketing over the sim clock.

The hub's contract (see ``repro.telemetry.timeseries``): window ``i``
covers ``[i * window_us, (i + 1) * window_us)``, quiet windows are
sparse-omitted, names resolve lazily, and the same seed + stream must
reproduce a byte-identical serialization.  Disabled telemetry holds
``None`` — the zero-overhead pin.
"""

import json

import pytest

from repro.sim.clock import SimClock
from repro.telemetry import Telemetry
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.timeseries import DEFAULT_SERIES, TimeSeriesHub


def make_hub(window_us=100.0, tenant=None):
    clock = SimClock()
    metrics = MetricsRegistry()
    hub = TimeSeriesHub(clock, metrics, window_us=window_us, tenant=tenant)
    return clock, metrics, hub


class TestWindowing:
    def test_counter_delta_lands_in_window_where_it_moved(self):
        clock, metrics, hub = make_hub(window_us=10.0)
        counter = metrics.counter("demo.count")
        hub.promote("demo.count")
        counter.inc(3)
        clock.advance(12.0)      # crosses into window 1
        hub.roll()               # closes window 0
        counter.inc(5)
        payload = hub.to_dict()  # finalizes window 1
        windows = payload["series"]["demo.count"]["windows"]
        assert [w["index"] for w in windows] == [0, 1]
        assert [w["delta"] for w in windows] == [3, 5]
        assert windows[0]["start_us"] == 0.0
        assert windows[1]["start_us"] == 10.0
        assert windows[1]["total"] == 8

    def test_rate_is_delta_scaled_to_per_ms(self):
        clock, metrics, hub = make_hub(window_us=100.0)
        counter = metrics.counter("demo.count")
        hub.promote("demo.count")
        counter.inc(4)
        payload = hub.to_dict()
        (window,) = payload["series"]["demo.count"]["windows"]
        assert window["rate_per_ms"] == pytest.approx(40.0)

    def test_quiet_windows_are_sparse_omitted(self):
        clock, metrics, hub = make_hub(window_us=10.0)
        counter = metrics.counter("demo.count")
        hub.promote("demo.count")
        counter.inc()
        # A punt-sized clock jump: many empty windows elapse.
        clock.advance(500.0)
        hub.roll()
        counter.inc()
        payload = hub.to_dict()
        windows = payload["series"]["demo.count"]["windows"]
        assert [w["index"] for w in windows] == [0, 50]

    def test_gauge_emits_only_on_change(self):
        clock, metrics, hub = make_hub(window_us=10.0)
        gauge = metrics.gauge("demo.level")
        hub.promote("demo.level")
        gauge.set(2.0)
        clock.advance(10.0)
        hub.roll()
        # unchanged across this window boundary -> no entry
        clock.advance(10.0)
        hub.roll()
        gauge.set(7.0)
        payload = hub.to_dict()
        windows = payload["series"]["demo.level"]["windows"]
        assert [(w["index"], w["value"]) for w in windows] == [
            (0, 2.0), (2, 7.0),
        ]

    def test_histogram_windows_carry_bucket_deltas(self):
        clock, metrics, hub = make_hub(window_us=10.0)
        hist = metrics.histogram("demo.lat", (1.0, 5.0))
        hub.promote("demo.lat")
        hist.observe(0.5)
        hist.observe(3.0)
        clock.advance(10.0)
        hub.roll()
        hist.observe(100.0)
        payload = hub.to_dict()
        windows = payload["series"]["demo.lat"]["windows"]
        assert windows[0]["count"] == 2
        assert windows[0]["buckets"] == [1, 1, 0]
        assert windows[1]["count"] == 1
        assert windows[1]["buckets"] == [0, 0, 1]
        assert windows[1]["sum"] == pytest.approx(100.0)

    def test_roll_is_noop_inside_open_window(self):
        clock, metrics, hub = make_hub(window_us=100.0)
        counter = metrics.counter("demo.count")
        hub.promote("demo.count")
        counter.inc()
        clock.advance(1.0)
        hub.roll()  # still window 0: nothing closes
        counter.inc()
        payload = hub.to_dict()
        (window,) = payload["series"]["demo.count"]["windows"]
        assert window["delta"] == 2


class TestPromotion:
    def test_lazy_resolution_binds_on_later_roll(self):
        clock, metrics, hub = make_hub(window_us=10.0)
        assert hub.promote("late.counter", required=False) is False
        counter = metrics.counter("late.counter")  # born after promotion
        counter.inc(2)
        payload = hub.to_dict()
        (window,) = payload["series"]["late.counter"]["windows"]
        assert window["delta"] == 2

    def test_never_resolved_names_are_omitted(self):
        clock, metrics, hub = make_hub()
        hub.promote("never.exists", required=False)
        assert "never.exists" not in hub.to_dict()["series"]
        assert "never.exists" in hub.promoted

    def test_promote_defaults_returns_resolved_subset(self):
        clock, metrics, hub = make_hub()
        metrics.counter("switch.punted_packets")
        resolved = hub.promote_defaults()
        assert resolved == ["switch.punted_packets"]
        assert set(hub.promoted) == set(DEFAULT_SERIES)

    def test_tenant_label_serialized(self):
        _, _, hub = make_hub(tenant="minilb")
        assert hub.to_dict()["tenant"] == "minilb"
        _, _, plain = make_hub()
        assert "tenant" not in plain.to_dict()


class TestGuards:
    @pytest.mark.parametrize("bad", [0.0, -5.0])
    def test_nonpositive_window_rejected(self, bad):
        clock = SimClock()
        with pytest.raises(ValueError):
            TimeSeriesHub(clock, MetricsRegistry(), window_us=bad)

    def test_disabled_telemetry_holds_none(self):
        """The zero-overhead pin: no hub, no collector, unless asked."""
        telemetry = Telemetry()
        assert telemetry.series is None
        assert telemetry.active_series is None
        assert telemetry.int_collector is None
        assert telemetry.active_int is None

    def test_enabled_telemetry_builds_hub(self):
        telemetry = Telemetry(series_window_us=50.0, series_tenant="lb")
        assert telemetry.active_series is telemetry.series
        assert telemetry.series.window_us == 50.0
        assert telemetry.series.tenant == "lb"

    def test_deployment_components_hold_none_when_disabled(self):
        """Like the tracer's pin: the disabled fast path is one
        ``is not None`` test per packet, on a cached ``None``."""
        from repro.runtime.deployment import (
            GalliumMiddlebox,
            compile_middlebox,
        )
        from repro.middleboxes import load

        lowered = load("mazunat").lowered
        plan, program = compile_middlebox(lowered)
        box = GalliumMiddlebox(plan, program, telemetry=Telemetry())
        assert box._series is None
        assert box._int is None


class TestDeterminism:
    def drive(self, name="mazunat", packets=15, seed=3):
        from itertools import islice

        from repro.runtime.deployment import (
            GalliumMiddlebox,
            compile_middlebox,
        )
        from repro.middleboxes import load
        from repro.workloads import IperfWorkload, middlebox_stream

        lowered = load(name).lowered
        plan, program = compile_middlebox(lowered)
        telemetry = Telemetry(series_window_us=100.0)
        telemetry.series.promote_defaults()
        box = GalliumMiddlebox(plan, program, seed=seed, telemetry=telemetry)
        box.install()
        stream = islice(middlebox_stream(name, IperfWorkload()), packets)
        for packet, ingress in stream:
            box.process_packet(packet.copy(), ingress)
        return json.dumps(telemetry.series.to_dict(), sort_keys=True)

    def test_same_seed_byte_identical(self):
        assert self.drive() == self.drive()

    def test_deployment_emits_windows(self):
        payload = json.loads(self.drive())
        series = payload["series"]
        assert series["switch.fast_path_packets"]["windows"]
        assert series["latency.end_to_end_us"]["kind"] == "histogram"

    def test_same_fault_plan_reproduces_identical_series(self):
        """Mirror of the trace-determinism fault-plan test: same seeds +
        same fault plan => byte-identical windowed series on both the
        DUT and the reference deployment."""
        from tests.telemetry.test_determinism import corpus_scenario

        scenario = corpus_scenario()

        def run():
            telemetry = Telemetry(series_window_us=100.0)
            reference = Telemetry(series_window_us=100.0)
            for side in (telemetry, reference):
                side.series.promote_defaults()
            scenario.check(
                scenario.deploy_reference(reference),
                scenario.deploy_dut(telemetry),
            )
            return (
                json.dumps(telemetry.series.to_dict(), sort_keys=True),
                json.dumps(reference.series.to_dict(), sort_keys=True),
            )

        first, second = run(), run()
        assert first == second
        assert '"windows": [{' in first[0]  # the DUT series is not empty
