"""End-to-end tracing/metrics over real deployments.

Builds the same observed deployments the ``trace``/``metrics`` CLI
commands build and asserts the pipeline emits the event vocabulary the
telemetry design promises — parser extraction, table applies, register
reads/writes with old/new values, punt decisions, server execution,
control-plane batch windows, and cache activity.
"""

import pytest

from repro.cli import _build_observed_deployment, _drive_stream


def run_traced(name, deployment="gallium", packets=12, deep=False, seed=0):
    middlebox, telemetry = _build_observed_deployment(
        name, deployment, seed, 4, tracing=True, deep=deep
    )
    count = _drive_stream(middlebox, name, packets)
    assert count == packets
    return middlebox, telemetry


class TestGalliumTrace:
    @pytest.fixture(scope="class")
    def traced(self):
        return run_traced("mazunat")

    def test_event_vocabulary(self, traced):
        _, telemetry = traced
        kinds = {event.kind for event in telemetry.tracer.events}
        assert {
            "parse", "table_lookup", "register_rmw", "packet_write",
            "punt", "map_insert", "server_exec", "batch_begin",
            "batch_commit", "verdict",
        } <= kinds

    def test_register_rmw_carries_old_and_new(self, traced):
        _, telemetry = traced
        rmw = next(e for e in telemetry.tracer.events
                   if e.kind == "register_rmw")
        assert {"name", "old", "new", "op"} <= set(rmw.detail)

    def test_components_and_packets_attributed(self, traced):
        _, telemetry = traced
        components = {e.component for e in telemetry.tracer.events}
        assert {"switch.parser", "switch.pre", "server",
                "control_plane"} <= components
        punted = [e for e in telemetry.tracer.events if e.kind == "punt"]
        assert all(e.packet is not None for e in punted)

    def test_timestamps_monotonic(self, traced):
        _, telemetry = traced
        times = [e.time_us for e in telemetry.tracer.events]
        assert times == sorted(times)

    def test_metrics_registry_populated(self, traced):
        _, telemetry = traced
        counters = telemetry.metrics.to_dict()["counters"]
        assert counters["switch.punted_packets"] >= 1
        assert counters["switch.fast_path_packets"] >= 1
        assert counters["server.punts_handled"] == counters[
            "switch.punted_packets"
        ]
        assert counters["control_plane.batches_applied"] >= 1

    def test_disabled_tracing_records_nothing(self):
        middlebox, telemetry = _build_observed_deployment(
            "mazunat", "gallium", 0, 4, tracing=False, deep=False
        )
        _drive_stream(middlebox, "mazunat", 6)
        assert telemetry.tracer.events == []
        # ...but the metrics registry still fills up.
        assert telemetry.metrics.counter_value("switch.punted_packets") >= 1


class TestDeepTrace:
    def test_deep_adds_exec_events(self):
        _, shallow = run_traced("firewall", packets=6)
        _, deep = run_traced("firewall", packets=6, deep=True)
        assert not any(e.kind == "exec" for e in shallow.tracer.events)
        execs = [e for e in deep.tracer.events if e.kind == "exec"]
        assert execs
        assert all({"function", "block", "op"} <= set(e.detail)
                   for e in execs)


class TestCachedTrace:
    @pytest.fixture(scope="class")
    def traced(self):
        return run_traced("minilb", deployment="cached", packets=16)

    @pytest.fixture(scope="class")
    def churned(self):
        """A tiny cache under key churn: evictions, then a refill."""
        from repro.net.addresses import ip as ip_addr
        from repro.runtime.cache import CachedGalliumMiddlebox
        from repro.runtime.deployment import compile_middlebox
        from repro.telemetry import Telemetry
        from repro.workloads.packets import make_tcp_packet
        from tests.conftest import get_bundle

        bundle = get_bundle("minilb")
        telemetry = Telemetry(tracing=True)
        middlebox = CachedGalliumMiddlebox(
            *compile_middlebox(bundle.lowered), cache_entries=2,
            config=bundle.config, telemetry=telemetry,
        )
        middlebox.install()
        middlebox.state.vectors["backends"] = [
            int(ip_addr("10.0.1.1")), int(ip_addr("10.0.1.2")),
        ]
        middlebox.sync_all_state()
        for client in range(6):
            middlebox.process_packet(
                make_tcp_packet(f"10.7.1.{client + 1}", "10.0.0.100",
                                5, 80), 1
            )
        # The first client was evicted; its return refills the entry.
        middlebox.process_packet(
            make_tcp_packet("10.7.1.1", "10.0.0.100", 5, 80), 1
        )
        return middlebox, telemetry

    def test_cache_events_present(self, traced):
        _, telemetry = traced
        kinds = {event.kind for event in telemetry.tracer.events}
        assert {"cache_hit", "cache_miss"} <= kinds

    def test_evict_and_refill_events(self, churned):
        middlebox, telemetry = churned
        kinds = {event.kind for event in telemetry.tracer.events}
        assert {"cache_evict", "cache_refill"} <= kinds
        counters = telemetry.metrics.to_dict()["counters"]
        assert counters["cache.evictions"] == middlebox.stats.evictions > 0
        assert counters["cache.refills"] == middlebox.stats.refills > 0

    def test_cache_stats_live_in_registry(self, traced):
        middlebox, telemetry = traced
        counters = telemetry.metrics.to_dict()["counters"]
        assert counters["cache.misses"] == middlebox.stats.misses
        assert counters["cache.hits"] == middlebox.stats.hits
        assert counters["cache.misses"] >= 1

    def test_punt_discards_speculative_pre_effects(self, traced):
        """On a cache miss the server reruns the whole program, so the
        switch's speculative pre-pipeline effects must not survive in the
        trace (they would double-count against the baseline)."""
        _, telemetry = traced
        events = telemetry.tracer.events
        misses = [e for e in events if e.kind == "cache_miss"]
        assert misses
        for miss in misses:
            pre_effects = [
                e for e in events
                if e.packet == miss.packet
                and e.component == "switch.pre"
                and e.kind in ("register_write", "register_rmw",
                               "map_insert", "packet_write")
            ]
            assert pre_effects == []
