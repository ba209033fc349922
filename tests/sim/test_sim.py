"""Tests for the simulation substrate: events, costs, latency, capacity,
fluid flows."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import costs
from repro.sim.capacity import CapacityModel
from repro.sim.events import EventQueue, Simulator
from repro.sim.fluid import FluidFlowSimulator
from repro.sim.latency import LatencyModel


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        order = []
        queue.push(2.0, lambda: order.append("b"))
        queue.push(1.0, lambda: order.append("a"))
        queue.push(3.0, lambda: order.append("c"))
        while queue:
            _, callback = queue.pop()
            callback()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion(self):
        queue = EventQueue()
        order = []
        queue.push(1.0, lambda: order.append(1))
        queue.push(1.0, lambda: order.append(2))
        queue.pop()[1]()
        queue.pop()[1]()
        assert order == [1, 2]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, lambda: None)


class TestSimulator:
    def test_clock_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(5.0, lambda: times.append(sim.now))
        sim.schedule(1.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.0, 5.0]

    def test_nested_scheduling(self):
        sim = Simulator()
        hits = []

        def first():
            hits.append(sim.now)
            sim.schedule(2.0, lambda: hits.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert hits == [1.0, 3.0]

    def test_run_until(self):
        sim = Simulator()
        hits = []
        sim.schedule(1.0, lambda: hits.append(1))
        sim.schedule(10.0, lambda: hits.append(2))
        sim.run(until=5.0)
        assert hits == [1] and sim.now == 5.0

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)


class TestCostModel:
    def test_server_packet_us_monotone_in_instructions(self):
        assert costs.server_packet_us(100, 0) < costs.server_packet_us(1000, 0)

    def test_serialization_scales_with_bytes(self):
        assert costs.serialization_us(1500) == pytest.approx(
            1500 * 8 / 100e3
        )

    def test_pps_inverse_of_cycles(self):
        pps = costs.packets_per_second_per_core(0, 0)
        assert pps == pytest.approx(
            costs.SERVER_HZ / costs.SERVER_OVERHEAD_CYCLES
        )


class TestLatencyModel:
    def test_fast_path_beats_baseline(self):
        model = LatencyModel()
        assert model.fast_path_us(100) < model.baseline_us(50, 100)

    def test_baseline_calibrated_to_paper(self):
        """FastClick one-way latency lands near Table 2's 22-23 µs."""
        model = LatencyModel()
        baseline = model.baseline_us(160, 100)
        assert 21.0 <= baseline <= 24.0

    def test_fast_path_calibrated_to_paper(self):
        model = LatencyModel()
        fast = model.fast_path_us(100)
        assert 15.0 <= fast <= 17.0
        # ~31% reduction (paper)
        reduction = 1 - fast / model.baseline_us(160, 100)
        assert 0.25 <= reduction <= 0.35

    def test_slow_path_slower_than_baseline_with_sync(self):
        model = LatencyModel()
        slow = model.slow_path_us(60, 100, sync_wait_us=135.0)
        assert slow > model.baseline_us(60, 100)

    def test_population_statistics(self):
        model = LatencyModel()
        sample = model.population([20.0] * 500)
        assert 19.0 <= sample.mean_us <= 21.0
        assert sample.std_us > 0


class TestCapacityModel:
    def test_baseline_scales_with_cores(self):
        model = CapacityModel()
        one = model.baseline_throughput(200, 1500, 1)
        four = model.baseline_throughput(200, 1500, 4)
        assert four.gbps == pytest.approx(min(one.gbps * 4, 98.7), rel=0.05)

    def test_gallium_line_rate_when_fully_offloaded(self):
        model = CapacityModel()
        estimate = model.gallium_throughput(0.0, 0, 1500)
        assert estimate.bottleneck == "line_rate"
        assert estimate.gbps > 90

    def test_gallium_degrades_with_slow_fraction(self):
        model = CapacityModel()
        low = model.gallium_throughput(0.01, 200, 1500)
        high = model.gallium_throughput(0.5, 200, 1500)
        assert high.gbps < low.gbps

    def test_cycles_saved_bounds(self):
        model = CapacityModel()
        assert model.cycles_saved_fraction(200, 0.0, 0, 1500) == 1.0
        saved = model.cycles_saved_fraction(200, 1.0, 200, 1500)
        assert saved == pytest.approx(0.0)

    @given(st.floats(0.0, 1.0), st.integers(0, 500))
    @settings(max_examples=30)
    def test_throughput_never_exceeds_line_rate(self, fraction, instructions):
        model = CapacityModel()
        estimate = model.gallium_throughput(fraction, instructions, 1500)
        assert estimate.gbps <= 100.0


class TestFluidFlowSimulator:
    def test_single_flow_wire_limited(self):
        sim = FluidFlowSimulator([100_000_000], workers=1,
                                 per_packet_latency_us=0)
        records = sim.run()
        # 100 MB over 100 Gbps = 8000 µs.
        assert records[0].fct_us == pytest.approx(8000, rel=0.05)

    def test_server_budget_limits_rate(self):
        # Server sustains 1 Mpps of 1500B packets = 12 Gbps.
        fast = FluidFlowSimulator([10_000_000], workers=1,
                                  per_packet_latency_us=0)
        slow = FluidFlowSimulator(
            [10_000_000], workers=1, per_packet_latency_us=0,
            server_pps_budget=1e6, server_packet_fraction=1.0,
        )
        assert slow.run()[0].fct_us > fast.run()[0].fct_us

    def test_fair_sharing_slows_concurrent_flows(self):
        solo = FluidFlowSimulator([50_000_000], workers=1,
                                  per_packet_latency_us=0)
        shared = FluidFlowSimulator([50_000_000] * 4, workers=4,
                                    per_packet_latency_us=0)
        assert shared.run()[0].fct_us > solo.run()[0].fct_us

    def test_setup_latency_added(self):
        with_setup = FluidFlowSimulator([1000], workers=1,
                                        setup_latency_us=500,
                                        per_packet_latency_us=0)
        assert with_setup.run()[0].fct_us >= 500

    def test_all_flows_complete(self):
        sizes = [1000] * 250
        sim = FluidFlowSimulator(sizes, workers=10)
        records = sim.run()
        assert len(records) == 250
        assert sim.total_bytes() == 250_000

    def test_fct_bins(self):
        sim = FluidFlowSimulator([50_000, 5_000_000, 50_000_000], workers=3)
        sim.run()
        bins = sim.fct_by_bins([100_000, 10_000_000])
        assert set(bins) == {"0-100K", "100K-10M", ">10M"}

    def test_worker_limit_respected(self):
        """With 1 worker, flows run strictly sequentially."""
        sim = FluidFlowSimulator([1_000_000, 1_000_000], workers=1,
                                 per_packet_latency_us=0)
        records = sim.run()
        assert records[1].finish_us >= records[0].finish_us


class TestEmptyQueueErrors:
    def test_pop_empty_raises_simulation_error(self):
        from repro.sim.events import SimulationError

        with pytest.raises(SimulationError, match="empty"):
            EventQueue().pop()

    def test_peek_time_empty_raises_simulation_error(self):
        from repro.sim.events import SimulationError

        with pytest.raises(SimulationError, match="empty"):
            EventQueue().peek_time()

    def test_simulation_error_is_runtime_error(self):
        from repro.sim.events import SimulationError

        # Callers that guarded with ``except RuntimeError`` keep working.
        assert issubclass(SimulationError, RuntimeError)
        with pytest.raises(RuntimeError):
            EventQueue().pop()

    def test_drained_queue_raises_too(self):
        from repro.sim.events import SimulationError

        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.pop()
        with pytest.raises(SimulationError):
            queue.pop()
