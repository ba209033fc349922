"""Tests for the cache + failover composition.

The bounded-cache state policy and the active-standby redundancy role
on one deployment: a bounded FIFO cache on the active switch, a full
copy on the standby.  The load-bearing claims pinned here:

* the per-packet register checkpoint still runs (a silent regression
  here loses switch-authoritative registers across a primary crash);
* promotion rebuilds the bounded cache view and the FIFO eviction order
  on the promoted switch from the server's authoritative copy, and
  eviction keeps working afterwards;
* the failover-aware fault oracle accepts ``cached + failover`` end to
  end, mirroring the promotion resync onto its cached reference.
"""

from repro.difftest.oracle import StreamSpec
from repro.faults.injector import FaultInjector
from repro.faults.oracle import run_fault_oracle
from repro.faults.plan import FaultPlan, PrimarySwitchCrash
from repro.net.addresses import ip
from repro.runtime import state_image
from repro.runtime.cache import BoundedCache
from repro.runtime.degradation import DegradationPolicy
from repro.runtime.deployment import GalliumMiddlebox, compile_middlebox
from repro.runtime.failover import ActiveStandby
from repro.runtime.spec import DeploymentSpec
from repro.workloads.packets import make_tcp_packet
from tests.conftest import get_bundle
from tests.faults.test_cached_faults import MAP_SOURCE


def build(cache_entries=2, plan=None, injector_seed=0):
    bundle = get_bundle("minilb")
    partition_plan, program = compile_middlebox(bundle.lowered)
    policy = DegradationPolicy()
    injector = None
    if plan is not None:
        injector = FaultInjector(plan, seed=injector_seed)
    box = GalliumMiddlebox(
        partition_plan, program, state_policy=BoundedCache(cache_entries),
        redundancy=ActiveStandby(),
        config=bundle.config, policy=policy, injector=injector,
    )
    box.install()
    box.state.vectors["backends"] = [
        int(ip("10.0.1.1")), int(ip("10.0.1.2")),
    ]
    box.sync_all_state()
    return box


def drive(box, count, start=0):
    journeys = []
    for index in range(start, start + count):
        packet = make_tcp_packet(
            f"10.6.0.{index + 1}", "10.0.0.100", 1000 + index, 80
        )
        journeys.append(box.process_packet(packet, 1))
        journeys.extend(box.drain_deferred())
    return journeys


class TestComposition:
    def test_install_bounds_active_and_replicates_standby_in_full(self):
        box = build(cache_entries=2)
        drive(box, 10)
        assert box.switch.tables["map"].entry_count <= 2
        assert box.stats.evictions > 0
        # Evictions are switch-local maintenance: the standby keeps the
        # full replicated copy, ready to be bounded at promotion.
        authoritative = len(box.state.maps["map"])
        assert authoritative > 2
        assert box.redundancy.standby.tables["map"].entry_count == authoritative

    def test_register_checkpoint_runs_per_packet(self, monkeypatch):
        box = build(cache_entries=4)
        calls = []
        read = state_image.from_switch

        def counted(switch, placements, image):
            if image is box.redundancy._checkpoint:
                calls.append(1)
            return read(switch, placements, image)

        monkeypatch.setattr(state_image, "from_switch", counted)
        drive(box, 3)
        assert len(calls) >= 3

    def test_promotion_rebuilds_bounded_cache_and_fifo(self):
        crash = FaultPlan((PrimarySwitchCrash(at_packet=4, promotion_window=2),))
        box = build(cache_entries=2, plan=crash)
        drive(box, 14)  # φ detection extends the window past the nominal 2
        assert box.redundancy.promoted
        assert box.redundancy.standby is None
        # The promoted switch carries a well-formed bounded cache: within
        # bound, FIFO tracking exactly the installed entries, every entry
        # backed by the authoritative map.
        occupancy = box.switch.tables["map"].entry_count
        assert occupancy <= 2
        installed = box.switch.tables["map"].snapshot()
        assert set(box.state_policy._fifo["map"]) == set(installed)
        for keys, value in installed.items():
            assert box.state.maps["map"][keys] == value

    def test_eviction_keeps_working_after_promotion(self):
        crash = FaultPlan((PrimarySwitchCrash(at_packet=3, promotion_window=1),))
        box = build(cache_entries=2, plan=crash)
        drive(box, 12)  # φ detection extends the window past the nominal 1
        assert box.redundancy.promoted
        evictions_at_promotion = box.stats.evictions
        drive(box, 8, start=12)
        assert box.switch.tables["map"].entry_count <= 2
        assert box.stats.evictions > evictions_at_promotion

    def test_hot_flow_hits_cache_after_promotion(self):
        crash = FaultPlan((PrimarySwitchCrash(at_packet=3, promotion_window=1),))
        box = build(cache_entries=4, plan=crash)
        drive(box, 12)  # φ detection extends the window past the nominal 1
        assert box.redundancy.promoted
        flow = lambda: make_tcp_packet("10.6.9.1", "10.0.0.100", 9000, 80)
        first = box.process_packet(flow(), 1)
        assert first.punted  # miss refills the promoted switch's cache
        box.drain_deferred()
        second = box.process_packet(flow(), 1)
        assert second.fast_path
        assert second.verdict == "send"

    def test_builder_helper(self):
        box = build(cache_entries=3)
        assert isinstance(box.state_policy, BoundedCache)
        assert isinstance(box.redundancy, ActiveStandby)
        assert box.redundancy.standby is not None


CACHED_FAILOVER = DeploymentSpec(cache_entries=2, standby_detection="phi")


class TestComposedOracle:
    STREAM = StreamSpec(seed=7, count=30)

    def test_oracle_accepts_cached_failover(self):
        result = run_fault_oracle(
            MAP_SOURCE, self.STREAM, FaultPlan(),
            deployment=CACHED_FAILOVER,
        )
        assert result.outcome.value == "clean", (
            result.violation or result.error
        )
        assert result.deployment == CACHED_FAILOVER

    def test_oracle_converges_through_promotion(self):
        plan = FaultPlan(faults=(
            PrimarySwitchCrash(at_packet=8, promotion_window=3),
        ))
        result = run_fault_oracle(
            MAP_SOURCE, self.STREAM, plan,
            deployment=CACHED_FAILOVER,
        )
        assert result.outcome.value in ("clean", "degraded_ok"), (
            result.violation or result.error
        )
        assert result.promoted
