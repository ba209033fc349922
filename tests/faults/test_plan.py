"""Tests for the fault-plan DSL: windows, serialization, generation."""

import random
from dataclasses import replace

import pytest

from repro.faults.plan import (
    _DRAW,
    ALL_FAULT_KINDS,
    BatchFault,
    FAULT_KINDS,
    FaultPlan,
    LinkFault,
    POOL_FAULT_KINDS,
    PoolMemberCrash,
    PoolMemberDrain,
    PuntReorder,
    ServerCrash,
    StaleReplication,
    SwitchReprogram,
    WritebackOverflow,
    generate_plan,
    window_length,
)
from repro.runtime.spec import DeploymentSpec


def full_plan() -> FaultPlan:
    return FaultPlan((
        LinkFault(direction="to_server", mode="loss", probability=0.2,
                  start=3, stop=9),
        LinkFault(direction="to_switch", mode="corrupt", probability=0.1),
        BatchFault(mode="timeout", probability=0.5, doom_probability=0.05),
        WritebackOverflow(probability=0.3, start=1),
        ServerCrash(at_packet=4, outage=3, lose_state=True),
        SwitchReprogram(at_packet=10, duration=4),
        StaleReplication(extra_us=1234.5, probability=0.9),
        PuntReorder(),
    ))


class TestWindows:
    def test_link_window(self):
        fault = LinkFault(start=3, stop=9)
        assert not fault.active(2)
        assert fault.active(3)
        assert fault.active(8)
        assert not fault.active(9)

    def test_open_ended_window(self):
        fault = BatchFault(start=5, stop=None)
        assert not fault.active(4)
        assert fault.active(5)
        assert fault.active(10_000)

    def test_crash_window(self):
        crash = ServerCrash(at_packet=4, outage=3)
        assert not crash.active(3)
        assert crash.active(4)
        assert crash.active(6)
        assert not crash.active(7)

    def test_reorder_always_active(self):
        assert PuntReorder().active(0)
        assert PuntReorder().active(999)

    def test_pool_windows_are_inclusive_exclusive(self):
        spec = PoolMemberCrash(member="a", at_packet=5, migration_window=3)
        assert not spec.active(4)
        assert spec.active(5) and spec.active(7)
        assert not spec.active(8)
        assert window_length(spec) == 3

    def test_every_windowed_kind_names_a_field_it_has(self):
        for cls in FAULT_KINDS.values():
            spec = cls()
            if window_length(spec) is not None:
                assert getattr(spec, cls.window_field) == window_length(spec)
        assert window_length(LinkFault()) is None


class TestSerialization:
    def test_roundtrip_every_kind(self):
        plan = full_plan()
        restored = FaultPlan.from_dict(plan.to_dict())
        assert restored == plan

    def test_roundtrip_is_json_compatible(self):
        import json

        plan = full_plan()
        restored = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert restored == plan

    def test_pool_kinds_round_trip(self):
        plan = FaultPlan((
            PoolMemberCrash(member="srv1", at_packet=4, migration_window=3),
            PoolMemberDrain(member="srv2", at_packet=12, drain_window=5),
        ))
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert "pool member 'srv1' crash" in plan.describe()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.from_dict({"faults": [{"kind": "gamma_ray"}]})

    def test_a_tenant_scoped_link_fault_is_refused_by_name(self):
        """Link faults are not scoped to a tenant: a plan carrying the
        old tenant-scoped kind fails to load, naming it, instead of
        injecting into every tenant."""
        with pytest.raises(ValueError, match="unknown fault kind 'tenant_link'"):
            FaultPlan.from_dict({"faults": [{
                "kind": "tenant_link", "tenant": "minilb",
                "direction": "to_server", "mode": "loss",
                "probability": 0.1, "start": 0, "stop": None,
            }]})

    def test_registry_covers_all_kinds(self):
        assert set(ALL_FAULT_KINDS) == set(FAULT_KINDS)
        assert set(ALL_FAULT_KINDS) == {
            "link", "batch", "overflow", "crash", "reprogram", "stale",
            "reorder", "switch_crash", "crash_batch", "standby_stale",
            "pool_member_crash", "pool_member_drain",
        }


class TestDescribe:
    def test_mentions_every_fault(self):
        text = full_plan().describe()
        for token in ("link", "batch", "overflow", "crash", "reprogram",
                      "stale", "reorder"):
            assert token in text

    def test_empty_plan(self):
        assert FaultPlan().describe() == "no faults"


#: all eight role combinations a ``DeploymentSpec`` names
ROLE_COMBOS = [
    DeploymentSpec(
        cache_entries=cache, standby_detection=standby, pool_servers=servers
    )
    for cache in (None, 2)
    for standby in (None, "phi")
    for servers in (0, 3)
]
STREAM_LEN = 25
PRIMARY_CRASHES = ("switch_crash", "crash_batch")
SINGLE_SWITCH_ONLY = {"crash", "reprogram", "reorder"}


def generated(spec: DeploymentSpec, seeds: int = 200):
    return [
        (seed, generate_plan(random.Random(seed), STREAM_LEN, spec))
        for seed in range(seeds)
    ]


@pytest.mark.parametrize(
    "spec", ROLE_COMBOS, ids=lambda spec: spec.cli_flags().strip() or "base"
)
class TestGeneratedPlans:
    """What every schedule holds, whatever roles it was drawn for."""

    def test_deterministic_and_blind_to_the_cache(self, spec):
        uncached = replace(spec, cache_entries=None)
        assert generated(spec, 20) == generated(spec, 20)
        assert generated(spec, 20) == generated(uncached, 20)

    def test_placed_windows_are_inside_the_stream_and_disjoint(self, spec):
        for seed, plan in generated(spec):
            windows = [
                (fault.at_packet, fault.at_packet + window_length(fault))
                for fault in plan.faults if hasattr(fault, "at_packet")
            ]
            for lo, hi in windows:
                assert 0 <= lo < STREAM_LEN and hi - lo >= 2, (seed, windows)
            for i, (lo_a, hi_a) in enumerate(windows):
                for lo_b, hi_b in windows[i + 1:]:
                    assert hi_a <= lo_b or hi_b <= lo_a, (seed, windows)

    def test_a_survivor_is_always_left(self, spec):
        for seed, plan in generated(spec):
            removed = [
                fault.member for fault in plan.faults
                if fault.kind in POOL_FAULT_KINDS
            ]
            assert len(set(removed)) == len(removed), (seed, removed)
            assert len(removed) <= max(0, spec.pool_servers - 1)
        if spec.pool_servers:
            kinds = {k for _, plan in generated(spec) for k in plan.kinds()}
            assert set(POOL_FAULT_KINDS) <= kinds

    def test_exactly_one_primary_crash_iff_standby(self, spec):
        for seed, plan in generated(spec):
            crashes = [
                fault for fault in plan.faults
                if fault.kind in PRIMARY_CRASHES
            ]
            standby_kinds = len(crashes) + len(plan.by_kind("standby_stale"))
            if spec.standby_detection is None:
                assert standby_kinds == 0, seed
            else:
                assert len(crashes) == 1, seed
                assert len(plan.by_kind("standby_stale")) <= 1, seed

    def test_each_benign_kind_at_most_once(self, spec):
        fewest = 1 if spec in (DeploymentSpec(), DeploymentSpec(2)) else 0
        for seed, plan in generated(spec):
            shared = [
                fault.kind for fault in plan.faults if fault.kind in _DRAW
            ]
            for kind in ("link", "batch", "overflow", "stale"):
                assert shared.count(kind) <= 1, (seed, shared)
            # reorder may bring a crash window of its own along
            assert fewest <= len(set(shared)) <= fewest + 2 + (
                "reorder" in shared
            ), (seed, shared)

    def test_single_switch_kinds_only_on_the_base_deployment(self, spec):
        kinds = {k for _, plan in generated(spec) for k in plan.kinds()}
        if spec.standby_detection is None and not spec.pool_servers:
            assert SINGLE_SWITCH_ONLY <= kinds
        else:
            assert not SINGLE_SWITCH_ONLY & kinds

    def test_round_trips_through_dict(self, spec):
        for _, plan in generated(spec, 50):
            assert FaultPlan.from_dict(plan.to_dict()) == plan


def test_reorder_always_paired_with_queueing_fault():
    for seed, plan in generated(DeploymentSpec()):
        if plan.by_kind("reorder") and not plan.by_kind("crash"):
            # The pairing can only fail when window placement failed
            # 8 times in a row, which a 25-packet stream never does.
            raise AssertionError(f"unpaired reorder at seed {seed}")


def test_a_pool_of_one_gets_no_membership_changes():
    for _, plan in generated(DeploymentSpec(pool_servers=1), 50):
        assert not set(plan.kinds()) & set(POOL_FAULT_KINDS)


def test_one_generator_and_one_definition_of_a_window():
    """The forks this module used to hold are gone, not wrapped."""
    import inspect
    from pathlib import Path

    import repro
    from repro.faults.injector import FaultInjector

    assert list(inspect.signature(generate_plan).parameters) == [
        "rng", "stream_len", "spec"
    ]
    assert list(inspect.signature(FaultInjector).parameters) == [
        "plan", "seed"
    ]
    source = "".join(
        path.read_text() for path in Path(repro.__file__).parent.rglob("*.py")
    )
    for retired in (
        "require_plannable", "_generate_pool_plan", "_generate_failover_plan",
        "_WINDOW_ATTRS", "FAILOVER_EXTRA_KINDS", "POOL_EXTRA_KINDS",
    ):
        assert retired not in source, retired
    assert source.count("def window_length") == 1
