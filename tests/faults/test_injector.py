"""Tests for deterministic fault-plan execution."""

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    BatchFault,
    FaultPlan,
    LinkFault,
    PuntReorder,
    ServerCrash,
    StaleReplication,
    SwitchReprogram,
)


def lossy_plan(p=0.5):
    return FaultPlan((
        LinkFault(direction="to_server", mode="loss", probability=p),
        LinkFault(direction="to_switch", mode="corrupt", probability=p),
    ))


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        plan = lossy_plan()
        runs = []
        for _ in range(2):
            injector = FaultInjector(plan, seed=9)
            fates = []
            for index in range(50):
                injector.begin_packet(index)
                fates.append(
                    (injector.punt_frame_fate(), injector.return_frame_fate())
                )
            runs.append(fates)
        assert runs[0] == runs[1]

    def test_different_seed_different_decisions(self):
        plan = lossy_plan()
        fates = []
        for seed in (1, 2):
            injector = FaultInjector(plan, seed=seed)
            run = []
            for index in range(50):
                injector.begin_packet(index)
                run.append(injector.punt_frame_fate())
            fates.append(run)
        assert fates[0] != fates[1]


class TestClear:
    def test_clear_silences_everything(self):
        plan = FaultPlan((
            LinkFault(probability=1.0),
            BatchFault(probability=1.0),
            ServerCrash(at_packet=0, outage=1000),
            SwitchReprogram(at_packet=0, duration=1000),
            StaleReplication(probability=1.0),
        ))
        injector = FaultInjector(plan, seed=0)
        injector.begin_packet(5)
        injector.clear()
        assert injector.punt_frame_fate() is None
        assert injector.return_frame_fate() is None
        assert injector.batch_fault(1) is None
        assert not injector.server_down(5)
        assert not injector.switch_down(5)
        assert injector.stale_extra_us() == 0.0


class TestBatchFaults:
    def test_doomed_batch_fails_every_attempt(self):
        plan = FaultPlan((BatchFault(probability=0.0, doom_probability=1.0),))
        injector = FaultInjector(plan, seed=0)
        injector.begin_packet(0)
        assert [injector.batch_fault(a) for a in (1, 2, 3, 4)] == ["fail"] * 4

    def test_timeout_can_fire_on_final_attempt(self):
        """The undo log made exhausted timeouts safe (the control plane
        rolls forward from the high-water mark), so the injector no
        longer spares a batch's final permitted attempt."""
        plan = FaultPlan((BatchFault(mode="timeout", probability=1.0),))
        injector = FaultInjector(plan, seed=0)
        injector.begin_packet(0)
        assert injector.batch_fault(1) == "timeout"
        assert injector.batch_fault(2) == "timeout"
        assert injector.batch_fault(3) == "timeout"

    def test_doom_resets_per_packet(self):
        plan = FaultPlan((BatchFault(probability=0.0, doom_probability=1.0),))
        injector = FaultInjector(plan, seed=0)
        injector.begin_packet(0)
        assert injector.batch_fault(1) == "fail"
        injector.begin_packet(1)
        # Doom re-rolls (probability 1.0 here, so still doomed) but the
        # flag itself must be re-derived, not inherited.
        assert injector._batch_doomed is False or injector.batch_fault(1)

    def test_injected_counters(self):
        plan = FaultPlan((LinkFault(probability=1.0, mode="loss"),))
        injector = FaultInjector(plan, seed=0)
        for index in range(5):
            injector.begin_packet(index)
            injector.punt_frame_fate()
        assert injector.injected == {"punt_lost": 5}


class TestWindows:
    def test_crash_window_arms_state_loss(self):
        plan = FaultPlan((ServerCrash(at_packet=2, outage=3, lose_state=True),))
        injector = FaultInjector(plan, seed=0)
        assert not injector.server_down(1)
        assert injector.server_down(2)
        assert injector.take_restart_state_loss()
        assert not injector.take_restart_state_loss()  # consume-once

    def test_keep_state_crash(self):
        plan = FaultPlan((ServerCrash(at_packet=0, outage=2, lose_state=False),))
        injector = FaultInjector(plan, seed=0)
        assert injector.server_down(0)
        assert not injector.take_restart_state_loss()


class TestDrainOrder:
    def test_permutation_validity(self):
        plan = FaultPlan((PuntReorder(),))
        injector = FaultInjector(plan, seed=3)
        order = injector.drain_order(8)
        assert sorted(order) == list(range(8))

    def test_no_reorder_without_spec(self):
        injector = FaultInjector(FaultPlan(), seed=3)
        assert injector.drain_order(8) == list(range(8))

    def test_reorder_survives_clear(self):
        # Reordering applies to frames already queued when recovery
        # starts, so clear() must not disable it.
        plan = FaultPlan((PuntReorder(),))
        injector = FaultInjector(plan, seed=5)
        injector.clear()
        orders = {tuple(injector.drain_order(6)) for _ in range(10)}
        assert any(order != tuple(range(6)) for order in orders)
