"""Pool fault plans, the pool-aware oracle, and the pooled campaign.

The headline guarantee: a member crash degrades only the flows the
member owned and live migration recovers them byte-exactly — proven by
the oracle's reference replay plus its independent reconstruction of
the member table — and generated pool plans always leave a survivor so
full fallback never has an excuse to engage.
"""

from dataclasses import replace

import pytest

from repro.difftest.oracle import StreamSpec
from repro.faults.campaign import run_campaign
from repro.faults.oracle import FaultOutcome, run_fault_oracle
from repro.faults.plan import (
    FaultPlan,
    POOL_FAULT_KINDS,
    PoolMemberCrash,
    PoolMemberDrain,
)
from repro.runtime.pool import default_member_names
from repro.runtime.spec import DeploymentSpec
from repro.telemetry.schema import validate_named

from tests.faults.test_degradation import FAULTBOX

MEMBERS = default_member_names(3)
POOLED = DeploymentSpec(pool_servers=3)
POOLED_CACHED = replace(POOLED, cache_entries=2)
POOLED_STANDBY = replace(POOLED, standby_detection="phi")
POOLED_CACHED_STANDBY = replace(POOLED_CACHED, standby_detection="phi")


class TestPoolOracle:
    def run(self, plan, deployment=POOLED, count=25, **kwargs):
        return run_fault_oracle(
            FAULTBOX, StreamSpec(seed=1, count=count), plan,
            deployment=deployment, **kwargs,
        )

    def test_member_crash_is_degraded_ok(self):
        result = self.run(FaultPlan((
            PoolMemberCrash(member="srv1", at_packet=4,
                            migration_window=4),
        )))
        assert result.outcome is FaultOutcome.DEGRADED_OK
        assert result.violation is None
        assert result.deployment == POOLED
        assert result.migrations == 1
        assert result.injected == {"pool_member_crash[srv1]": 1}

    def test_crash_and_drain_both_migrate(self):
        result = self.run(FaultPlan((
            PoolMemberCrash(member="srv0", at_packet=3,
                            migration_window=3),
            PoolMemberDrain(member="srv2", at_packet=12, drain_window=4),
        )), count=30)
        assert result.outcome is FaultOutcome.DEGRADED_OK
        assert result.violation is None
        assert result.migrations == 2

    def test_no_faults_is_clean(self):
        result = self.run(FaultPlan())
        assert result.outcome is FaultOutcome.CLEAN
        assert result.migrations == 0

    def test_unknown_member_is_a_crash_not_a_silent_skip(self):
        result = self.run(FaultPlan((
            PoolMemberCrash(member="ghost", at_packet=2,
                            migration_window=3),
        )))
        assert result.outcome is FaultOutcome.CRASH
        assert "unknown" in result.error

    def test_switch_outage_under_a_standby_may_open_fallback(self):
        """Rule (1) forbids a *member* outage opening a fallback window
        (pinned as ``member_outage_opens_fallback`` in
        ``tests/difftest/oracle_pins.py``), not a switch outage."""
        from repro.faults.plan import CrashDuringBatch, PrimarySwitchCrash

        for crash in (
            PrimarySwitchCrash(at_packet=6, promotion_window=3),
            CrashDuringBatch(probability=1.0, promotion_window=3),
        ):
            result = self.run(FaultPlan((
                crash,
                PoolMemberCrash(member="srv1", at_packet=12,
                                migration_window=3),
            )), deployment=POOLED_STANDBY)
            assert result.outcome is FaultOutcome.DEGRADED_OK, (
                result.violation or result.error
            )
            assert result.promoted and result.migrations == 1


class TestPoolTimesStandby:
    """The last pairing the harness used to refuse: a pool behind an
    active-standby pair draws both roles' fault kinds."""

    @pytest.mark.parametrize(
        "deployment", [POOLED_STANDBY, POOLED_CACHED_STANDBY],
        ids=["pool+failover", "pool+cached+failover"],
    )
    def test_seeded_campaign_slice_is_clean(self, deployment):
        stats, failures = run_campaign(30, seed=2, deployment=deployment)
        assert failures == []
        assert stats.violations == 0 and stats.crashes == 0
        assert stats.runs == 30
        assert stats.rejected < (25 if deployment.cache_entries else 1)
        assert stats.pool_migrations > 0
        summary = stats.summary_dict()
        assert validate_named(summary, "faults_summary") == []
        assert set(summary["promotion_windows"]) & set(POOL_FAULT_KINDS)
        assert set(summary["promotion_windows"]) & {
            "switch_crash", "crash_batch"
        }

    def test_a_due_migration_waits_for_the_fallback_window_to_close(self):
        """Inside a window the switch copy is the dead primary's and the
        checkpoint predates the window: the migration runs at the close,
        after the resync and the re-baseline."""
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import PrimarySwitchCrash
        from repro.runtime.deployment import (
            GalliumMiddlebox,
            compile_middlebox,
        )

        box = GalliumMiddlebox(
            *compile_middlebox(FAULTBOX), **POOLED_STANDBY.roles(),
            injector=FaultInjector(FaultPlan((
                PrimarySwitchCrash(at_packet=4, promotion_window=8),
                PoolMemberCrash(member="srv1", at_packet=5,
                                migration_window=2),
            )), seed=0),
        )
        box.install()
        for packet, ingress in StreamSpec(seed=1, count=25).build():
            box.process_packet(packet.copy(), ingress)
            box.drain_deferred()
        box.recover()
        tags = [event[0] for event in box.fault_log]
        assert tags.index("promote") < tags.index("pool_migrate")
        assert tags.index("pool_down") < tags.index("promote")

    def test_checkpoint_reproducer_bites_when_the_close_does_not_rebase(
        self, monkeypatch
    ):
        """The committed reproducer is not vacuous: with the checkpoint
        re-baselined only at install, as before the fix, it diverges."""
        from repro.faults.corpus import load_corpus, replay_entry
        from repro.runtime.pool import ServerPool

        (entry,) = [
            entry for entry in load_corpus()
            if entry.name == "pool_checkpoint_stale_after_promotion"
        ]
        assert replay_entry(entry).outcome is FaultOutcome.DEGRADED_OK
        rebase = ServerPool.rebase
        monkeypatch.setattr(
            ServerPool, "rebase",
            lambda pool: None if pool.box.fault_log else rebase(pool),
        )
        result = replay_entry(entry)
        assert result.outcome is FaultOutcome.VIOLATION
        assert result.violation.kind == "convergence"


class TestPoolTimesCached:
    """The pairing that used to be refused: a server pool behind a
    bounded-cache switch."""

    def test_seeded_campaign_slice_is_clean(self):
        stats, failures = run_campaign(
            10, seed=4, deployment=POOLED_CACHED
        )
        assert failures == []
        assert stats.violations == 0 and stats.crashes == 0
        assert stats.runs == 10
        assert stats.pool_migrations > 0
        # Programs the bounded cache cannot admit count as rejected;
        # most of this slice must actually have run.
        assert stats.rejected < stats.runs // 2

    def test_member_crash_under_eviction_pressure_keeps_evicted_entries(
        self,
    ):
        """A crash migration rebuilds the victim's entries from the
        switch — which under a 2-entry cache holds almost none of them.
        The pool must fall back on its checkpoint for bounded tables, or
        every evicted entry the victim owned is deleted."""
        from repro.faults.injector import FaultInjector
        from repro.runtime.cache import BoundedCache
        from repro.runtime.deployment import (
            GalliumMiddlebox,
            compile_middlebox,
        )
        from repro.runtime.pool import ServerPool
        from repro.workloads.packets import make_tcp_packet
        from tests.faults.test_cached_faults import MAP_SOURCE

        def build(injector=None):
            box = GalliumMiddlebox(
                *compile_middlebox(MAP_SOURCE), state_policy=BoundedCache(2),
                punt_target=ServerPool(3), injector=injector,
            )
            box.install()
            return box

        def drive(box):
            for index in range(40):
                box.process_packet(make_tcp_packet(
                    f"10.1.0.{index + 1}", "10.0.0.9", 2000 + index, 80
                ), 1)
                box.drain_deferred()
            box.recover()
            box.drain_deferred()

        calm = build()
        drive(calm)
        victim = max(
            sorted(calm.pool.members),
            key=lambda m: calm.pool.members[m].punts_served,
        )
        crashed = build(FaultInjector(FaultPlan((
            # Opens after the last packet: nothing stalls, so the two
            # runs may differ only by what the migration did to state.
            PoolMemberCrash(member=victim, at_packet=40,
                            migration_window=1),
        )), seed=0))
        drive(crashed)
        assert crashed.stats.evictions > 30
        assert victim in crashed.pool.retired
        assert crashed.telemetry.metrics.counter_value(
            "pool.migrated_entries"
        ) > 2  # more than the switch could have held
        assert crashed.state.snapshot() == calm.state.snapshot()
        assert len(crashed.state.maps["m0"]) == 40

    def test_oracle_accepts_member_crash_on_a_cached_pool(self):
        from tests.faults.test_cached_faults import MAP_SOURCE

        result = run_fault_oracle(
            MAP_SOURCE, StreamSpec(seed=7, count=30),
            FaultPlan((
                PoolMemberCrash(member="srv1", at_packet=12,
                                migration_window=5),
            )),
            deployment=POOLED_CACHED,
        )
        assert result.outcome is FaultOutcome.DEGRADED_OK, (
            result.violation or result.error
        )
        assert result.deployment == POOLED_CACHED
        assert result.migrations == 1


@pytest.fixture(scope="module")
def pooled_campaign():
    """One 25-scenario pooled campaign shared by the assertions below
    (each run is ~2 s of the tier-1 wall time)."""
    return run_campaign(25, seed=3, deployment=POOLED)


class TestPooledCampaign:
    def test_seeded_campaign_has_zero_violations(self, pooled_campaign):
        stats, failures = pooled_campaign
        assert failures == []
        assert stats.violations == 0 and stats.crashes == 0
        assert stats.runs == 25
        assert stats.pool_migrations > 0
        covered = (
            stats.coverage["pool_member_crash"]
            + stats.coverage["pool_member_drain"]
        )
        assert covered > 0

    def test_summary_has_pool_rollup_and_passes_schema(
        self, pooled_campaign
    ):
        stats, _failures = pooled_campaign
        summary = stats.summary_dict()
        assert validate_named(summary, "faults_summary") == []
        pool = summary["pool"]
        assert pool["migrations"] == stats.pool_migrations
        assert set(pool["member_crashes"]) <= set(MEMBERS)
        assert set(pool["member_drains"]) <= set(MEMBERS)
        # Migration windows appear in the per-kind window distribution.
        windows = summary["promotion_windows"]
        assert any(
            kind in windows for kind in POOL_FAULT_KINDS
        ), windows

    def test_failure_reports_carry_the_servers_flag(self):
        from repro.difftest.generator import generate_program
        from repro.faults.campaign import FaultFailure
        from repro.faults.oracle import FaultOracleResult
        from repro.runtime.degradation import DegradationPolicy

        failure = FaultFailure(
            0, 42, StreamSpec(seed=1, count=5), generate_program(42),
            FaultPlan(), DegradationPolicy(), 0, 0,
            FaultOracleResult(FaultOutcome.VIOLATION, deployment=POOLED),
        )
        assert "--servers 3" in failure.report()

    def test_base_campaign_summary_still_passes_schema(self):
        stats, _failures = run_campaign(5, seed=1)
        summary = stats.summary_dict()
        assert validate_named(summary, "faults_summary") == []
        assert summary["pool"]["migrations"] == 0
