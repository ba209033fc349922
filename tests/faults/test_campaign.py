"""Tests for the fault-campaign runner: determinism, seed derivation,
and a zero-failure smoke slice."""

from repro.difftest.runner import STREAM_SALT, derive_seeds
from repro.faults.campaign import (
    _DEPLOY_SALT,
    _INJECT_SALT,
    _PLAN_SALT,
    run_campaign,
    seeds_for_program,
)


def derive_fault_seeds(master_seed, index):
    """Scenario seeds for run ``index`` under ``master_seed``."""
    return seeds_for_program(derive_seeds(master_seed, index)[0])


class TestSeedDerivation:
    def test_salts_are_distinct(self):
        seeds = seeds_for_program(12345)
        assert seeds[0] == 12345
        assert len(set(seeds)) == len(seeds)
        assert seeds[1] == 12345 ^ STREAM_SALT
        assert seeds[2] == 12345 ^ _PLAN_SALT
        assert seeds[3] == 12345 ^ _INJECT_SALT
        assert seeds[4] == 12345 ^ _DEPLOY_SALT

    def test_reproduction_needs_only_the_program_seed(self):
        # The failure report tells users to rerun with --seed-override
        # <program_seed>; that must regenerate the identical scenario.
        for index in (0, 3, 9):
            program_seed = derive_fault_seeds(0, index)[0]
            assert seeds_for_program(program_seed) == derive_fault_seeds(
                0, index
            )


class TestCampaign:
    def test_small_run_is_failure_free(self):
        stats, failures = run_campaign(runs=8, seed=0, packets=15)
        assert failures == []
        assert stats.runs == 8
        assert stats.violations == 0 and stats.crashes == 0
        assert stats.clean + stats.degraded_ok + stats.rejected == 8
        assert stats.delivered_packets > 0

    def test_deterministic(self):
        results = [
            run_campaign(runs=6, seed=3, packets=15) for _ in range(2)
        ]
        first, second = (stats for stats, _ in results)
        assert first.clean == second.clean
        assert first.degraded_ok == second.degraded_ok
        assert first.coverage == second.coverage
        assert first.injected == second.injected
        assert first.degraded_packets == second.degraded_packets

    def test_seed_override_pins_run_zero(self):
        program_seed = derive_fault_seeds(0, 5)[0]
        stats, failures = run_campaign(
            runs=1, seed=0, packets=15, seed_override=program_seed
        )
        assert stats.runs == 1
        assert failures == []

    def test_summary_mentions_coverage(self):
        stats, _ = run_campaign(runs=6, seed=0, packets=15)
        text = stats.summary()
        assert "scenarios" in text
        assert "coverage" in text

    def test_time_budget_stops_early(self):
        stats, _ = run_campaign(runs=10_000, seed=0, packets=10,
                                time_budget_s=2.0)
        assert stats.runs < 10_000
        assert stats.runs > 0
