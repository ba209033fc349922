"""The ``faults --summary-json`` rollup: window distributions, rollback
rates, and the oracle-to-stats wiring of the rollback counter."""

import json

from repro.difftest.oracle import StreamSpec
from repro.faults.campaign import CampaignStats
from repro.faults.oracle import (
    FaultOracleResult,
    FaultOutcome,
    run_fault_oracle,
)
from repro.faults.plan import (
    BatchFault,
    FaultPlan,
    PrimarySwitchCrash,
    ServerCrash,
)
from repro.middleboxes import load_source
from repro.runtime.degradation import DegradationPolicy
from repro.switchsim.control_plane import RetryPolicy


def _result(outcome=FaultOutcome.DEGRADED_OK, rollbacks=0):
    return FaultOracleResult(outcome=outcome, rollbacks=rollbacks)


class TestCampaignRollup:
    def test_window_length_distribution(self):
        stats = CampaignStats()
        stats.record(
            FaultPlan(faults=(ServerCrash(at_packet=2, outage=4),)),
            _result(),
        )
        stats.record(
            FaultPlan(faults=(
                ServerCrash(at_packet=1, outage=8),
                PrimarySwitchCrash(at_packet=5, promotion_window=3),
            )),
            _result(),
        )
        summary = stats.summary_dict()
        assert summary["promotion_windows"]["crash"] == {
            "count": 2, "min": 4, "max": 8, "mean": 6.0,
            "total_packets": 12,
        }
        assert summary["promotion_windows"]["switch_crash"]["count"] == 1
        assert summary["promotion_windows"]["switch_crash"]["mean"] == 3.0

    def test_rollback_rates_by_kind(self):
        stats = CampaignStats()
        batch_plan = FaultPlan(faults=(BatchFault(probability=0.5),))
        stats.record(batch_plan, _result(rollbacks=3))
        stats.record(batch_plan, _result(rollbacks=0))
        stats.record(
            FaultPlan(faults=(ServerCrash(),)), _result(rollbacks=0)
        )
        summary = stats.summary_dict()
        assert summary["rollbacks"]["total"] == 3
        assert summary["rollbacks"]["by_kind"]["batch"] == {
            "scenarios": 2, "with_rollbacks": 1, "rate": 0.5,
        }
        assert summary["rollbacks"]["by_kind"]["crash"]["rate"] == 0.0

    def test_probabilistic_kinds_have_no_window_entry(self):
        stats = CampaignStats()
        stats.record(FaultPlan(faults=(BatchFault(),)), _result())
        assert stats.summary_dict()["promotion_windows"] == {}

    def test_summary_dict_is_json_deterministic(self):
        stats = CampaignStats()
        stats.record(
            FaultPlan(faults=(ServerCrash(),)), _result(rollbacks=1)
        )
        first = json.dumps(stats.summary_dict(), sort_keys=True)
        second = json.dumps(stats.summary_dict(), sort_keys=True)
        assert first == second

    def test_outcome_counts_present(self):
        stats = CampaignStats()
        stats.record(FaultPlan(), _result(outcome=FaultOutcome.CLEAN))
        summary = stats.summary_dict()
        assert summary["runs"] == 1
        assert summary["outcomes"]["clean"] == 1


class TestRollbackWiring:
    def test_doomed_batches_surface_as_rollbacks(self):
        # Every batch attempt fails and the undo log cannot roll forward,
        # so each stateful punt rolls back — the oracle must surface the
        # control-plane counter on its result.
        plan = FaultPlan(faults=(
            BatchFault(mode="fail", probability=1.0, doom_probability=1.0),
        ))
        policy = DegradationPolicy(
            fail_open=True, punt_queue_depth=4,
            retry=RetryPolicy(max_attempts=3),
        )
        result = run_fault_oracle(
            load_source("mazunat"), StreamSpec(seed=1, count=15), plan,
            policy=policy, injector_seed=7, deployment_seed=0,
        )
        assert result.outcome is FaultOutcome.DEGRADED_OK
        assert result.rollbacks > 0

    def test_clean_run_reports_zero_rollbacks(self):
        result = run_fault_oracle(
            load_source("minilb"), StreamSpec(seed=2, count=8),
            FaultPlan(), policy=DegradationPolicy(),
            injector_seed=0, deployment_seed=0,
        )
        assert result.rollbacks == 0


class TestWhereTheTimeWent:
    """Every campaign reports how much of its wall time was compiling:
    ``kernel.compile_step`` is timed in one place and ``drive`` reports
    the part that fell inside its own campaign."""

    def test_campaign_reports_its_compile_share(self):
        from repro.faults.campaign import run_campaign

        stats, failures = run_campaign(runs=3, seed=0, packets=10)
        assert failures == []
        assert 0 < stats.compile_s < stats.elapsed_s
        assert stats.summary_dict()["compile_s"] == round(stats.compile_s, 3)
        first_line = stats.summary().splitlines()[0]
        assert first_line.endswith(
            f"rejected in {stats.elapsed_s:.1f}s"
            f" (compile {stats.compile_s:.1f}s)"
        )
        # A second campaign counts only its own compiles.
        again, _ = run_campaign(runs=1, seed=0, packets=10)
        assert 0 < again.compile_s < again.elapsed_s

    def test_both_gauntlets_print_it(self):
        from repro.difftest.compiled import run_compiled_gauntlet
        from repro.difftest.runner import run_gauntlet

        for run in (run_gauntlet, run_compiled_gauntlet):
            stats, _ = run(runs=2, seed=0)
            assert 0 < stats.compile_s < stats.elapsed_s
            assert stats.summary().endswith(
                f" in {stats.elapsed_s:.1f}s (compile {stats.compile_s:.1f}s)"
            )
