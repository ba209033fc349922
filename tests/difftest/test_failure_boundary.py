"""The typed failure boundary: whose fault an exception is.

An exception raised by the compiler or the deployment under test is a
``crash``; one raised by the model it is compared against is a
``reference_crash``; one raised by the oracle's own code is neither — it
propagates, and the campaign loop re-raises it as ``HarnessBug`` with the
scenario's reproduce line.  On the code before the kernel all three were
filed as a crash of the deployment.
"""

from functools import partial

import pytest

from repro.difftest import kernel
from repro.difftest.compiled import check_compiled
from repro.difftest.generator import generate_program
from repro.difftest.oracle import Outcome, StreamSpec, run_oracle
from repro.difftest.runner import run_gauntlet
from repro.faults import campaign
from repro.faults.oracle import FaultOutcome, run_fault_oracle
from repro.faults.plan import FaultPlan
from repro.runtime.baseline import FastClickRuntime
from repro.runtime.deployment import GalliumMiddlebox
from repro.runtime.spec import DeploymentSpec
from repro.telemetry.schema import validate_named
from tests.difftest.test_oracle import STATEFUL
from tests.faults.test_degradation import FAULTBOX

STREAM = StreamSpec(seed=1, count=20)


def boom(*_args, **_kwargs):
    raise RuntimeError("exploded")


class TestReferenceCrash:
    def test_baseline_exception_is_not_a_compiler_crash(self, monkeypatch):
        monkeypatch.setattr(FastClickRuntime, "process_packet", boom)
        result = run_oracle(STATEFUL, STREAM)
        assert result.outcome is Outcome.REFERENCE_CRASH
        assert result.error.startswith("baseline packet #0:")
        assert "exploded" in result.error

    def test_reference_replay_exception_is_not_a_dut_crash(self, monkeypatch):
        original = GalliumMiddlebox.complete_punt

        def reference_only(self, punted):
            if self.injector is None:  # only the clean reference has none
                boom()
            return original(self, punted)

        monkeypatch.setattr(GalliumMiddlebox, "complete_punt", reference_only)
        result = run_fault_oracle(FAULTBOX, STREAM, FaultPlan())
        assert result.outcome is FaultOutcome.REFERENCE_CRASH
        assert result.error.startswith("reference replay:")

    def test_reference_crashes_are_counted_apart(self):
        stats = campaign.CampaignStats()
        assert "of the reference" not in stats.summary()
        stats.record(
            FaultPlan(), campaign.FaultOracleResult(FaultOutcome.CRASH)
        )
        stats.record(
            FaultPlan(),
            campaign.FaultOracleResult(FaultOutcome.REFERENCE_CRASH),
        )
        # ``crashes`` stays the total; the new counter is the share.
        assert (stats.crashes, stats.reference_crashes) == (2, 1)
        assert stats.failures == 2
        assert "2 crashes (1 of the reference)" in stats.summary()
        summary = stats.summary_dict()
        assert summary["outcomes"]["reference_crashes"] == 1
        assert validate_named(summary, "faults_summary") == []


class TestHarnessBug:
    DEPLOYMENT = DeploymentSpec(cache_entries=2, pool_servers=3)

    def test_oracle_bug_propagates_with_the_reproduce_line(self, monkeypatch):
        recorded = []

        class Stats(campaign.CampaignStats):
            def __init__(self):
                super().__init__()
                recorded.append(self)

        monkeypatch.setattr(campaign, "CampaignStats", Stats)
        monkeypatch.setattr(kernel, "compare", boom)
        with pytest.raises(kernel.HarnessBug) as caught:
            campaign.run_campaign(
                1, seed=0, packets=10, seed_override=3000011,
                deployment=self.DEPLOYMENT,
            )
        message = str(caught.value)
        assert "--seed-override 3000011" in message
        assert self.DEPLOYMENT.cli_flags() in message
        assert isinstance(caught.value.__cause__, RuntimeError)
        (stats,) = recorded
        assert stats.runs == stats.crashes == stats.violations == 0

    def test_gauntlet_names_its_own_reproduce_line(self, monkeypatch):
        monkeypatch.setattr(kernel, "end_state", boom)
        with pytest.raises(kernel.HarnessBug, match="--seed-override 5"):
            run_gauntlet(1, seed=0, packets=3, seed_override=5)

    def test_a_crashing_prover_is_not_an_agreeing_one(self, monkeypatch):
        """``--symbolic`` used to swallow anything ``verify_symbolic``
        raised with the recompile's refusals: the run counted as checked
        by nobody and passed."""
        import repro.verify.symbolic

        monkeypatch.setattr(repro.verify.symbolic, "verify_symbolic", boom)
        with pytest.raises(kernel.HarnessBug, match="--seed-override 5") as caught:
            run_gauntlet(1, seed=0, packets=3, seed_override=5, symbolic=True)
        assert isinstance(caught.value.__cause__, RuntimeError)

    def test_a_refused_recompile_still_has_no_symbolic_opinion(
            self, monkeypatch):
        from repro.difftest.runner import _symbolic_opinions
        from repro.partition.constraints import SwitchResources
        from repro.runtime import deployment

        starved = partial(
            deployment.compile_middlebox,
            limits=SwitchResources(transfer_bytes=0),
        )
        monkeypatch.setattr(deployment, "compile_middlebox", starved)
        assert _symbolic_opinions(STATEFUL, None) is None


class TestProvenanceUnavailable:
    def test_failed_trace_diff_says_why(self, monkeypatch):
        """Collecting provenance is best-effort, but not silent: the
        verdict stands and the report says why there is no diff."""
        import repro.telemetry.diff

        original = GalliumMiddlebox.complete_punt

        def skewed(self, punted):
            completion = original(self, punted)
            if self.injector is None and completion.emitted:
                port, packet = completion.emitted[0]
                completion.emitted[0] = (port + 7, packet)
            return completion

        monkeypatch.setattr(GalliumMiddlebox, "complete_punt", skewed)
        monkeypatch.setattr(repro.telemetry.diff, "diff_traces", boom)
        result = run_fault_oracle(
            FAULTBOX, STREAM, FaultPlan(), verify_packets=0
        )
        assert result.outcome is FaultOutcome.VIOLATION
        assert result.violation.kind == "observable"
        failure = campaign.FaultFailure(
            0, 1, STREAM, generate_program(1), FaultPlan(),
            campaign.DegradationPolicy(), 0, 0, result,
        )
        assert (
            "--- trace provenance ---\n"
            "provenance unavailable: RuntimeError: exploded"
        ) in failure.report()


class TestShrinkReplaysTheSameScenario:
    def test_predicate_and_provenance_replays_keep_the_seed(self, monkeypatch):
        """The gauntlet runs the oracle with ``deployment_seed =
        program_seed``; the shrink predicate and the re-collect-provenance
        replay used to drop it (seed 0: a different control-plane jitter
        than the failure being minimized)."""
        from repro.difftest import runner

        seeds = []

        def diverging(source, stream, **kwargs):
            seeds.append((kwargs["deployment_seed"], kwargs["provenance"]))
            return runner.OracleResult(
                Outcome.DIVERGE,
                kernel.Finding("state", None, "pinned", "gallium"),
            )

        monkeypatch.setattr(runner, "run_oracle", diverging)
        _, (failure,) = run_gauntlet(
            1, seed=0, packets=3, seed_override=77, shrink_failures=True
        )
        assert failure.minimized_program is not None
        assert len(seeds) > 3  # first run, shrink loop, provenance replay
        assert {seed for seed, _ in seeds} == {77}
        # Provenance only on the first run and on the surviving case.
        assert [on for _, on in seeds].count(True) == 2
        assert seeds[0][1] and seeds[-1][1]


class TestCompiledDeploymentStage:
    def test_skewed_compiled_deployment_is_caught(self, monkeypatch):
        """The function-level stage agrees; only the deployment stage can
        see a fast-path deployment that emits on the wrong port."""
        original = GalliumMiddlebox.process_packet

        def skewed(self, packet, ingress_port=1):
            journey = original(self, packet, ingress_port)
            if self.fast_path and self.packets_processed == 4:
                port, frame = journey.emitted[0]
                journey.emitted[0] = (port + 7, frame)
            return journey

        monkeypatch.setattr(GalliumMiddlebox, "process_packet", skewed)
        result = check_compiled(STATEFUL, StreamSpec(seed=3, count=8))
        assert result.outcome == "diverge"
        assert result.deployment_checked
        assert result.divergence.where == "deployment"
        assert (result.divergence.kind, result.divergence.packet_index) == (
            "egress", 3
        )

    @pytest.mark.parametrize("kind, skew", [
        ("clock", lambda box: box.telemetry.clock.advance(0.25)),
        ("lookups", lambda box: next(iter(
            box.switch.tables.values())).lookup((0,))),
    ])
    def test_bookkeeping_only_the_specialized_switch_skews(
            self, monkeypatch, kind, skew):
        """Journeys, state and metrics agree; the specialized deployment
        is off by a clock tick / one table lookup and stage 2 says so."""
        original = GalliumMiddlebox.process_packet

        def skewed(self, packet, ingress_port=1):
            journey = original(self, packet, ingress_port)
            if self.fast_path and self.packets_processed == 8:
                skew(self)
            return journey

        monkeypatch.setattr(GalliumMiddlebox, "process_packet", skewed)
        result = check_compiled(STATEFUL, StreamSpec(seed=3, count=8))
        assert result.outcome == "diverge"
        assert (result.divergence.where, result.divergence.kind) == (
            "deployment", kind)

    def test_stage_two_also_runs_cached_and_pooled(self, monkeypatch):
        """A skew that only shows behind a server pool is attributed to
        that role combination."""
        from repro.difftest.compiled import STAGE2_SPECS
        from repro.runtime.pool import ServerPool

        assert list(STAGE2_SPECS) == [
            "deployment", "deployment/cached", "deployment/pooled"]
        original = GalliumMiddlebox.process_packet

        def skewed(self, packet, ingress_port=1):
            journey = original(self, packet, ingress_port)
            if (self.fast_path and isinstance(self.punt_target, ServerPool)
                    and self.packets_processed == 8):
                self.telemetry.clock.advance(0.25)
            return journey

        monkeypatch.setattr(GalliumMiddlebox, "process_packet", skewed)
        result = check_compiled(STATEFUL, StreamSpec(seed=3, count=8))
        assert result.outcome == "diverge"
        assert (result.divergence.where, result.divergence.kind) == (
            "deployment/pooled", "clock")
