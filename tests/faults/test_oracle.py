"""Tests for the fault-aware oracle: clean runs, declared degradation,
and — via deliberately broken deployments — violation detection."""

import pytest

from repro.difftest.oracle import StreamSpec
from repro.faults.oracle import (
    FaultOutcome,
    VERIFY_SALT,
    run_fault_oracle,
)
from repro.faults.plan import (
    BatchFault,
    FaultPlan,
    LinkFault,
    PuntReorder,
    ServerCrash,
    StaleReplication,
    SwitchReprogram,
    WritebackOverflow,
)
from repro.partition.constraints import SwitchResources
from repro.runtime.degradation import DegradationPolicy, DropAccounting
from repro.runtime.deployment import GalliumMiddlebox
from repro.switchsim.control_plane import RetryPolicy

from tests.faults.test_degradation import FAULTBOX


def run(plan=FaultPlan(), fail_open=False, **kwargs):
    kwargs.setdefault("policy", DegradationPolicy(fail_open=fail_open))
    kwargs.setdefault("stream", StreamSpec(seed=1, count=20))
    stream = kwargs.pop("stream")
    return run_fault_oracle(FAULTBOX, stream, plan, **kwargs)


class TestCleanRun:
    def test_no_faults_is_clean(self):
        result = run()
        assert result.outcome is FaultOutcome.CLEAN
        assert result.violation is None
        assert result.degraded == 0
        assert result.delivered == result.packets_run == 20

    def test_missed_windows_are_clean(self):
        # Faults parked far beyond the stream never fire.
        plan = FaultPlan((
            ServerCrash(at_packet=500, outage=3),
            LinkFault(probability=1.0, start=500),
        ))
        result = run(plan)
        assert result.outcome is FaultOutcome.CLEAN
        assert result.injected == {}


FAULT_CASES = [
    ("link_loss", FaultPlan((LinkFault(probability=0.6),))),
    ("link_corrupt", FaultPlan((LinkFault(mode="corrupt", probability=0.6),))),
    ("return_loss", FaultPlan((
        LinkFault(direction="to_switch", probability=0.6),
    ))),
    ("batch_doomed", FaultPlan((
        BatchFault(probability=0.3, doom_probability=0.5),
    ))),
    ("batch_timeout", FaultPlan((BatchFault(mode="timeout", probability=0.7),))),
    ("overflow", FaultPlan((WritebackOverflow(probability=0.5),))),
    ("crash_keep", FaultPlan((ServerCrash(at_packet=4, outage=4,
                                          lose_state=False),))),
    ("crash_lose", FaultPlan((ServerCrash(at_packet=4, outage=4,
                                          lose_state=True),))),
    ("reprogram", FaultPlan((SwitchReprogram(at_packet=6, duration=5),))),
    ("stale", FaultPlan((StaleReplication(extra_us=2000.0, probability=1.0),))),
    ("reorder", FaultPlan((
        ServerCrash(at_packet=2, outage=6, lose_state=False),
        PuntReorder(),
    ))),
    ("total_outage", FaultPlan((
        ServerCrash(at_packet=3, outage=4, lose_state=False),
        SwitchReprogram(at_packet=8, duration=3),
    ))),
]


class TestDegradedOk:
    @pytest.mark.parametrize(
        "name,plan", FAULT_CASES, ids=[name for name, _ in FAULT_CASES]
    )
    @pytest.mark.parametrize("fail_open", [False, True],
                             ids=["closed", "open"])
    def test_no_violation_under_faults(self, name, plan, fail_open):
        result = run(plan, fail_open=fail_open, injector_seed=3)
        assert result.outcome in (
            FaultOutcome.DEGRADED_OK, FaultOutcome.CLEAN
        ), result.violation or result.error
        assert result.violation is None

    def test_faults_actually_fire(self):
        # At least the deterministic-window cases must not be CLEAN,
        # otherwise the parametrized test proves nothing.
        for name, plan in FAULT_CASES:
            if name in ("crash_keep", "reprogram", "stale"):
                result = run(plan, injector_seed=3)
                assert result.outcome is FaultOutcome.DEGRADED_OK, name

    def test_deterministic(self):
        plan = FAULT_CASES[3][1]
        first = run(plan, injector_seed=7)
        second = run(plan, injector_seed=7)
        assert first.outcome == second.outcome
        assert first.injected == second.injected
        assert first.accounting == second.accounting


class TestRejected:
    def test_partition_error_is_rejected(self):
        result = run(limits=SwitchResources(metadata_bytes=0))
        assert result.outcome is FaultOutcome.REJECTED
        assert "budget" in result.error


class TestViolationDetection:
    """Break the deployment on purpose; the oracle must notice."""

    def test_unaccounted_drop_is_caught(self, monkeypatch):
        # A deployment that degrades packets without updating the ledger
        # is losing traffic silently.
        monkeypatch.setattr(
            DropAccounting, "count", lambda self, reason: None
        )
        result = run(FaultPlan((LinkFault(probability=1.0),)))
        assert result.outcome is FaultOutcome.VIOLATION
        assert result.violation.kind == "accounting"

    def test_fail_open_tampering_is_caught(self, monkeypatch):
        # Fail-open must forward the packet *as received*; a deployment
        # that lets the half-applied rewrite leak violates policy.
        original = GalliumMiddlebox._degrade

        def leaky(self, pristine, *args, **kwargs):
            journey = original(self, pristine, *args, **kwargs)
            if journey.verdict == "send" and journey.emitted:
                port, packet = journey.emitted[0]
                journey.emitted[0] = (port + 7, packet)
            return journey

        monkeypatch.setattr(GalliumMiddlebox, "_degrade", leaky)
        result = run(
            FaultPlan((BatchFault(probability=0.0, doom_probability=1.0),)),
            fail_open=True,
        )
        assert result.outcome is FaultOutcome.VIOLATION
        assert result.violation.kind == "policy"

    def test_observable_divergence_is_caught(self, monkeypatch):
        # Perturb only the reference (injector is None there): a delivered
        # punt now disagrees between deployment and reference.
        original = GalliumMiddlebox.complete_punt

        def skewed(self, punted):
            completion = original(self, punted)
            if self.injector is None and completion.emitted:
                port, packet = completion.emitted[0]
                completion.emitted[0] = (port + 7, packet)
            return completion

        monkeypatch.setattr(GalliumMiddlebox, "complete_punt", skewed)
        result = run(verify_packets=0)
        assert result.outcome is FaultOutcome.VIOLATION
        assert result.violation.kind == "observable"

    def test_crash_in_pipeline_is_reported(self, monkeypatch):
        def boom(self, punted):
            raise RuntimeError("punt path exploded")

        monkeypatch.setattr(GalliumMiddlebox, "complete_punt", boom)
        result = run()
        assert result.outcome is FaultOutcome.CRASH
        assert "punt path exploded" in result.error


class TestPostRecoveryVerification:
    def test_verification_stream_is_distinct(self):
        stream = StreamSpec(seed=5, count=10)
        verify = StreamSpec(seed=5 ^ VERIFY_SALT, count=10)
        from repro.difftest.kernel import observe_fields

        first = [observe_fields(p) for p, _ in stream.build()]
        second = [observe_fields(p) for p, _ in verify.build()]
        assert first != second

    def test_lingering_degradation_is_caught(self, monkeypatch):
        # A deployment whose injector never clears keeps degrading after
        # recovery; the post-recovery check must flag it.
        from repro.faults.injector import FaultInjector

        monkeypatch.setattr(FaultInjector, "clear", lambda self: None)
        plan = FaultPlan((LinkFault(probability=1.0),))
        result = run(plan)
        assert result.outcome is FaultOutcome.VIOLATION
        assert result.violation.kind == "post_recovery"

    def test_retry_policy_threads_into_injector(self):
        # max_attempts=2 means a doomed batch burns exactly one retry.
        policy = DegradationPolicy(retry=RetryPolicy(max_attempts=2))
        plan = FaultPlan((BatchFault(probability=0.0, doom_probability=1.0),))
        result = run(plan, policy=policy)
        assert result.outcome is FaultOutcome.DEGRADED_OK
        assert result.accounting["by_reason"]["writeback_failed"] > 0


class TestShimBudgetRefusal:
    def test_switch_program_error_is_rejected_not_crash(self):
        """Campaign-found harness bug (500-run campaign, run #471): a
        generated program whose shim exceeded the Constraint-5 transfer
        budget raised SwitchProgramError, which the oracle misfiled as a
        CRASH instead of a legitimate refusal."""
        result = run(limits=SwitchResources(transfer_bytes=0))
        assert result.outcome is FaultOutcome.REJECTED
        assert "shim" in result.error


class TestLostReturnLeg:
    """A punt whose return frame dies after its server leg committed never
    runs the switch's post pipeline: the reference must lose exactly the
    post writes the wire lost, no more and no fewer.  Each seeded mutant
    of that rule turns the corpus reproducer into a final-state finding."""

    @staticmethod
    def replay(name):
        from repro.faults.corpus import load_corpus, replay_entry

        (entry,) = [e for e in load_corpus() if e.name == name]
        return replay_entry(entry)

    @pytest.mark.parametrize("name", [
        "lost_return_leg_post_write_823",
        "lost_return_leg_post_write_956",
    ])
    def test_post_run_for_a_lost_leg_is_caught(self, monkeypatch, name):
        import repro.faults.oracle as oracle

        monkeypatch.setattr(oracle, "RETURN_LEG_REASONS", frozenset())
        result = self.replay(name)
        assert result.outcome is FaultOutcome.VIOLATION
        assert result.violation.kind == "state"

    def test_post_skipped_for_a_delivered_packet_is_caught(self, monkeypatch):
        original = GalliumMiddlebox.complete_punt

        def forgetful(self, punted):
            # The reference (no injector) delivers the packet but keeps
            # none of its post pipeline's register writes.
            if self.injector is not None:
                return original(self, punted)
            completion, served = self.server_leg(punted)
            registers = self.switch.registers
            before = {name: reg.value for name, reg in registers.items()}
            (
                completion.verdict,
                completion.emitted,
                completion.post_instructions,
            ) = self.state_policy.release(served)
            for name, value in before.items():
                registers[name].value = value
            return completion

        monkeypatch.setattr(GalliumMiddlebox, "complete_punt", forgetful)
        result = self.replay("lost_return_leg_post_write_956")
        assert result.outcome is FaultOutcome.VIOLATION
        assert result.violation.kind == "state"
