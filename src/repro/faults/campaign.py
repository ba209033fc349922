"""The fault campaign behind ``python -m repro faults``.

Each run derives — from one master seed — a generated middlebox program
(the difftest generator), a packet stream, a random fault schedule, a
random degradation policy, and the injector/deployment seeds, then drives
the deployment through the fault-aware oracle.  Everything is a pure
function of the master seed, so every campaign scenario is its own
reproducer: failures print a one-line ``--seed-override`` reproduce
command exactly like the difftest gauntlet.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.difftest import kernel
from repro.difftest.generator import GenProgram, generate_program
from repro.difftest.kernel import STREAM_SALT
from repro.difftest.oracle import StreamSpec
from repro.faults.oracle import (
    FaultOracleResult,
    FaultOutcome,
    run_fault_oracle,
)
from repro.faults.plan import (
    ALL_FAULT_KINDS,
    FaultPlan,
    generate_plan,
    window_length,
)
from repro.faults.shrink import shrink_fault_case
from repro.runtime.degradation import DegradationPolicy
from repro.runtime.spec import DeploymentSpec
from repro.switchsim.control_plane import RetryPolicy

#: XOR'd into the program seed to derive the fault-plan seed.
_PLAN_SALT = 0xFA111
#: XOR'd into the program seed to derive the injector seed.
_INJECT_SALT = 0x1D_E7EC
#: XOR'd into the program seed to derive the deployment (jitter) seed.
_DEPLOY_SALT = 0xD1CE5


def seeds_for_program(program_seed: int) -> tuple:
    """(program_seed, stream_seed, plan_seed, injector_seed, deploy_seed)
    — every per-scenario seed is a pure function of the program seed, so a
    ``--seed-override`` reproduce regenerates the identical scenario."""
    return (
        program_seed,
        program_seed ^ STREAM_SALT,
        program_seed ^ _PLAN_SALT,
        program_seed ^ _INJECT_SALT,
        program_seed ^ _DEPLOY_SALT,
    )


def random_policy(rng: random.Random) -> DegradationPolicy:
    """Draw a random (but sane) degradation policy for one scenario."""
    return DegradationPolicy(
        fail_open=rng.random() < 0.5,
        punt_queue_depth=rng.choice([2, 4, 8]),
        retry=RetryPolicy(max_attempts=rng.choice([3, 4, 5])),
    )


@dataclass
class FaultFailure:
    """One campaign scenario that breached a guarantee."""

    index: int
    program_seed: int
    stream: StreamSpec
    program: GenProgram
    fault_plan: FaultPlan
    policy: DegradationPolicy
    injector_seed: int
    deployment_seed: int
    result: FaultOracleResult
    minimized_program: Optional[GenProgram] = None
    minimized_stream: Optional[StreamSpec] = None
    minimized_plan: Optional[FaultPlan] = None

    @property
    def deployment(self) -> DeploymentSpec:
        return self.result.deployment

    @property
    def _plan(self) -> FaultPlan:
        return (
            self.minimized_plan
            if self.minimized_plan is not None else self.fault_plan
        )

    def report(self) -> str:
        verdict_rows = []
        if self.result.injected:
            verdict_rows.append(("injected", ", ".join(
                f"{label}={count}"
                for label, count in sorted(self.result.injected.items())
            )))
        return kernel.render_report(
            "fault-campaign", self, self.result.outcome.value,
            _reproduce(self.deployment)(self.program_seed),
            self.result.violation,
            scenario_rows=[
                ("fault plan", self._plan.describe()
                 + (" (minimized)" if self.minimized_plan is not None
                    else "")),
                ("policy", f"fail_open={self.policy.fail_open}"
                           f" queue={self.policy.punt_queue_depth}"
                           f" retries={self.policy.retry.max_attempts}"),
            ],
            verdict_rows=verdict_rows,
        )


def _reproduce(deployment: DeploymentSpec) -> Callable[[int], str]:
    return kernel.cli_reproduce("faults", deployment.cli_flags())


@dataclass
class CampaignStats:
    runs: int = 0
    clean: int = 0
    degraded_ok: int = 0
    violations: int = 0
    #: scenarios in which the compiler, the deployment under test *or*
    #: the reference raised
    crashes: int = 0
    #: of those, the ones where it was the reference
    reference_crashes: int = 0
    rejected: int = 0
    #: scenarios per fault class that actually injected something
    coverage: Dict[str, int] = field(
        default_factory=lambda: {kind: 0 for kind in ALL_FAULT_KINDS}
    )
    #: total injected-fault events by label, campaign-wide
    injected: Dict[str, int] = field(default_factory=dict)
    degraded_packets: int = 0
    delivered_packets: int = 0
    elapsed_s: float = 0.0
    #: of that, inside ``kernel.compile_step``
    compile_s: float = 0.0
    #: scenarios whose plan contained the kind (regardless of outcome)
    scenarios_by_kind: Dict[str, int] = field(default_factory=dict)
    #: control-plane batches rolled back, campaign-wide
    rollbacks: int = 0
    #: scenarios per fault kind that saw at least one rollback
    rollback_scenarios_by_kind: Dict[str, int] = field(default_factory=dict)
    #: fault-window lengths (packets) drawn per kind, campaign-wide
    window_lengths: Dict[str, List[int]] = field(default_factory=dict)
    #: flow-state migrations run by pooled deployments, campaign-wide
    pool_migrations: int = 0

    def record(self, plan: FaultPlan, result: FaultOracleResult) -> None:
        self.runs += 1
        self.rollbacks += result.rollbacks
        self.pool_migrations += result.migrations
        for kind in plan.kinds():
            self.scenarios_by_kind[kind] = (
                self.scenarios_by_kind.get(kind, 0) + 1
            )
            if result.rollbacks:
                self.rollback_scenarios_by_kind[kind] = (
                    self.rollback_scenarios_by_kind.get(kind, 0) + 1
                )
        for spec in plan.faults:
            length = window_length(spec)
            if length is not None:
                self.window_lengths.setdefault(spec.kind, []).append(length)
        if result.outcome is FaultOutcome.CLEAN:
            self.clean += 1
        elif result.outcome is FaultOutcome.DEGRADED_OK:
            self.degraded_ok += 1
        elif result.outcome is FaultOutcome.VIOLATION:
            self.violations += 1
        elif result.outcome is FaultOutcome.CRASH:
            self.crashes += 1
        elif result.outcome is FaultOutcome.REFERENCE_CRASH:
            self.crashes += 1
            self.reference_crashes += 1
        else:
            self.rejected += 1
        if result.outcome in (FaultOutcome.CLEAN, FaultOutcome.DEGRADED_OK):
            self.degraded_packets += result.degraded
            self.delivered_packets += result.delivered
        if result.outcome is FaultOutcome.DEGRADED_OK:
            for kind in plan.kinds():
                self.coverage[kind] = self.coverage.get(kind, 0) + 1
        for label, count in result.injected.items():
            self.injected[label] = self.injected.get(label, 0) + count

    @property
    def failures(self) -> int:
        return self.violations + self.crashes

    def summary_dict(self) -> dict:
        """Deterministic cross-scenario rollup for ``--summary-json``:
        outcome counts, per-kind scenario coverage, the distribution of
        fault-window lengths drawn per kind (promotion windows, outages,
        reprogram durations), and rollback rates by fault kind."""
        windows = {
            kind: {
                "count": len(lengths),
                "min": min(lengths),
                "max": max(lengths),
                "mean": round(sum(lengths) / len(lengths), 3),
                "total_packets": sum(lengths),
            }
            for kind, lengths in sorted(self.window_lengths.items())
        }
        def _member_counts(prefix: str) -> Dict[str, int]:
            counts: Dict[str, int] = {}
            for label, count in self.injected.items():
                if label.startswith(prefix + "[") and label.endswith("]"):
                    member = label[len(prefix) + 1:-1]
                    counts[member] = counts.get(member, 0) + count
            return dict(sorted(counts.items()))

        pool = {
            "migrations": self.pool_migrations,
            "member_crashes": _member_counts("pool_member_crash"),
            "member_drains": _member_counts("pool_member_drain"),
        }
        rollback_rates = {
            kind: {
                "scenarios": scenarios,
                "with_rollbacks": self.rollback_scenarios_by_kind.get(
                    kind, 0
                ),
                "rate": round(
                    self.rollback_scenarios_by_kind.get(kind, 0) / scenarios,
                    3,
                ),
            }
            for kind, scenarios in sorted(self.scenarios_by_kind.items())
        }
        return {
            "runs": self.runs,
            "outcomes": {
                "clean": self.clean,
                "degraded_ok": self.degraded_ok,
                "violations": self.violations,
                "crashes": self.crashes,
                "reference_crashes": self.reference_crashes,
                "rejected": self.rejected,
            },
            "packets": {
                "delivered": self.delivered_packets,
                "degraded": self.degraded_packets,
            },
            "coverage": dict(sorted(self.coverage.items())),
            "injected": dict(sorted(self.injected.items())),
            "scenarios_by_kind": dict(sorted(self.scenarios_by_kind.items())),
            "promotion_windows": windows,
            "pool": pool,
            "rollbacks": {
                "total": self.rollbacks,
                "by_kind": rollback_rates,
            },
            "elapsed_s": round(self.elapsed_s, 3),
            "compile_s": round(self.compile_s, 3),
        }

    def summary(self) -> str:
        covered = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.coverage.items())
        )
        return (
            f"{self.runs} scenarios: {self.degraded_ok} degraded-ok,"
            f" {self.clean} clean, {self.violations} violations,"
            f" {self.crashes} crashes"
            + (f" ({self.reference_crashes} of the reference)"
               if self.reference_crashes else "")
            + f", {self.rejected} rejected in"
            f" {kernel.Elapsed(self.elapsed_s, self.compile_s)}\n"
            f"packets: {self.delivered_packets} delivered with full"
            f" semantics, {self.degraded_packets} degraded (all declared)\n"
            f"coverage: {covered}"
        )


def run_campaign(
    runs: int,
    seed: int,
    packets: int = 25,
    max_failures: int = 10,
    time_budget_s: Optional[float] = None,
    seed_override: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
    shrink_failures: bool = False,
    deployment: DeploymentSpec = DeploymentSpec(),
) -> Tuple[CampaignStats, List[FaultFailure]]:
    """Run the fault campaign; returns ``(stats, failures)``.

    ``deployment`` picks the flavour every scenario runs on, and with it
    the fault plans drawn: a bounded cache keeps the base plans
    (scenarios whose programs cannot run in cache mode count as
    rejected); an active-standby pair draws failover-specific plans
    (primary crashes, stale standby replays); a server pool (≥2 members
    to be interesting) draws pool-specific ones (member crashes and
    drains with live flow-state migration).  The three are independent
    deployment roles and combine freely: a pool behind an active-standby
    pair draws both roles' kinds (:func:`~repro.faults.plan.generate_plan`).
    ``shrink_failures`` delta-debugs each failure — fault plan, program,
    and stream — before it is reported or written to the corpus.
    """
    stats = CampaignStats()

    def scenario(index: int, program_seed: int) -> Optional[FaultFailure]:
        _, stream_seed, plan_seed, injector_seed, deploy_seed = (
            seeds_for_program(program_seed)
        )
        program = generate_program(program_seed)
        stream = StreamSpec(seed=stream_seed, count=packets)
        scenario_rng = random.Random(plan_seed)
        fault_plan = generate_plan(scenario_rng, packets, deployment)
        policy = random_policy(scenario_rng)

        def run(candidate: GenProgram, candidate_stream: StreamSpec,
                candidate_plan: FaultPlan,
                provenance: bool = True) -> FaultOracleResult:
            return run_fault_oracle(
                candidate.source(), candidate_stream, candidate_plan,
                policy=policy, injector_seed=injector_seed,
                deployment_seed=deploy_seed, deployment=deployment,
                provenance=provenance,
            )

        result = run(program, stream, fault_plan)
        stats.record(fault_plan, result)
        if result.outcome not in _FAILING:
            return None
        failure = FaultFailure(
            index, program_seed, stream, program, fault_plan, policy,
            injector_seed, deploy_seed, result,
        )
        if shrink_failures:
            minimized = kernel.minimize(
                shrink_fault_case, (program, stream, fault_plan), result,
                run, _signature,
            )
            if minimized is not None:
                (
                    failure.minimized_program,
                    failure.minimized_stream,
                    failure.minimized_plan,
                ) = minimized
        return failure

    failures, (stats.elapsed_s, stats.compile_s) = kernel.drive(
        runs, seed, scenario, _reproduce(deployment),
        seed_override=seed_override, time_budget_s=time_budget_s,
        max_failures=max_failures, log=log,
    )
    return stats, failures


_FAILING = (
    FaultOutcome.VIOLATION, FaultOutcome.CRASH, FaultOutcome.REFERENCE_CRASH,
)


def _signature(result: FaultOracleResult) -> tuple:
    """What a shrunk scenario must preserve: the outcome class and, for
    violations, the violation kind."""
    return (
        result.outcome, result.violation.kind if result.violation else None
    )
