"""Fault-scenario reproducer corpus.

Mirrors the difftest corpus: every runtime bug the fault campaign finds is
committed as one JSON file under ``tests/faults_corpus/`` capturing the
full scenario — program source, packet stream, fault plan, degradation
policy, and the injector/deployment seeds — plus the expected outcome
once fixed.  The corpus regression test replays each entry through the
fault oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import ClassVar

from repro.difftest import corpus as base
from repro.difftest.corpus import save_entry  # noqa: F401 - one definition
from repro.faults.oracle import (
    FaultOracleResult,
    FaultOutcome,
    run_fault_oracle,
)
from repro.faults.plan import FaultPlan
from repro.runtime.degradation import DegradationPolicy
from repro.runtime.spec import DeploymentSpec

#: Default corpus location (checked into the repository).
CORPUS_DIR = Path(__file__).resolve().parents[3] / "tests" / "faults_corpus"


@dataclass(kw_only=True)
class FaultCorpusEntry(base.ReproducerEntry):
    """One fault-scenario reproducer."""

    DIRECTORY: ClassVar[Path] = CORPUS_DIR
    NESTED: ClassVar[dict] = {
        **base.ReproducerEntry.NESTED,
        "fault_plan": FaultPlan.from_dict,
        "policy": DegradationPolicy.from_dict,
        "deployment": DeploymentSpec.from_dict,
    }

    expect: str = FaultOutcome.DEGRADED_OK.value
    fault_plan: FaultPlan
    policy: DegradationPolicy = field(default_factory=DegradationPolicy)
    injector_seed: int = 0
    deployment_seed: int = 0
    #: the deployment flavour the scenario ran (and replays) on
    deployment: DeploymentSpec = DeploymentSpec()

    def own_dict(self) -> dict:
        return {
            "deployment": self.deployment.to_dict(),
            "fault_plan": self.fault_plan.to_dict(),
            "policy": self.policy.to_dict(),
            "injector_seed": self.injector_seed,
            "deployment_seed": self.deployment_seed,
        }


load_corpus = partial(base.load_corpus, entry_type=FaultCorpusEntry)


def replay_entry(entry: FaultCorpusEntry) -> FaultOracleResult:
    """Run one corpus entry through the fault oracle."""
    return run_fault_oracle(
        entry.source,
        entry.stream,
        entry.fault_plan,
        policy=entry.policy,
        injector_seed=entry.injector_seed,
        deployment_seed=entry.deployment_seed,
        deployment=entry.deployment,
    )
