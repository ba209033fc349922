"""Fault injection and graceful-degradation verification.

The paper's deployment model (§5) assumes a healthy testbed: every punt
reaches the server, every update batch commits, nothing restarts.  This
package stress-tests the parts the paper takes for granted:

* :mod:`repro.faults.plan` — a declarative, JSON-serializable DSL of fault
  schedules (link loss/corruption on the punt path, control-plane batch
  failures and timeouts, write-back overflow, server crash + state resync,
  switch reprogramming windows, stale replication, punt reordering),
* :mod:`repro.faults.injector` — deterministic seed-driven execution of a
  plan (same plan + seed → identical faults, so every run reproduces),
* :mod:`repro.faults.oracle` — the fault-aware policy over the oracle
  kernel (:mod:`repro.difftest.kernel`): replays the deployment's effect
  log on a clean reference and proves equivalence-or-declared-degradation,
  never silent divergence,
* :mod:`repro.faults.campaign` — the randomized campaign runner behind
  ``python -m repro faults`` / ``make faults-smoke``,
* :mod:`repro.faults.shrink` — delta-debugging of campaign failures over
  all three axes (fault plan, program, packet stream),
* :mod:`repro.faults.corpus` — committed reproducers for bugs the
  campaign found, replayed as regression tests,
* :mod:`repro.faults.timeline` — discrete-event recovery-time model used
  by the eval's fault-recovery experiment.
"""

from repro.faults.campaign import (
    CampaignStats,
    FaultFailure,
    run_campaign,
)
from repro.faults.injector import FaultInjector
from repro.faults.oracle import (
    FaultOracleResult,
    FaultOutcome,
    FaultScenario,
    run_fault_oracle,
)
from repro.faults.shrink import shrink_fault_case, shrink_plan
from repro.faults.plan import (
    ALL_FAULT_KINDS,
    BatchFault,
    CrashDuringBatch,
    FaultPlan,
    LinkFault,
    PrimarySwitchCrash,
    PuntReorder,
    ServerCrash,
    StaleReplication,
    StandbyStaleReplay,
    SwitchReprogram,
    WritebackOverflow,
    generate_plan,
)

__all__ = [
    "ALL_FAULT_KINDS",
    "BatchFault",
    "CampaignStats",
    "CrashDuringBatch",
    "FaultFailure",
    "FaultInjector",
    "FaultOracleResult",
    "FaultOutcome",
    "FaultPlan",
    "FaultScenario",
    "LinkFault",
    "PrimarySwitchCrash",
    "PuntReorder",
    "ServerCrash",
    "StaleReplication",
    "StandbyStaleReplay",
    "SwitchReprogram",
    "WritebackOverflow",
    "generate_plan",
    "run_campaign",
    "run_fault_oracle",
    "shrink_fault_case",
    "shrink_plan",
]
