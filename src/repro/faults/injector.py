"""Deterministic, seed-driven execution of a :class:`FaultPlan`.

The injector is the only source of randomness in a fault run: given the
same plan, seed, and packet sequence it makes the identical decisions, so
every campaign scenario is a reproducer.  The deployment queries it at
well-defined points (punt emission, batch attempts, window checks) and the
injector answers from one seeded RNG, counting everything it injects.

Transient batch faults compose soundly with the retry machinery because
the control plane is transactional: every attempt is journaled in an undo
log, so an exhausted "timeout" (updates landed, confirmation lost) rolls
*forward* from the log's high-water mark and an exhausted "fail" or
"crash" rolls the switch back byte-exactly.  Timeouts may therefore fire
on any attempt, including the final one — the historical restriction that
spared the last permitted attempt is gone.  "Doomed" batches — which
exhaust every retry — still use the veto-style "fail" so the abort is
clean.

Failover plans add three queries: :meth:`switch_down` also honours
``switch_crash`` windows and the dynamic promotion window a mid-batch
crash opens, :meth:`batch_fault` can answer ``"crash"`` (sticky for the
rest of that batch: the control-plane connection is gone), and
:meth:`standby_replay_dropped` decides whether a committed batch's replay
to the warm standby is lost.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.faults.plan import POOL_FAULT_KINDS, FaultPlan


class FaultInjector:
    """Executes one fault plan deterministically under a seed."""

    def __init__(self, plan: FaultPlan, seed: int = 0):
        self.plan = plan
        self.seed = seed
        self._rng = random.Random(seed)
        self._index = 0
        self._cleared = False
        self._batch_doomed = False
        self._restart_loses_state = False
        #: a mid-batch crash fired for the current batch (sticky: every
        #: remaining attempt of that batch sees the dead connection)
        self._batch_crash_active = False
        #: a fired crash awaiting consumption by the failover deployment
        self._batch_crash_pending = False
        #: promotion window the pending crash will open once consumed
        self._batch_crash_window = 0
        #: each failover plan crashes the primary at most once
        self._primary_crashed = False
        #: [start, stop) switch outage opened by a consumed mid-batch crash
        self._dynamic_switch_outage: Optional[tuple] = None
        #: injected-fault counters by label (for campaign coverage stats)
        self.injected: Dict[str, int] = {}

    def _count(self, label: str) -> None:
        self.injected[label] = self.injected.get(label, 0) + 1

    def note(self, label: str) -> None:
        """Public counting hook for deployment-driven fault events.

        Pool membership changes fire at window *edges* the deployment
        detects, not at an injector query, so the deployment reports them
        here (labels like ``pool_member_crash[srv1]``) and campaign
        coverage sees per-member counts for free.
        """
        self._count(label)

    # -- per-packet bookkeeping ------------------------------------------------

    def begin_packet(self, index: int) -> None:
        self._index = index
        self._batch_doomed = False
        self._batch_crash_active = False

    def clear(self) -> None:
        """All faults off (recovery phase): every query is benign."""
        self._cleared = True

    # -- outage windows ----------------------------------------------------------

    def server_down(self, index: int) -> bool:
        if self._cleared:
            return False
        for spec in self.plan.by_kind("crash"):
            if spec.active(index):
                if spec.lose_state:
                    self._restart_loses_state = True
                return True
        return False

    def pool_member_down(self, member: str, index: int) -> bool:
        """Whether pool member ``member`` is down (crash) or quiescing
        (drain) at packet ``index``; False once faults are cleared so
        :meth:`~repro.runtime.pool.PooledDeployment.recover` completes
        any pending migration."""
        if self._cleared:
            return False
        return any(
            spec.member == member and spec.active(index)
            for kind in POOL_FAULT_KINDS
            for spec in self.plan.by_kind(kind)
        )

    def take_restart_state_loss(self) -> bool:
        """Whether the restart that just happened lost server state
        (consumed: the next crash window re-arms it)."""
        lost = self._restart_loses_state
        self._restart_loses_state = False
        return lost

    def switch_down(self, index: int) -> bool:
        if self._cleared:
            return False
        if self._dynamic_switch_outage is not None:
            lo, hi = self._dynamic_switch_outage
            if lo <= index < hi:
                return True
        return any(
            spec.active(index)
            for kind in ("reprogram", "switch_crash")
            for spec in self.plan.by_kind(kind)
        )

    def take_batch_crash(self) -> bool:
        """Consume a mid-batch primary crash (the failover deployment's
        hook): opens the promotion-window switch outage starting at the
        *next* packet — the data plane keeps forwarding until the
        supervisor declares the primary dead at the packet boundary."""
        if not self._batch_crash_pending:
            return False
        self._batch_crash_pending = False
        self._dynamic_switch_outage = (
            self._index + 1, self._index + 1 + self._batch_crash_window,
        )
        return True

    # -- punt-path link faults ---------------------------------------------------

    def punt_frame_fate(self) -> Optional[str]:
        """Fate of the switch→server frame for the current packet."""
        return self._frame_fate("to_server", "punt")

    def return_frame_fate(self) -> Optional[str]:
        """Fate of the server→switch frame for the current packet."""
        return self._frame_fate("to_switch", "return")

    def _frame_fate(self, direction: str, label: str) -> Optional[str]:
        if self._cleared:
            return None
        for spec in self.plan.by_kind("link"):
            if spec.direction != direction or not spec.active(self._index):
                continue
            if self._rng.random() < spec.probability:
                fate = (
                    f"{label}_lost" if spec.mode == "loss"
                    else f"{label}_corrupted"
                )
                self._count(fate)
                return fate
        return None

    # -- control-plane batch faults ---------------------------------------------

    def batch_fault(self, attempt: int) -> Optional[str]:
        """Fault decision for one batch attempt (the control-plane hook).

        ``attempt`` is 1-based.  Attempt 1 additionally decides whether
        the whole batch is doomed (fails every retry) or overflows.
        """
        if self._cleared:
            return None
        if self._batch_crash_active:
            # The control-plane connection died earlier in this batch;
            # every further attempt sees the same dead connection.
            return "crash"
        if attempt == 1:
            self._batch_doomed = False
            for spec in self.plan.by_kind("crash_batch"):
                if (
                    not self._primary_crashed
                    and spec.active(self._index)
                    and self._rng.random() < spec.probability
                ):
                    self._primary_crashed = True
                    self._batch_crash_active = True
                    self._batch_crash_pending = True
                    self._batch_crash_window = spec.promotion_window
                    self._count("crash_during_batch")
                    return "crash"
            for spec in self.plan.by_kind("overflow"):
                if spec.active(self._index) and (
                    self._rng.random() < spec.probability
                ):
                    self._count("writeback_overflow")
                    return "overflow"
            for spec in self.plan.by_kind("batch"):
                if spec.active(self._index) and spec.doom_probability and (
                    self._rng.random() < spec.doom_probability
                ):
                    self._batch_doomed = True
        if self._batch_doomed:
            self._count("batch_doomed_attempt")
            return "fail"
        for spec in self.plan.by_kind("batch"):
            if not spec.active(self._index):
                continue
            if self._rng.random() < spec.probability:
                self._count(f"batch_{spec.mode}")
                return spec.mode
        return None

    # -- standby replication (failover deployments) -------------------------------

    def standby_replay_dropped(self) -> bool:
        """Whether the current committed batch's replay to the warm
        standby is lost on the replication path."""
        if self._cleared:
            return False
        for spec in self.plan.by_kind("standby_stale"):
            if spec.active(self._index) and (
                self._rng.random() < spec.probability
            ):
                self._count("standby_replay_dropped")
                return True
        return False

    # -- replication lag ----------------------------------------------------------

    def stale_extra_us(self) -> float:
        if self._cleared:
            return 0.0
        total = 0.0
        for spec in self.plan.by_kind("stale"):
            if spec.active(self._index) and (
                self._rng.random() < spec.probability
            ):
                self._count("stale_replication")
                total += spec.extra_us
        return total

    # -- queue drain order --------------------------------------------------------

    def drain_order(self, count: int) -> List[int]:
        # Deliberately NOT gated on clear(): reordering is a property of
        # frames already sitting in the queue when recovery starts, so the
        # final drain shuffles even when it happens in the recovery phase.
        order = list(range(count))
        if count < 2:
            return order
        if self.plan.by_kind("reorder"):
            self._rng.shuffle(order)
            self._count("drain_reordered")
        return order
