"""Active-standby switch failover (the robustness story §5 leaves out).

The :class:`ActiveStandby` redundancy role runs the paper's deployment
model on a *pair* of programmable switches
(:class:`FailoverDeployment` is the one-role shorthand):

* the **primary** carries traffic exactly like the single-switch
  :class:`~repro.runtime.deployment.GalliumMiddlebox`;
* the **standby** is programmed with the same P4 artifact at install
  time and kept warm by replaying every *committed* control-plane batch
  (replays ride a server→standby replication channel and can be lost —
  the ``standby_stale`` fault — or refused for capacity skew; both are
  repaired by the promotion resync);
* switch-authoritative data-plane registers are continuously
  **checkpointed** to the server (piggybacked on the punt channel, one
  checkpoint per completed packet), because a crashed primary cannot be
  read back the way a merely-reprogramming switch can.

When the primary crashes — at a packet boundary (``switch_crash``) or
mid-batch on the control-plane connection (``crash_batch``, resolved
transactionally by the undo log first) — the deployment rides the
existing fallback machinery for the *promotion window*: punted packets
run entirely on the server, with register state recovered from the
checkpoint.  At the window's end the standby is promoted: it becomes
``self.switch``, receives a bulk resync from the server's authoritative
copy (the inverse of ``crash_resync``), and the effect log records
``("promote",)`` so the fault oracle can mirror the transition.

The standby shares the deployment's telemetry bundle: batch replays are
modeled as synchronous replication (they advance the simulated clock and
land in the shared control-plane metrics), which keeps promotion free —
the promoted switch is already wired to the deployment's clock, metrics,
and tracer.
"""

from __future__ import annotations

from repro.runtime import state_image
from repro.runtime.deployment import GalliumMiddlebox, Role
from repro.switchsim.control_plane import UpdateBatchError
from repro.telemetry.health import HealthMonitor

#: XOR'd into the deployment seed to derive the standby's jitter seed.
_STANDBY_SALT = 0x57B1


class ActiveStandby(Role):
    """Switch redundancy: an active switch plus a warm standby.

    A primary crash is *noticed* by a heartbeat-driven φ-accrual detector
    (:class:`~repro.telemetry.health.HealthMonitor`): the promotion
    window lasts until the detector actually declares the primary dead,
    so detection latency is a measured metric
    (``health.detection_latency_us``).
    """

    def bind(self, box: GalliumMiddlebox) -> None:
        super().bind(box)
        metrics = box.telemetry.metrics
        self.health = HealthMonitor(metrics)
        self.standby = box.build_switch(box.seed ^ _STANDBY_SALT)
        #: the crashed primary, kept for post-mortem introspection
        self.failed_primary = None
        self.promoted = False
        #: the registers the switch holds the authority for, and their
        #: image as of the last completed packet
        self._authoritative = state_image.authoritative(box.plan)
        self._checkpoint: state_image.Image = {}
        self._c_promotions = metrics.counter("failover.promotions")
        self._c_replayed = metrics.counter(
            "failover.standby_batches_replayed"
        )
        self._c_replay_dropped = metrics.counter(
            "failover.standby_replay_dropped"
        )
        self._c_window_packets = metrics.counter(
            "failover.promotion_window_packets"
        )

    def sync_standby(self) -> None:
        # Keep the warm standby bit-identical — and complete, whatever
        # the active switch's state policy bounds — after any bulk resync
        # (install time; there is no reprogram resync in failover plans).
        if self.standby is not None:
            state_image.to_switch(self.standby, self.box.plan, self.box.state)

    # -- per packet ------------------------------------------------------------

    def before_packet(self) -> None:
        """Synthesize the control-channel heartbeats due by now (no-op
        while the primary is crashed)."""
        self.health.beat_until(self.box.telemetry.clock.now_us)

    def after_packet(self) -> None:
        # Checkpoint the active switch's data-plane registers after every
        # completed packet.  A mid-batch crash still counts: the data
        # plane keeps forwarding until the supervisor declares the
        # primary dead at the next packet boundary.
        if not self.box._fallback_active:
            state_image.from_switch(
                self.box.switch, self._authoritative, self._checkpoint
            )

    # -- batch replication -----------------------------------------------------

    def apply_batch(self, updates):
        try:
            batch = self.box.switch.control_plane.apply_batch(updates)
        except UpdateBatchError:
            # Rolled back byte-exactly (possibly because the primary's
            # control-plane connection just died).  Consume a pending
            # mid-batch crash so the promotion window opens at the next
            # packet; nothing is replicated — the server rolls back too.
            self._take_primary_crash()
            raise
        self._take_primary_crash()
        self._replay_to_standby(updates)
        return batch

    def _take_primary_crash(self) -> None:
        box = self.box
        if box.faults_armed and box.injector.take_batch_crash():
            if box._tracer is not None:
                box._tracer.record(
                    "primary_crash", component="failover", during="batch"
                )

    def _replay_to_standby(self, updates) -> None:
        """Replicate one committed batch to the warm standby."""
        box = self.box
        if self.standby is None or not updates:
            return
        if box.faults_armed and box.injector.standby_replay_dropped():
            self._c_replay_dropped.inc()
            if box._tracer is not None:
                box._tracer.record(
                    "standby_replay_dropped", component="failover"
                )
            return
        try:
            self.standby.control_plane.apply_batch(list(updates))
        except UpdateBatchError:
            # Capacity skew from earlier dropped replays can make a
            # replay unappliable; treat it as dropped — the promotion
            # resync rebuilds the standby from scratch anyway.
            self._c_replay_dropped.inc()
            return
        self._c_replayed.inc()

    # -- promotion window ------------------------------------------------------

    def fallback_packet(self, opening: bool) -> None:
        box = self.box
        self._c_window_packets.inc()
        if not opening:
            return
        # The primary is gone: recover its data-plane registers from the
        # continuous checkpoint (a dead switch cannot be pulled).
        state_image.to_store(box.state, self._authoritative, self._checkpoint)
        # Ground truth for the detector's latency measurement; the
        # detector itself only learns of it through missing beats.
        self.health.mark_crashed(box.telemetry.clock.now_us)
        if box._tracer is not None:
            box._tracer.record("failover_window_open", component="failover")

    def may_exit_fallback(self) -> bool:
        # Promotion waits for the detector to actually declare the
        # primary dead: the window extends past the injected outage by the
        # measured detection latency.
        return self.health.crash_detected(self.box.telemetry.clock.now_us)

    def close_window(self) -> str:
        box = self.box
        self.promote()
        box.sync_all_state()
        # The promoted standby takes over the heartbeat stream.
        self.health.revive(box.telemetry.clock.now_us)
        if box._tracer is not None:
            box._tracer.record(
                "failover_promote", component="failover",
                replays=self._c_replayed.value,
                dropped=self._c_replay_dropped.value,
            )
        return "promote"

    def before_recover(self) -> None:
        """If the stream ended inside an undetected promotion window,
        force the detection (booked separately as
        ``health.forced_detections``) so the promotion still happens and
        post-recovery equivalence can be checked."""
        if self.box._fallback_active:
            self.health.force_detect(self.box.telemetry.clock.now_us)

    def promote(self) -> None:
        """The standby becomes the active switch."""
        if self.promoted:
            return
        box = self.box
        self.promoted = True
        self._c_promotions.inc()
        self.failed_primary = box.switch
        box.switch = self.standby
        self.standby = None
        # The promoted switch inherits the deployment's control-plane
        # policy and fault exposure; the checkpoint now tracks it.
        box.arm_switch(box.switch)
        state_image.from_switch(box.switch, self._authoritative, self._checkpoint)


class FailoverDeployment(GalliumMiddlebox):
    """Gallium deployment over an active-standby switch pair."""

    def __init__(self, plan, program, **kwargs):
        super().__init__(plan, program, redundancy=ActiveStandby(), **kwargs)
