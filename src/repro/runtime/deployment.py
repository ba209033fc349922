"""The deployed Gallium middlebox: programmable switch + middlebox server.

``compile_middlebox`` runs the full compiler pipeline (parse → lower →
partition → synthesize shims → build the switch program), and
:class:`GalliumMiddlebox` executes it:

1. packet arrives at the switch, runs the pre-processing pipeline,
2. fast path: verdict on the switch, the server is never involved,
3. slow path: shim-encapsulated punt to the server, the non-offloaded
   partition runs, state updates replicate back through the control plane
   (atomic write-back protocol), and — output commit — the packet is held
   until the updates are visible on the switch,
4. the packet returns to the switch, which applies the server's verdict or
   runs the post-processing pipeline.

Roles
-----
That path exists once.  What a deployment *flavour* changes is decided by
three role objects the one class holds, each with a default here that
gives the paper's base deployment:

* **switch state policy** — :class:`FullReplication` | bounded cache
  (:class:`repro.runtime.cache.BoundedCache`): what a punt carries, what
  the server runs for it, how its journal becomes an update batch, the
  shape of a bulk resync;
* **switch redundancy** — :class:`SingleSwitch` | active-standby
  (:class:`repro.runtime.failover.ActiveStandby`): the commit wrapper,
  the fallback window's open/close, the standby's copy;
* **punt target** — :class:`SingleServer` | HRW pool
  (:class:`repro.runtime.pool.ServerPool`): which runtime serves a punt,
  when its destination counts as down, membership windows.

Any combination of the three composes; none knows the others exist.

Fault tolerance
---------------
The deployment optionally runs under a :class:`DegradationPolicy` with a
fault injector (see :mod:`repro.faults`).  In that mode it adds: a bounded
punt queue for server outages, fail-open/fail-closed handling of
unsalvageable packets, retried update batches with server-side rollback
when a batch cannot commit (output commit forbids releasing the packet),
server crash recovery that resynchronizes authoritative state from the
switch, and a server-only fallback mode while the switch reprograms.
Every degradation is recorded in :class:`DropAccounting` and in the
``fault_log`` — the ordered effect log the fault oracle replays against a
clean reference deployment to prove nothing diverged silently.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.codegen.headers import synthesize_shim_layouts
from repro.ir.externs import ExternHost
from repro.ir.interp import Interpreter, StateStore
from repro.ir.lowering import LoweredMiddlebox, lower_program
from repro.lang.parser import parse_program
from repro.net.packet import RawPacket
from repro.partition.constraints import SwitchResources
from repro.partition.partitioner import partition_middlebox
from repro.partition.plan import PartitionPlan
from repro.runtime import state_image
from repro.runtime.degradation import DegradationPolicy, DropAccounting
from repro.runtime.server import ServerRuntime
from repro.sim.clock import PACKET_GAP_US, PUNT_LINK_US
from repro.switchsim.control_plane import UpdateBatchError
from repro.telemetry import LATENCY_BOUNDS_US, Telemetry
from repro.switchsim.program import SERVER_PORT, SwitchProgram, bypass_port
from repro.switchsim.switch_model import SwitchModel

_new = object.__new__


@dataclass
class PacketJourney:
    """Full trace of one packet through the deployed middlebox."""

    verdict: str  # "send" | "drop" | "queued"
    emitted: List[Tuple[int, RawPacket]] = field(default_factory=list)
    fast_path: bool = False
    punted: bool = False
    pre_instructions: int = 0
    server_instructions: int = 0
    post_instructions: int = 0
    #: output-commit wait before the packet could be released (µs)
    sync_wait_us: float = 0.0
    #: number of switch tables touched by the state sync (0 = no sync)
    sync_tables: int = 0
    #: position in the deployment's arrival order (set when faults are on)
    packet_index: Optional[int] = None
    #: True when a fault degraded this packet (see ``degraded_reason``)
    degraded: bool = False
    degraded_reason: Optional[str] = None
    #: True while the punt sits in the bounded queue (placeholder journey);
    #: the completed journey arrives via ``drain_deferred()``
    queued: bool = False
    #: processed in server-only fallback mode (switch reprogramming)
    fallback: bool = False
    #: update-batch retries this packet's state sync needed
    retries: int = 0
    #: µs burned in failed batch attempts and backoff
    retry_wait_us: float = 0.0
    #: extra µs of output-commit wait from a stale-replication window
    stale_wait_us: float = 0.0

    @property
    def delivered(self) -> bool:
        """Full middlebox semantics were applied to this packet."""
        return not self.degraded and not self.queued


@dataclass
class PuntCompletion:
    """Result of finishing one punted packet on the server."""

    verdict: str
    emitted: List[Tuple[int, RawPacket]]
    server_instructions: int
    post_instructions: int
    sync_wait_us: float
    sync_tables: int
    retries: int = 0
    retry_wait_us: float = 0.0
    stale_wait_us: float = 0.0
    #: set when the return frame was lost after the state batch committed
    lost_reason: Optional[str] = None


def compile_middlebox(
    source_or_lowered,
    limits: Optional[SwitchResources] = None,
):
    """Compile middlebox source (or an already-lowered program).

    Returns ``(plan, switch_program)``.
    """
    if isinstance(source_or_lowered, LoweredMiddlebox):
        lowered = source_or_lowered
    else:
        lowered = lower_program(
            parse_program(source_or_lowered, "<middlebox>")
        )
    plan = partition_middlebox(lowered, limits)
    shim_to_server, shim_to_switch = synthesize_shim_layouts(
        plan.to_server, plan.to_switch
    )
    program = SwitchProgram.from_plan(plan, shim_to_server, shim_to_switch)
    return plan, program


class Role:
    """One replaceable decision-maker of a :class:`GalliumMiddlebox`.

    A role is built from its own settings only and bound to the
    deployment that holds it; it reads the deployment's current
    ``switch`` / ``state`` / ``server`` per call (promotion and crash
    recovery swap them).  The deployment owns its roles, so a role holds
    it weakly: a finished deployment is freed by reference counting, not
    left to the cycle collector.
    """

    box: "GalliumMiddlebox"

    def bind(self, box: "GalliumMiddlebox") -> None:
        self.box = weakref.proxy(box)


class FullReplication(Role):
    """Switch state policy: every switch-resident member is installed in
    full; a punt carries the shim frame the pre pipeline emitted, the
    server runs the non-offloaded partition, and the packet returns
    through the post pipeline."""

    #: replicated tables the switch holds only a subset of
    bounded_tables: Tuple[str, ...] = ()

    def sync(self, switch: SwitchModel) -> None:
        state_image.to_switch(switch, self.box.plan, self.box.state)

    #: called when the switch answered a packet itself; ``None`` = no-op
    fast_path_taken = None

    def ingress(self, packet: RawPacket, ingress_port: int):
        """Run the pre pipeline; returns ``(output, punt frame | None)``."""
        first = self.box.switch.receive(packet, ingress_port)
        return first, first.emitted[0][1] if first.punted else None

    def serve(self, runtime: ServerRuntime, frame: RawPacket):
        return runtime.handle(frame)

    def batch_aborted(self) -> None:
        pass

    def committed(self, sync_wait_us: float) -> None:
        self.box._c_punts_served.inc()
        self.box._h_sync_wait.observe(sync_wait_us)

    def release(self, served):
        """Return leg; ``(verdict, emitted, post instructions)``."""
        second = self.box.switch.receive(served.packet, SERVER_PORT)
        return (
            "drop" if second.dropped else "send",
            second.emitted,
            second.pipeline_instructions,
        )

    def state_recovered(self) -> None:
        pass


class SingleSwitch(Role):
    """Switch redundancy: one switch.  A fallback window means it is
    reprogramming — still readable, and resynced in place afterwards."""

    promoted = False
    #: per-packet hooks around the loop body; ``None`` = no-op
    before_packet = None
    after_packet = None

    def apply_batch(self, updates):
        return self.box.switch.control_plane.apply_batch(updates)

    def sync_standby(self) -> None:
        pass

    def fallback_packet(self, opening: bool) -> None:
        if opening:
            # The switch is reprogramming, not dead: the registers it
            # holds the authority for are read back into the store.
            box = self.box
            held = state_image.authoritative(box.plan)
            state_image.to_store(
                box.state, held, state_image.from_switch(box.switch, held, {})
            )

    def may_exit_fallback(self) -> bool:
        return True

    def close_window(self) -> str:
        """Bring the switch side back; returns the effect-log tag."""
        self.box.sync_all_state()
        if self.box._tracer is not None:
            self.box._tracer.record("switch_resync", component="deployment")
        return "resync"

    def before_recover(self) -> None:
        pass


class SingleServer(Role):
    """Punt target: one :class:`ServerRuntime`."""

    def bind(self, box: "GalliumMiddlebox") -> None:
        super().bind(box)
        box.server = box.build_server_runtime()

    def route(self, frame: RawPacket):
        """``(runtime, ticket)`` for one punt; the ticket comes back in
        :meth:`committed` once the punt's batch has landed."""
        return self.box.server, None

    def committed(self, runtime: ServerRuntime, ticket) -> None:
        pass

    def down(self, frame: RawPacket, index: int) -> Optional[str]:
        """Why the punt's destination is unreachable (the degrade reason
        should the bounded queue overflow), or ``None`` when it is up."""
        return (
            "queue_overflow" if self.box.injector.server_down(index)
            else None
        )

    def advance_windows(self, index: int) -> None:
        pass

    def rebase(self) -> None:
        """The authoritative store was (re)built, or written without a
        punt: install, crash resync, the close of a fallback window."""
        self.box.server.state = self.box.state


class GalliumMiddlebox:
    """A running switch+server middlebox pair."""

    def __init__(
        self,
        plan: PartitionPlan,
        program: SwitchProgram,
        config: Optional[Dict[int, list]] = None,
        seed: int = 0,
        policy: Optional[DegradationPolicy] = None,
        injector=None,
        telemetry: Optional[Telemetry] = None,
        fast_path: bool = False,
        state_policy: Optional[Role] = None,
        redundancy: Optional[Role] = None,
        punt_target: Optional[Role] = None,
    ):
        self.plan = plan
        self.program = program
        #: deployment-level seed; threads into the control plane's
        #: jitter/backoff RNG through :class:`SwitchModel`.
        self.seed = seed
        #: compiled-engine flag, threaded into every per-packet execution
        #: path (switch pipelines, punt handling, fallback windows).
        #: ``install()``/``configure`` always stays interpreted.
        self.fast_path = fast_path
        #: observability bundle (clock + metrics + tracer) shared by every
        #: component of this deployment side.
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._tracer = self.telemetry.active_tracer
        # Time-resolved layer (None when off — same discipline as _tracer).
        self._series = self.telemetry.active_series
        self._int = self.telemetry.active_int
        #: any per-packet observer on at all (settled here, once)
        self._observed = not (
            self._tracer is None and self._series is None
            and self._int is None
        )
        self.switch = self.build_switch(seed)
        self.state = StateStore(plan.middlebox.state)
        self.state.tracer = self._tracer
        self.externs = ExternHost(config=config)
        self.packets_processed = 0
        # -- graceful degradation (active when an injector is attached) ----
        self.policy = policy or DegradationPolicy()
        self.injector = injector
        self.accounting = DropAccounting(metrics=self.telemetry.metrics)
        self._c_punts_served = self.telemetry.metrics.counter(
            "punt.served"
        )
        self._h_sync_wait = self.telemetry.metrics.histogram(
            "punt.sync_wait_us", LATENCY_BOUNDS_US
        )
        # End-to-end latency distribution (nominal composition from the
        # sim latency model, no jitter) — `metrics --json` carries it.
        from repro.sim.latency import LatencyModel

        self._latency_model = LatencyModel()
        self._h_latency = self.telemetry.metrics.histogram(
            "latency.end_to_end_us", LATENCY_BOUNDS_US
        )
        #: wire bytes -> the fast-path latency's histogram cell (the
        #: model is a pure function of the frame size)
        self._fast_latency: Dict[int, Tuple[float, int]] = {}
        #: what the punt link adds to a punted frame: a program constant
        self._punt_shim_bytes = program.shim_to_server.byte_size
        #: ordered effect log the fault oracle replays (see module doc)
        self.fault_log: List[tuple] = []
        self._punt_queue: List[tuple] = []
        self._deferred_journeys: List[PacketJourney] = []
        self._server_was_down = False
        self._fallback_active = False
        self.arm_switch(self.switch)
        #: the runtime that served the latest punt (set by the punt target)
        self.server: ServerRuntime
        self.state_policy = state_policy or FullReplication()
        self.redundancy = redundancy or SingleSwitch()
        self.punt_target = punt_target or SingleServer()
        for role in (self.punt_target, self.redundancy, self.state_policy):
            role.bind(self)

    @property
    def faults_armed(self) -> bool:
        return self.injector is not None

    @property
    def stats(self):
        """Cache effectiveness counters (bounded state policy only)."""
        return self.state_policy.stats

    @property
    def pool(self):
        """The punt target, when it is a server pool."""
        return self.punt_target

    # -- parts the roles build on -------------------------------------------

    def build_switch(self, seed: int) -> SwitchModel:
        """One more switch running this deployment's program."""
        return SwitchModel(
            self.program, seed=seed, telemetry=self.telemetry,
            fast_path=self.fast_path,
        )

    def arm_switch(self, switch: SwitchModel) -> None:
        """Put the active switch's control plane under the deployment's
        retry policy and fault exposure (retries only trigger on injected
        faults, so this is a no-op for fault-free runs)."""
        switch.control_plane.retry = self.policy.retry
        if self.injector is not None:
            switch.control_plane.fault_hook = self.injector.batch_fault

    def build_server_runtime(self) -> ServerRuntime:
        """One more server runtime over the authoritative store."""
        return ServerRuntime(
            self.plan,
            self.state,
            self.program.shim_to_server,
            self.program.shim_to_switch,
            self.externs,
            telemetry=self.telemetry,
            fast_path=self.fast_path,
        )

    # -- deployment ------------------------------------------------------------

    def install(self) -> None:
        """Run ``configure()`` on the server and push state to the switch."""
        if self._tracer is not None:
            self._tracer.set_component("server.configure")
        configure = self.plan.middlebox.configure
        if configure is not None:
            Interpreter(configure, self.state, self.externs).run()
        self.state.drain_journal()
        self.sync_all_state()
        self.punt_target.rebase()

    def sync_all_state(self) -> None:
        """Bulk-install every switch-resident state member.

        Used at deploy time and again after a switch reprogram or a
        promotion: the switch copy is rebuilt from the server's
        authoritative state in the shape the state policy keeps it, and a
        warm standby is rebuilt in full.
        """
        self.state_policy.sync(self.switch)
        self.redundancy.sync_standby()

    # -- the packet path ----------------------------------------------------------

    def process_packet(self, packet: RawPacket, ingress_port: int = 1) -> PacketJourney:
        """One packet through the deployment.

        A journey is the class defaults plus the fields its exit sets.
        For a packet the switch answers this is a short path: the latency
        cell is looked up by frame size, and the clock and histogram
        updates are the operations ``SimClock.advance`` /
        ``Histogram.observe`` perform, in the order the calls would come
        (a punt's go through the methods).  Role hooks are late-bound and
        ``None`` where the role has nothing to do.
        """
        redundancy = self.redundancy
        if redundancy.before_packet is not None:
            redundancy.before_packet()
        index = self.packets_processed
        self.packets_processed = index + 1
        self.telemetry.clock.now_us += PACKET_GAP_US
        if self._observed:
            self._begin_observed(index, packet)
        wire_bytes = packet.wire_length()
        if self.injector is not None:
            journey = self._process_with_faults(packet, ingress_port, index)
        else:
            first, punted = self.state_policy.ingress(packet, ingress_port)
            if punted is None:
                if self.state_policy.fast_path_taken is not None:
                    self.state_policy.fast_path_taken()
                journey = _new(PacketJourney)
                journey.verdict = "drop" if first.dropped else "send"
                journey.emitted = first.emitted
                journey.fast_path = True
                journey.pre_instructions = first.pipeline_instructions
            else:
                # Slow path: the server handles the punted packet.
                completion = self.complete_punt(punted)
                journey = _new(PacketJourney)
                journey.verdict = completion.verdict
                journey.emitted = completion.emitted
                journey.punted = True
                journey.pre_instructions = first.pipeline_instructions
                journey.server_instructions = completion.server_instructions
                journey.post_instructions = completion.post_instructions
                journey.sync_wait_us = completion.sync_wait_us
                journey.sync_tables = completion.sync_tables
        # Nominal end-to-end latency (sim latency model composition,
        # jitter-free so snapshots stay deterministic), then the INT sink.
        if journey.fast_path:
            latency, bucket = (
                self._fast_latency.get(wire_bytes)
                or self._fast_latency_cell(wire_bytes)
            )
            histogram = self._h_latency
            histogram.count += 1
            histogram.sum += latency
            if latency > histogram.max_observed:
                histogram.max_observed = latency
            histogram.bucket_counts[bucket] += 1
        else:
            self._h_latency.observe(self._latency_model.slow_path_us(
                journey.server_instructions,
                wire_bytes,
                sync_wait_us=journey.sync_wait_us,
                shim_bytes=self._punt_shim_bytes,
            ))
        if self._int is not None:
            self._int.collect(journey, queue_depth=len(self._punt_queue))
        if redundancy.after_packet is not None:
            redundancy.after_packet()
        return journey

    def _begin_observed(self, index: int, packet: RawPacket) -> None:
        """Open packet ``index`` on whichever observers are on."""
        if self._series is not None:
            self._series.roll()
        if self._tracer is not None:
            self._tracer.begin_packet(index)
        if self._int is not None:
            self._int.begin_packet(index, packet)

    def _fast_latency_cell(self, wire_bytes: int) -> Tuple[float, int]:
        cell = self._fast_latency[wire_bytes] = self._h_latency.cell(
            self._latency_model.fast_path_us(wire_bytes)
        )
        return cell

    def complete_punt(self, punted_packet: RawPacket) -> PuntCompletion:
        """Finish one punted packet: its server leg, then its return leg.

        This is the slow-path tail of :meth:`process_packet`, exposed so
        the fault harness can replay punt completions independently of
        ingress (queued punts complete after the server recovers).  An
        update batch that never lands raises ``UpdateBatchError`` (the
        caller rolls the server state back); a lost return frame drops
        the packet, and its post writes, after the state committed.
        """
        completion, served = self.server_leg(punted_packet)
        if self.injector is not None:
            completion.lost_reason = self.injector.return_frame_fate()
            if completion.lost_reason is not None:
                return completion
        (
            completion.verdict,
            completion.emitted,
            completion.post_instructions,
        ) = self.state_policy.release(served)
        return completion

    def server_leg(self, punted_packet: RawPacket):
        """Punt link, server run, state sync; ``(completion, served)``
        with the return leg still to run (``state_policy.release``)."""
        runtime, ticket = self.punt_target.route(punted_packet)
        clock = self.telemetry.clock
        state_policy = self.state_policy
        clock.advance(PUNT_LINK_US)
        served = state_policy.serve(runtime, punted_packet)
        # The class defaults plus the six bare fields.
        completion = _new(PuntCompletion)
        completion.verdict = "drop"
        completion.emitted = []
        completion.server_instructions = served.instructions
        completion.post_instructions = 0
        completion.sync_wait_us = 0.0
        completion.sync_tables = 0
        if served.updates:
            # Transactional: apply_batch either commits (possibly rolling
            # forward from the undo log when the final attempt's
            # confirmation was lost) or rolls the switch back byte-exactly
            # and raises — the caller then rolls the server back too, so
            # "whichever side won" cannot happen.
            try:
                batch = self.redundancy.apply_batch(served.updates)
            except UpdateBatchError:
                state_policy.batch_aborted()
                raise
            # Output commit: the packet is held until visibility.
            completion.sync_wait_us = batch.visibility_latency_us
            completion.sync_tables = batch.tables_touched
            completion.retries = batch.attempts - 1
            completion.retry_wait_us = batch.retry_wait_us
            if self.injector is not None:
                completion.stale_wait_us = self.injector.stale_extra_us()
                completion.sync_wait_us += completion.stale_wait_us
        state_policy.committed(completion.sync_wait_us)
        self.punt_target.committed(runtime, ticket)
        clock.advance(PUNT_LINK_US)
        return completion, served

    # -- the packet path under faults ----------------------------------------

    def _process_with_faults(
        self, packet: RawPacket, ingress_port: int, index: int
    ) -> PacketJourney:
        injector = self.injector
        injector.begin_packet(index)
        self._advance_windows(index)
        pristine = packet.copy()
        if self.switch_unavailable(index):
            if injector.server_down(index):
                return self._degrade(
                    pristine, ingress_port, index, "total_outage"
                )
            return self._fallback_process(packet, ingress_port, index)
        first, punted = self.state_policy.ingress(packet, ingress_port)
        self.fault_log.append(("ingress", index, ingress_port))
        if punted is None:
            if self.state_policy.fast_path_taken is not None:
                self.state_policy.fast_path_taken()
            return PacketJourney(
                verdict="drop" if first.dropped else "send",
                emitted=first.emitted,
                fast_path=True,
                pre_instructions=first.pipeline_instructions,
                packet_index=index,
            )
        fate = injector.punt_frame_fate()
        if fate is not None:
            # The frame died on the wire (or failed the server NIC's FCS
            # check); the pre-pipeline's switch-state effects stand, the
            # packet itself is unrecoverable.
            self.fault_log.append(("drop_punt", index))
            return self._lost(
                fate, punted=True, packet_index=index,
                pre_instructions=first.pipeline_instructions,
            )
        down_reason = self.punt_target.down(punted, index)
        if down_reason is not None:
            return self._enqueue_punt(
                index, punted, pristine, ingress_port,
                first.pipeline_instructions, down_reason,
            )
        return self._serve_punt(
            index, punted, pristine, ingress_port,
            first.pipeline_instructions,
        )

    def _serve_punt(
        self,
        index: int,
        punted: RawPacket,
        pristine: RawPacket,
        ingress_port: int,
        pre_instructions: int,
    ) -> PacketJourney:
        if self._tracer is not None:
            # Punts drained from the queue complete long after their
            # arrival; re-point the tracer at the original packet.
            self._tracer.begin_packet(index)
        snapshot = self.state.snapshot()
        mark = self._tracer.mark() if self._tracer is not None else 0
        try:
            completion = self.complete_punt(punted)
        except UpdateBatchError as exc:
            # The batch never landed (vetoed RPCs or write-back overflow):
            # roll the server back so switch and server stay in lockstep,
            # then degrade the packet — output commit forbids releasing it.
            self.state.restore(snapshot)
            if self._tracer is not None:
                # Rolled-back server effects never happened observably.
                self._tracer.rollback_effects(mark)
            self.fault_log.append(("drop_punt", index))
            reason = (
                "writeback_overflow" if exc.kind == "overflow"
                else "writeback_failed"
            )
            return self._degrade(
                pristine, ingress_port, index, reason,
                pre_instructions=pre_instructions,
                retries=exc.attempts - 1,
                retry_wait_us=exc.retry_wait_us,
                punted=True,
            )
        self.fault_log.append(("serve", index))
        served = dict(
            punted=True,
            pre_instructions=pre_instructions,
            server_instructions=completion.server_instructions,
            sync_wait_us=completion.sync_wait_us,
            sync_tables=completion.sync_tables,
            retries=completion.retries,
            retry_wait_us=completion.retry_wait_us,
            stale_wait_us=completion.stale_wait_us,
            packet_index=index,
        )
        if completion.lost_reason is not None:
            return self._lost(completion.lost_reason, **served)
        return PacketJourney(
            verdict=completion.verdict,
            emitted=completion.emitted,
            post_instructions=completion.post_instructions,
            **served,
        )

    def _lost(self, reason: str, **journey_fields) -> PacketJourney:
        """A frame vanished on the punt path: always a drop, whatever the
        fail-open policy says (there is no packet left to forward)."""
        self.accounting.count(reason)
        self.accounting.failed_closed += 1
        if self._tracer is not None:
            self._tracer.record("degrade", component="deployment",
                                reason=reason, outcome="drop")
        return PacketJourney(
            verdict="drop", degraded=True, degraded_reason=reason,
            **journey_fields,
        )

    def _enqueue_punt(
        self,
        index: int,
        punted: RawPacket,
        pristine: RawPacket,
        ingress_port: int,
        pre_instructions: int,
        overflow_reason: str,
    ) -> PacketJourney:
        if len(self._punt_queue) >= self.policy.punt_queue_depth:
            self.fault_log.append(("drop_punt", index))
            return self._degrade(
                pristine, ingress_port, index, overflow_reason,
                pre_instructions=pre_instructions, punted=True,
            )
        self._punt_queue.append(
            (index, punted, pristine, ingress_port, pre_instructions)
        )
        self.accounting.queued += 1
        if self._tracer is not None:
            self._tracer.record("punt_queued", component="deployment",
                                depth=len(self._punt_queue))
        return PacketJourney(
            verdict="queued", punted=True, queued=True,
            pre_instructions=pre_instructions, packet_index=index,
        )

    def _degrade(
        self,
        pristine: RawPacket,
        ingress_port: int,
        index: int,
        reason: str,
        pre_instructions: int = 0,
        retries: int = 0,
        retry_wait_us: float = 0.0,
        punted: bool = False,
    ) -> PacketJourney:
        """Apply the fail-open/fail-closed policy to an unservable packet."""
        self.accounting.count(reason)
        if self._tracer is not None:
            self._tracer.record(
                "degrade", component="deployment", reason=reason,
                outcome="fail_open" if self.policy.fail_open
                else "fail_closed",
            )
        if self.policy.fail_open:
            self.accounting.failed_open += 1
            return PacketJourney(
                verdict="send",
                emitted=[(bypass_port(ingress_port), pristine)],
                punted=punted, degraded=True, degraded_reason=reason,
                pre_instructions=pre_instructions,
                retries=retries, retry_wait_us=retry_wait_us,
                packet_index=index,
            )
        self.accounting.failed_closed += 1
        return PacketJourney(
            verdict="drop", punted=punted, degraded=True,
            degraded_reason=reason,
            pre_instructions=pre_instructions,
            retries=retries, retry_wait_us=retry_wait_us,
            packet_index=index,
        )

    # -- fallback mode (switch unavailable) -----------------------------------

    def _fallback_process(
        self, packet: RawPacket, ingress_port: int, index: int
    ) -> PacketJourney:
        """Server-only operation: the server runs the *complete* middlebox
        program while the switch pipelines are unavailable.  Replication is
        deferred; the window ends with a bulk state resync."""
        self.redundancy.fallback_packet(opening=not self._fallback_active)
        self._fallback_active = True
        self.fault_log.append(("fallback", index, ingress_port))
        self.accounting.fallback_packets += 1
        if self._tracer is not None:
            self._tracer.set_component("server.fallback")
            self._tracer.record("fallback", ingress_port=ingress_port)
        packet.ingress_port = ingress_port
        # The run's update batch is dropped: bulk resync covers replication.
        result = self.server.run_complete(packet)
        if self._tracer is not None and result.verdict is not None:
            self._tracer.record("verdict", verdict=result.verdict,
                                port=result.egress_port or 0)
        verdict = result.verdict or "drop"
        emitted: List[Tuple[int, RawPacket]] = []
        if verdict == "send":
            emitted = [
                (result.egress_port or bypass_port(ingress_port), packet)
            ]
        return PacketJourney(
            verdict=verdict,
            emitted=emitted,
            fallback=True,
            server_instructions=result.instructions,
            packet_index=index,
        )

    def switch_unavailable(self, index: int) -> bool:
        """Whether packet ``index`` falls in a fallback window: an
        injected switch outage covers it, or the redundancy role has not
        let the last one close yet (which keeps packets on the server
        path after the outage itself has ended)."""
        return self._fallback_active or self.injector.switch_down(index)

    def _exit_fallback(self) -> None:
        """End a fallback window: the redundancy role brings the switch
        side back (resync in place, or promote the standby and resync
        that), the punt target re-baselines on the store the window
        wrote without it, then the effect log and the ledger record it."""
        tag = self.redundancy.close_window()
        self.punt_target.rebase()
        self.fault_log.append((tag,))
        self.accounting.switch_resyncs += 1
        self._fallback_active = False

    # -- crash recovery ---------------------------------------------------------

    def crash_resync(self) -> None:
        """Rebuild server state after a crash, from the authoritative
        switch copy.

        ``configure()`` reruns from the deployment's static config; state
        the switch holds (replicated tables, registers) is read back from
        the switch — the last successfully committed batch survives by
        construction of the write-back protocol.  Server-only dynamic
        state cannot be recovered and resets to its post-configure values,
        and a bounded table comes back as the cached subset only: both
        are *declared* degradations the fault oracle mirrors, never silent
        ones.
        """
        fresh = StateStore(self.plan.middlebox.state)
        fresh.track_reads = self.state.track_reads
        if self._tracer is not None:
            self._tracer.record("crash_resync", component="deployment")
        configure = self.plan.middlebox.configure
        if configure is not None:
            Interpreter(configure, fresh, self.externs).run()
        fresh.drain_journal()
        # Attach the tracer only after the configure rerun: recovery
        # bookkeeping is not packet provenance (and the reference side of
        # a fault diff replays the crash without rerunning configure).
        fresh.tracer = self.state.tracer
        held = state_image.replicated(self.plan)
        held += state_image.authoritative(self.plan)
        state_image.to_store(
            fresh, held, state_image.from_switch(self.switch, held, {})
        )
        self.state = fresh
        self.punt_target.rebase()
        self.state_policy.state_recovered()
        self.accounting.server_restarts += 1

    # -- fault-window bookkeeping ------------------------------------------------

    def _advance_windows(self, index: int) -> None:
        """Fire window-edge transitions (recovery actions) for packet
        ``index``: fallback window close, server restart, and whatever
        membership windows the punt target keeps."""
        injector = self.injector
        if (
            self._fallback_active
            and not injector.switch_down(index)
            and self.redundancy.may_exit_fallback()
        ):
            self._exit_fallback()
        server_down = injector.server_down(index)
        if server_down and not self._server_was_down:
            self._server_was_down = True
        elif self._server_was_down and not server_down:
            self._server_was_down = False
            if injector.take_restart_state_loss():
                self.crash_resync()
                self.fault_log.append(("crash",))
            self.drain_punt_queue()
        self.punt_target.advance_windows(index)

    def drain_punt_queue(self) -> None:
        """Serve punts buffered during the outage (possibly reordered by a
        link fault); their completed journeys surface via
        :meth:`drain_deferred`."""
        entries = self._punt_queue
        self._punt_queue = []
        if not entries:
            return
        order = self.injector.drain_order(len(entries))
        if list(order) != list(range(len(entries))):
            self.accounting.reordered += len(entries)
        for position in order:
            index, punted, pristine, ingress_port, pre_instructions = (
                entries[position]
            )
            journey = self._serve_punt(
                index, punted, pristine, ingress_port, pre_instructions
            )
            journey.queued = True
            self._deferred_journeys.append(journey)

    def drain_deferred(self) -> List[PacketJourney]:
        """Completed journeys of previously queued punts (drained on server
        recovery); each carries its original ``packet_index``."""
        journeys = self._deferred_journeys
        self._deferred_journeys = []
        return journeys

    def recover(self) -> None:
        """End all fault windows and finish every pending recovery: drain
        the punt queue, resync after a reprogram, restart the server."""
        if not self.faults_armed:
            return
        self.redundancy.before_recover()
        self.injector.clear()
        self._advance_windows(self.packets_processed)

    # -- stats ----------------------------------------------------------------------

    def fast_path_fraction(self) -> float:
        counters = self.switch.counters()
        total = counters["fast_path"] + counters["punted"]
        return counters["fast_path"] / total if total else 0.0
