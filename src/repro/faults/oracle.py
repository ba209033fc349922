"""Fault-aware oracle: degradation must be declared, never silent.

The plain difftest oracle proves the deployment equivalent to the
unpartitioned baseline under ideal conditions.  Under injected faults
strict equivalence is impossible — packets legitimately vanish, fail open,
or queue — so this oracle checks the strongest property that *is*
guaranteed:

1. **Effect-log equivalence.**  The faulty deployment records an ordered
   ``fault_log`` of every semantic effect (pre-pipeline ingress, punt
   completion, punt discard, fallback run, crash resync).  The oracle
   replays that log against a *clean* reference deployment of the same
   compiled program (whose equivalence to the baseline is difftest's
   theorem) and requires every delivered packet's observable — verdict,
   egress port, all header fields — to match, and the final switch+server
   state of both deployments to agree exactly.
2. **Policy conformance.**  Every non-delivered packet must be accounted
   with a reason, and its observable must be exactly what the declared
   :class:`DegradationPolicy` dictates (fail-closed drop, or fail-open
   forwarding of the pristine packet on the bypass pair).
3. **Post-recovery convergence.**  After faults clear and recovery runs,
   replicated switch tables must equal the server's authoritative copy,
   and a fresh verification stream must behave identically on the
   recovered deployment and the reference — the system returned to full
   functional equivalence.

Any breach is a :class:`~repro.difftest.kernel.Finding` — by construction
a real bug in the runtime's fault handling (or a latent compiler bug),
never noise.  Observation, end state, convergence and whose fault an
exception is are the kernel's decisions (:mod:`repro.difftest.kernel`);
this module is the policy around them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator, List, Optional, Tuple

from repro.difftest import kernel
from repro.difftest.kernel import Finding, Observation
from repro.difftest.oracle import StreamSpec
from repro.faults.injector import FaultInjector
from repro.faults.plan import POOL_FAULT_KINDS, FaultPlan, window_length
from repro.net.packet import RawPacket
from repro.partition.constraints import SwitchResources
from repro.partition.plan import PartitionPlan
from repro.runtime.cache import CacheConfigurationError
from repro.runtime.degradation import (
    DegradationPolicy,
    RETURN_LEG_REASONS,
    UNSALVAGEABLE_REASONS,
)
from repro.runtime.deployment import (
    GalliumMiddlebox,
    PacketJourney,
    compile_middlebox,
)
from repro.runtime.pool import build_selector, default_member_names
from repro.runtime.spec import DeploymentSpec
from repro.switchsim.program import SwitchProgram, bypass_port

#: XOR'd into the stream seed to derive the post-recovery verification
#: stream (must differ from the fault-phase stream).
VERIFY_SALT = 0xFA17

_LABELS = ("reference", "deployment")


class FaultOutcome(str, Enum):
    #: no fault fired (plan windows missed the traffic); full equivalence
    CLEAN = "clean"
    #: faults fired; every degradation declared and policy-conformant,
    #: state converged, post-recovery equivalence verified
    DEGRADED_OK = "degraded_ok"
    #: compiler legitimately refused the program
    REJECTED = "rejected"
    #: a guarantee was breached (silent loss, divergence, bad accounting)
    VIOLATION = "violation"
    #: the compiler or the deployment under test raised
    CRASH = "crash"
    #: the clean reference deployment raised: the oracle's model is
    #: broken, which says nothing about the deployment under test
    REFERENCE_CRASH = "reference_crash"


_ABORTED = {
    kernel.REFUSED: FaultOutcome.REJECTED,
    kernel.DUT_CRASH: FaultOutcome.CRASH,
    kernel.REFERENCE_CRASH: FaultOutcome.REFERENCE_CRASH,
}


@dataclass
class PacketRecord:
    """What the faulty deployment did with one packet."""

    index: int
    kind: str  # "delivered" | "lost" | "degraded_drop" | "failed_open" | "queued"
    observation: Observation
    queued: bool = False
    reason: Optional[str] = None


@dataclass
class FaultOracleResult:
    outcome: FaultOutcome
    #: the first finding; ``kind`` is "observable" | "path" | "policy" |
    #: "state" | "accounting" | "pool" | "convergence" | "post_recovery"
    violation: Optional[Finding] = None
    error: Optional[str] = None
    packets_run: int = 0
    delivered: int = 0
    degraded: int = 0
    accounting: Dict = field(default_factory=dict)
    injected: Dict[str, int] = field(default_factory=dict)
    #: the deployment flavour the scenario ran on
    deployment: DeploymentSpec = DeploymentSpec()
    #: whether the failover DUT actually promoted its standby
    promoted: bool = False
    #: flow-state migrations the pool DUT ran (crash + drain)
    migrations: int = 0
    #: control-plane batches the DUT rolled back during the scenario
    #: (the ``control_plane.batches_rolled_back`` counter at finish)
    rollbacks: int = 0
    #: first-divergent-event trace diff of a VIOLATION outcome, or why
    #: there is none (see :func:`~repro.difftest.kernel.collect_provenance`);
    #: ``None`` when provenance was disabled
    trace_diff: Optional[object] = None


def _record(journey: PacketJourney) -> PacketRecord:
    index = journey.packet_index
    assert index is not None
    if journey.queued and journey.verdict == "queued":
        return PacketRecord(index, "queued", kernel.DROP, queued=True)
    observation = kernel.observe(journey.verdict, journey.emitted)
    if journey.degraded:
        if journey.degraded_reason in UNSALVAGEABLE_REASONS:
            kind = "lost"
        elif journey.verdict == "send":
            kind = "failed_open"
        else:
            kind = "degraded_drop"
        return PacketRecord(
            index, kind, observation, queued=journey.queued,
            reason=journey.degraded_reason,
        )
    return PacketRecord(
        index, "delivered", observation, queued=journey.queued
    )


def run_fault_oracle(
    source_or_lowered,
    stream: StreamSpec,
    fault_plan: FaultPlan,
    policy: Optional[DegradationPolicy] = None,
    injector_seed: int = 0,
    deployment_seed: int = 0,
    limits: Optional[SwitchResources] = None,
    verify_packets: int = 12,
    deployment: DeploymentSpec = DeploymentSpec(),
    provenance: bool = True,
) -> FaultOracleResult:
    """Drive one program through one fault schedule and verify it.

    ``deployment`` names the roles of the deployment under test (see
    :mod:`repro.runtime`); the clean reference always keeps the
    single-switch, single-server defaults and shares only the DUT's
    switch state policy.  Programs a bounded cache cannot serve (no
    replicated tables, or a register-mutating switch pipeline) are
    REJECTED, mirroring the compile-time refusals.  How each role's
    effect-log tags replay on the reference — promotion, pool membership,
    a φ-extended detection window — is documented where it happens, in
    :func:`_replay_reference`, and the pool's own guarantees in
    :func:`_check_pool`.

    With ``provenance`` (the default), a VIOLATION outcome re-runs the
    whole scenario with per-packet tracing on both deployments (the run is
    fully seeded, so it reproduces exactly) and attaches the trace diff
    pinpointing the first divergent semantic event.  Shrinker predicates
    pass ``provenance=False``.
    """
    try:
        # Resolved through this module on every call: the benchmark's
        # traced run rebinds the name to attribute compile time.
        plan, program = kernel.compile_step(
            compile_middlebox, source_or_lowered, limits
        )
        scenario = FaultScenario(
            plan, program, stream, fault_plan, policy or DegradationPolicy(),
            injector_seed, deployment_seed, verify_packets, deployment,
        )
        with kernel.dut("deploy", refusals=(CacheConfigurationError,)):
            dut = scenario.deploy_dut()
        with kernel.reference("deploy"):
            reference = scenario.deploy_reference()
        result = scenario.check(reference, dut)
    except kernel.Abort as abort:
        return FaultOracleResult(
            _ABORTED[abort.failure], error=abort.error, deployment=deployment
        )
    if provenance and result.outcome is FaultOutcome.VIOLATION:
        result.trace_diff = scenario.provenance()
    return result


@dataclass
class FaultScenario:
    """One compiled program under one fault schedule: two deployment
    factories and the check that compares what they deploy."""

    plan: PartitionPlan
    program: SwitchProgram
    stream: StreamSpec
    fault_plan: FaultPlan
    policy: DegradationPolicy = field(default_factory=DegradationPolicy)
    injector_seed: int = 0
    deployment_seed: int = 0
    verify_packets: int = 12
    deployment: DeploymentSpec = DeploymentSpec()

    def _deploy(self, spec: DeploymentSpec, telemetry, **faults):
        box = GalliumMiddlebox(
            self.plan, self.program, seed=self.deployment_seed,
            telemetry=telemetry, **spec.roles(), **faults,
        )
        box.install()
        return box

    def deploy_dut(self, telemetry=None) -> GalliumMiddlebox:
        """The deployment under test: every role, the policy, the faults."""
        return self._deploy(
            self.deployment, telemetry, policy=self.policy,
            injector=FaultInjector(self.fault_plan, seed=self.injector_seed),
        )

    def deploy_reference(self, telemetry=None) -> GalliumMiddlebox:
        """The clean reference: the DUT's switch state policy, nothing
        else."""
        return self._deploy(
            DeploymentSpec(cache_entries=self.deployment.cache_entries),
            telemetry,
        )

    def provenance(self):
        """Both sides re-deployed and re-checked with tracing on; the
        reference's replayed events are attributed to the DUT's packet
        indices (see :func:`_replay_reference`)."""
        return kernel.collect_provenance(
            self.deploy_reference, self.deploy_dut, self.check, _LABELS
        )

    def check(
        self, reference: GalliumMiddlebox, dut: GalliumMiddlebox
    ) -> FaultOracleResult:
        """Drive ``dut`` through the faulted stream, then hold it against
        ``reference``; raises :class:`~repro.difftest.kernel.Abort` when
        either side crashes."""
        packets = self.stream.build()
        records: Dict[int, PacketRecord] = {}

        def note(journey: PacketJourney) -> None:
            records[journey.packet_index] = _record(journey)

        with kernel.dut("fault run"):
            for packet, ingress in packets:
                note(dut.process_packet(packet.copy(), ingress))
                for deferred in dut.drain_deferred():
                    note(deferred)
            dut.recover()
            for deferred in dut.drain_deferred():
                note(deferred)
        violation = next(
            self._violations(reference, dut, records, packets), None
        )
        degraded = sum(
            1 for record in records.values() if record.kind != "delivered"
        )
        injected = dict(dut.injector.injected)
        faulted = bool(injected) or degraded or (
            dut.accounting.server_restarts
            or dut.accounting.fallback_packets
            or dut.accounting.queued
        )
        if violation is not None:
            outcome = FaultOutcome.VIOLATION
        elif faulted:
            outcome = FaultOutcome.DEGRADED_OK
        else:
            outcome = FaultOutcome.CLEAN
        counter = dut.telemetry.metrics.counter_value
        return FaultOracleResult(
            outcome=outcome,
            violation=violation,
            packets_run=len(packets),
            delivered=len(records) - degraded,
            degraded=degraded,
            accounting=dut.accounting.as_dict(),
            injected=injected,
            deployment=self.deployment,
            promoted=dut.redundancy.promoted,
            migrations=counter("pool.migrations"),
            rollbacks=counter("control_plane.batches_rolled_back"),
        )

    def _violations(self, reference, dut, records, packets) -> Iterator[Finding]:
        """Every check, cheapest first; the oracle reports the first
        finding."""
        yield from _check_accounting(dut, records, len(packets))
        if self.deployment.pool_servers:
            yield from _check_pool(
                dut, records, self.fault_plan,
                default_member_names(self.deployment.pool_servers),
                self.deployment_seed,
            )
        yield from _replay_reference(
            reference, dut, records, packets, self.policy
        )
        yield from kernel.check_convergence(dut)
        yield from _final_state(reference, dut)
        yield from _verify_recovered(
            dut, reference, self.stream, self.verify_packets
        )


def _final_state(reference, dut) -> Iterator[Finding]:
    return kernel.diff_state(
        kernel.end_state(reference), kernel.end_state(dut), _LABELS
    )


# ---------------------------------------------------------------------------
# Checks (each a generator of findings; the first one is the verdict)
# ---------------------------------------------------------------------------


def _check_accounting(
    dut: GalliumMiddlebox, records: Dict[int, PacketRecord], total: int
) -> Iterator[Finding]:
    """Every packet classified, no punts stranded in the queue, and the
    drop ledger agrees with the per-packet records."""
    missing = [index for index in range(total) if index not in records]
    if missing:
        yield Finding(
            "accounting", missing[0],
            f"{len(missing)} packets have no journey at all: {missing[:5]}",
        )
    stuck = [r.index for r in records.values() if r.kind == "queued"]
    if stuck:
        yield Finding(
            "accounting", stuck[0],
            f"punts still queued after recovery: {stuck[:5]}",
        )
    recorded_degraded = sum(
        1 for record in records.values() if record.kind != "delivered"
    )
    if recorded_degraded != dut.accounting.degraded_total:
        yield Finding(
            "accounting", None,
            f"drop ledger says {dut.accounting.degraded_total} degraded,"
            f" journeys say {recorded_degraded}",
        )


def _check_pool(
    dut: GalliumMiddlebox,
    records: Dict[int, PacketRecord],
    fault_plan,
    pool_members: List[str],
    deployment_seed: int,
) -> Iterator[Finding]:
    """Pool-specific guarantees, checked against an independent rebuild.

    A member outage must degrade only the flows that member owns — never
    the whole punt path — so: (1) a member outage never opens a fallback
    window: every window in the effect log opens on a packet where the
    plan puts a *switch* outage (a reprogram, a primary crash under a
    standby), whatever the members are doing, (2) every stalled packet
    was attributed to a member that really was down at that index, and
    whose slot the oracle's own reconstruction of the member table (a
    pure function of names, seed, and slots) assigns to that member, (3)
    every queue/degrade event with a pool reason maps back to an
    attributed packet and vice versa, and (4) each membership-change
    spec ran exactly one migration.
    """
    pool_specs = [
        spec for kind in POOL_FAULT_KINDS for spec in fault_plan.by_kind(kind)
    ]
    in_window = False
    for event in dut.fault_log:
        if event[0] in ("resync", "promote"):
            in_window = False
        elif event[0] == "fallback" and not in_window:
            in_window = True
            index = event[1]
            if not any(
                # a mid-batch crash opens its window on the next packet
                spec.active(index - 1) if spec.kind == "crash_batch"
                else spec.active(index)
                for kind in ("reprogram", "switch_crash", "crash_batch")
                for spec in fault_plan.by_kind(kind)
            ):
                yield Finding(
                    "pool", index,
                    "full fallback engaged with no switch outage to open"
                    " it — a member outage must stall only the flows the"
                    f" member owns (live: {sorted(dut.pool.members)})",
                )
    migrations = dut.telemetry.metrics.counter_value("pool.migrations")
    if migrations != len(pool_specs):
        yield Finding(
            "pool", None,
            f"{len(pool_specs)} membership-change specs but"
            f" {migrations} migrations ran",
        )

    def members_at(index: int) -> List[str]:
        gone = {
            spec.member for spec in pool_specs
            if spec.at_packet + window_length(spec) <= index
        }
        return [name for name in pool_members if name not in gone]

    for index in sorted(dut.pool.affected):
        member, slot = dut.pool.affected[index]
        if not any(
            spec.member == member and spec.active(index)
            for spec in pool_specs
        ):
            yield Finding(
                "pool", index,
                f"packet stalled on member {member!r} outside any"
                " membership-change window",
            )
        selector = build_selector(members_at(index), deployment_seed)
        if selector.member_table()[slot] != member:
            yield Finding(
                "pool", index,
                f"blast radius mismatch: DUT pinned slot {slot} to"
                f" {member!r} but the rebuilt member table assigns it to"
                f" {selector.member_table()[slot]!r}",
            )
        record = records.get(index)
        if record is None or not (
            record.queued or record.reason == "pool_member_down"
        ):
            yield Finding(
                "pool", index,
                "packet attributed to a member outage but its journey"
                f" shows neither queueing nor a pool degrade"
                f" (kind={getattr(record, 'kind', None)!r})",
            )
    for record in records.values():
        if (
            record.reason == "pool_member_down"
            and record.index not in dut.pool.affected
        ):
            yield Finding(
                "pool", record.index,
                "packet degraded with reason 'pool_member_down' but no"
                " member outage was attributed to it",
            )


def _pristine(packets: List[Tuple[RawPacket, int]], index: int) -> RawPacket:
    packet, ingress = packets[index]
    clone = packet.copy()
    clone.ingress_port = ingress
    return clone


def _switch_answer(out) -> Observation:
    """A packet the switch answered without the server."""
    return kernel.observe("drop" if out.dropped else "send", out.emitted)


def _replay_reference(
    reference: GalliumMiddlebox,
    dut: GalliumMiddlebox,
    records: Dict[int, PacketRecord],
    packets: List[Tuple[RawPacket, int]],
    policy: DegradationPolicy,
) -> Iterator[Finding]:
    """Replay the DUT's effect log on the clean reference deployment and
    compare every delivered observable (plus policy conformance of every
    degraded packet).

    In cache mode the hit/miss decision depends on transient cache
    content (refill batches the DUT's faults perturbed), so punt paths
    may legitimately differ between DUT and reference.  Correctness does
    not: a hit executes the read-only pre/post projections, a miss the
    complete program — both equivalent.  The cached replay therefore
    forces the DUT's punt decisions onto the reference (serving a punt
    the reference fast-pathed is effect-free beyond cache refills, and
    vice versa) instead of requiring the paths to match.

    Only the calls *into* the reference sit under the reference guard:
    an exception in the replay's own bookkeeping is a harness bug.
    """
    guard = kernel.reference("reference replay")
    cached = bool(reference.state_policy.bounded_tables)
    held: Dict[int, RawPacket] = {}
    expected: Dict[int, Observation] = {}

    def complete(frame: RawPacket) -> Observation:
        with guard:
            completion = reference.complete_punt(frame)
        return kernel.observe(completion.verdict, completion.emitted)

    # Replayed reference events are attributed to the DUT's packet index
    # (the replay bypasses process_packet, so the tracer must be told).
    ref_tracer = reference.telemetry.active_tracer
    # Which packets the DUT's pre-pipeline punted, derived from the log
    # itself: every punt ends in exactly one "serve" or "drop_punt".
    dut_punts = {
        event[1]
        for event in dut.fault_log
        if event[0] in ("serve", "drop_punt")
    }
    for event in dut.fault_log:
        tag = event[0]
        if tag in ("pool_down", "pool_migrate"):
            # Pool membership changes replay as no-ops.  All members
            # execute against one authoritative store, so a correct pool
            # *is* byte-equivalent to the single-server reference, and the
            # DUT's migration must be an identity transform on committed
            # state (delete + rebuild from the switch copy / server-only
            # checkpoint): a buggy one surfaces in the observable /
            # convergence / final-state checks instead.
            continue
        if ref_tracer is not None and len(event) > 1:
            ref_tracer.begin_packet(event[1])
        if tag == "ingress":
            _, index, ingress = event
            with guard:
                out, frame = reference.state_policy.ingress(
                    packets[index][0].copy(), ingress
                )
            dut_punted = index in dut_punts
            if cached:
                if dut_punted:
                    held[index] = _pristine(packets, index)
                elif frame is not None:
                    # The DUT hit its cache; the reference missed.  Serve
                    # the miss now so refills land on the reference too.
                    expected[index] = complete(_pristine(packets, index))
                else:
                    expected[index] = _switch_answer(out)
                continue
            if (frame is not None) != dut_punted:
                yield Finding(
                    "path", index,
                    f"reference {'punted' if frame is not None else 'fast-pathed'}"
                    f" but deployment {'punted' if dut_punted else 'fast-pathed'}"
                    " — switch state diverged before this packet",
                )
                return
            if frame is not None:
                held[index] = frame
            else:
                expected[index] = _switch_answer(out)
        elif tag == "serve":
            index = event[1]
            if index not in held:
                yield Finding(
                    "path", index,
                    "deployment served a punt the reference never emitted",
                )
                return
            if records[index].reason in RETURN_LEG_REASONS:
                # The return frame died on the wire: the reference runs
                # the server leg and loses what the wire lost — a switch
                # cannot run post for a frame it never receives.
                with guard:
                    reference.server_leg(held.pop(index))
            else:
                expected[index] = complete(held.pop(index))
        elif tag == "drop_punt":
            held.pop(event[1], None)
        elif tag == "fallback":
            _, index, ingress = event
            # Align the reference's internal packet counter so its traced
            # events carry the DUT's index for this packet.
            reference.packets_processed = index
            with guard:
                journey = reference.process_packet(
                    packets[index][0].copy(), ingress
                )
            expected[index] = kernel.observe(journey.verdict, journey.emitted)
        elif tag == "crash":
            with guard:
                reference.crash_resync()
        elif tag in ("resync", "promote"):
            # The DUT bulk-resynced its active switch (in place after a
            # reprogram, or the standby it just promoted) from the
            # server's authoritative copy.  A full-replication reference
            # needs no action: replicated state equality follows from the
            # batch applies it already mirrored, and switch-authoritative
            # registers line up because the DUT's per-packet checkpoint fed
            # the fallback window the same values the reference's live
            # switch held.  A cached reference must mirror the resync: it
            # rebuilt the DUT's bounded cache and FIFO order
            # deterministically, and the two caches have to re-converge at
            # the same log point.  (How long φ took to end the window does
            # not matter here: the reference replays the DUT's own log, so
            # a longer window simply contributes more ("fallback", ...)
            # entries.)
            if cached:
                with guard:
                    reference.sync_all_state()
        else:  # pragma: no cover - log tags are closed
            raise AssertionError(f"unknown fault-log tag {tag!r}")
    if held:
        yield Finding(
            "path", sorted(held)[0],
            f"reference still holds {len(held)} punts the deployment"
            " neither served nor discarded",
        )
        return

    for index, record in sorted(records.items()):
        if record.kind == "delivered":
            want = expected.get(index)
            if want is None:
                yield Finding(
                    "observable", index,
                    "delivered packet has no corresponding effect-log entry",
                )
            else:
                yield from kernel.compare(
                    index, want, record.observation, _LABELS,
                    kind="observable",
                )
        elif record.kind == "lost":
            if record.observation[0] != "drop":
                yield Finding(
                    "policy", index,
                    f"lost packet ({record.reason}) must observe as a drop,"
                    f" got {record.observation!r}",
                )
        elif record.kind == "degraded_drop":
            if policy.fail_open:
                yield Finding(
                    "policy", index,
                    f"fail-open policy but packet dropped ({record.reason})",
                )
            if record.observation[0] != "drop":
                yield Finding(
                    "policy", index,
                    f"fail-closed degradation must drop,"
                    f" got {record.observation!r}",
                )
        elif record.kind == "failed_open":
            if not policy.fail_open:
                yield Finding(
                    "policy", index,
                    f"fail-closed policy but packet forwarded"
                    f" ({record.reason})",
                )
            packet, ingress = packets[index]
            want = kernel.observe("send", [(bypass_port(ingress), packet)])
            if record.observation != want:
                yield Finding(
                    "policy", index,
                    "fail-open must forward the pristine packet on the"
                    f" bypass pair: got {record.observation!r},"
                    f" want {want!r}",
                )


def _verify_recovered(
    dut: GalliumMiddlebox,
    reference: GalliumMiddlebox,
    stream: StreamSpec,
    verify_packets: int,
) -> Iterator[Finding]:
    """Faults are cleared: the recovered deployment must be functionally
    equivalent to the reference again on fresh traffic."""
    if verify_packets <= 0:
        return
    # Align packet counters so traced verification events carry the same
    # packet indices on both sides (the reference replay advanced its
    # counter only for fallback packets).
    reference.packets_processed = dut.packets_processed
    verify_stream = StreamSpec(
        seed=stream.seed ^ VERIFY_SALT, count=verify_packets,
        udp_ratio=stream.udp_ratio,
    )
    for offset, (packet, ingress) in enumerate(verify_stream.build()):
        with kernel.dut("post-recovery verify"):
            dut_journey = dut.process_packet(packet.copy(), ingress)
        with kernel.reference("post-recovery verify"):
            ref_journey = reference.process_packet(packet.copy(), ingress)
        yield from kernel.compare(
            offset,
            kernel.observe(ref_journey.verdict, ref_journey.emitted),
            kernel.observe(dut_journey.verdict, dut_journey.emitted),
            ("reference", "recovered"), kind="post_recovery",
        )
        if dut_journey.degraded or dut_journey.queued:
            yield Finding(
                "post_recovery", offset,
                "recovered deployment still degrading after faults cleared:"
                f" {dut_journey.degraded_reason}",
            )
    yield from _final_state(reference, dut)
