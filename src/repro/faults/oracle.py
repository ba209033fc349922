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

Any breach is a :class:`FaultViolation` — by construction a real bug in
the runtime's fault handling (or a latent compiler bug), never noise.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.difftest.oracle import (
    DEFAULT_PORT_PAIRS,
    StreamSpec,
    _observe_fields,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.net.packet import RawPacket
from repro.partition.constraints import SwitchResources
from repro.partition.partitioner import PartitionError
from repro.partition.plan import PlacementKind
from repro.runtime.cache import BoundedCache, CacheConfigurationError
from repro.runtime.degradation import (
    DegradationPolicy,
    UNSALVAGEABLE_REASONS,
)
from repro.runtime.deployment import (
    GalliumMiddlebox,
    PacketJourney,
    PuntCompletion,
    compile_middlebox,
)
from repro.runtime.failover import ActiveStandby
from repro.runtime.pool import ServerPool, build_selector, default_member_names
from repro.switchsim.program import SwitchProgramError
from repro.switchsim.switch_model import SwitchOutput

#: XOR'd into the stream seed to derive the post-recovery verification
#: stream (must differ from the fault-phase stream).
VERIFY_SALT = 0xFA17

Observation = Tuple[str, Optional[int], Optional[Dict[str, int]]]


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
    #: unhandled exception anywhere in the pipeline
    CRASH = "crash"


@dataclass
class FaultViolation:
    kind: str  # "observable" | "path" | "policy" | "state" | "accounting" | "convergence" | "post_recovery"
    packet_index: Optional[int]
    detail: str

    def __str__(self) -> str:
        where = (
            f"packet #{self.packet_index}"
            if self.packet_index is not None else "final state"
        )
        return f"[{self.kind}] {where}: {self.detail}"


@dataclass
class PacketRecord:
    """What the faulty deployment did with one packet."""

    index: int
    kind: str  # "delivered" | "lost" | "degraded_drop" | "failed_open" | "queued"
    observation: Observation
    punted: bool = False
    fallback: bool = False
    queued: bool = False
    reason: Optional[str] = None


@dataclass
class FaultOracleResult:
    outcome: FaultOutcome
    violation: Optional[FaultViolation] = None
    error: Optional[str] = None
    packets_run: int = 0
    delivered: int = 0
    degraded: int = 0
    accounting: Dict = field(default_factory=dict)
    injected: Dict[str, int] = field(default_factory=dict)
    fault_kinds: Tuple[str, ...] = ()
    #: True when the scenario ran the bounded-cache deployment
    cached_mode: bool = False
    #: True when the scenario ran the active-standby failover deployment
    failover_mode: bool = False
    #: whether the failover DUT actually promoted its standby
    promoted: bool = False
    #: True when the scenario ran the punt-path server pool deployment
    pool_mode: bool = False
    #: pool member count (0 when not in pool mode)
    pool_servers: int = 0
    #: flow-state migrations the pool DUT ran (crash + drain)
    migrations: int = 0
    #: control-plane batches the DUT rolled back during the scenario
    #: (the ``control_plane.batches_rolled_back`` counter at finish)
    rollbacks: int = 0
    #: side-by-side trace provenance for a VIOLATION outcome: the scenario
    #: re-ran with tracing on both the DUT and the reference and the first
    #: divergent semantic event was pinpointed
    #: (:class:`repro.telemetry.diff.TraceDiff`); ``None`` when provenance
    #: was disabled or collection failed.
    trace_diff: Optional[object] = None


def _journey_observation(journey: PacketJourney) -> Observation:
    if journey.verdict != "send":
        return ("drop", None, None)
    if not journey.emitted:
        return ("send", None, None)
    port, packet = journey.emitted[0]
    return ("send", port, _observe_fields(packet))


def _switch_observation(out: SwitchOutput) -> Observation:
    if out.dropped or not out.emitted:
        return ("drop", None, None)
    port, packet = out.emitted[0]
    return ("send", port, _observe_fields(packet))


def _completion_observation(comp: PuntCompletion) -> Observation:
    if comp.verdict != "send" or not comp.emitted:
        return ("drop", None, None)
    port, packet = comp.emitted[0]
    return ("send", port, _observe_fields(packet))


def _record(journey: PacketJourney) -> PacketRecord:
    index = journey.packet_index
    assert index is not None
    if journey.queued and journey.verdict == "queued":
        return PacketRecord(index, "queued", ("drop", None, None),
                            punted=True, queued=True)
    observation = _journey_observation(journey)
    if journey.degraded:
        if journey.degraded_reason in UNSALVAGEABLE_REASONS:
            kind = "lost"
        elif journey.verdict == "send":
            kind = "failed_open"
        else:
            kind = "degraded_drop"
        return PacketRecord(
            index, kind, observation, punted=journey.punted,
            queued=journey.queued, reason=journey.degraded_reason,
        )
    return PacketRecord(
        index, "delivered", observation, punted=journey.punted,
        fallback=journey.fallback, queued=journey.queued,
    )


def run_fault_oracle(
    source_or_lowered,
    stream: StreamSpec,
    fault_plan: FaultPlan,
    policy: Optional[DegradationPolicy] = None,
    injector_seed: int = 0,
    deployment_seed: int = 0,
    limits: Optional[SwitchResources] = None,
    config: Optional[Dict[int, list]] = None,
    verify_packets: int = 12,
    cached: bool = False,
    cache_entries: int = 2,
    failover: bool = False,
    detection: str = "phi",
    pool: int = 0,
    provenance: bool = True,
    _telemetry: Optional[tuple] = None,
) -> FaultOracleResult:
    """Drive one program through one fault schedule and verify it.

    ``cached``, ``failover`` and ``pool`` each switch one role of the
    deployment under test (see :mod:`repro.runtime`); the clean reference
    always keeps the single-switch, single-server defaults and shares
    only the DUT's switch state policy.

    With ``cached`` both run the bounded-cache state policy; programs that
    cannot run in cache mode (no replicated tables, or a register-mutating
    switch pipeline) are REJECTED, mirroring the compile-time refusals.

    With ``failover`` the DUT runs on an active-standby pair.  The
    ``("promote",)`` effect-log tag replays as a no-op on a
    full-replication reference — the promotion resync leaves the pair
    exactly where a healthy single switch would be, which is precisely the
    property under test — and as a bulk resync on a cached reference: the
    promotion rebuilt the promoted switch's bounded cache and FIFO order
    from the server's authoritative copy, so the reference must
    re-converge its own cache at the same log point.

    ``detection`` picks the failover DUT's crash detector: ``"phi"``
    (default) drives promotion from the φ-accrual heartbeat monitor —
    the promotion window's length is the *measured* detection latency —
    while ``"exact"`` keeps the fault-window-boundary oracle reference.
    Both replay cleanly: the reference replays the DUT's own effect log,
    so a φ-extended window simply contributes more ``("fallback", ...)``
    entries.

    With ``pool`` > 0 the DUT punts into a server pool of that many
    members.  All members execute against one authoritative store, so a
    correct pool *is* byte-equivalent to the single-server reference, and
    the ``("pool_down", ...)`` / ``("pool_migrate", ...)`` effect-log tags
    replay as no-ops — a correct migration is an identity transform on
    committed state, which the observable/final-state/convergence checks
    then verify.  The extra :func:`_check_pool` pass asserts the
    no-fallback-while-survivors-exist guarantee and bounds the blast
    radius of each member outage to the flows an independently rebuilt
    selector says the member owned.

    With ``provenance`` (the default), a VIOLATION outcome re-runs the
    whole scenario with per-packet tracing on both deployments (the run is
    fully seeded, so it reproduces exactly) and attaches the trace diff
    pinpointing the first divergent semantic event.  Shrinker predicates
    pass ``provenance=False``.  ``_telemetry`` is the internal hook the
    provenance re-run uses: a ``(dut_telemetry, reference_telemetry)``
    pair threaded into the two deployments.
    """
    if pool and failover:
        # The runtime composes the two; what is missing is a fault-plan
        # generator that mixes member crashes with primary crashes, and a
        # pool plan alone would leave the standby untested.
        raise ValueError(
            "the fault harness has no plan generator mixing pool and"
            " failover fault kinds yet — run --servers and --failover"
            " campaigns separately"
        )
    pool_members = default_member_names(pool) if pool else []
    policy = policy or DegradationPolicy()
    dut_telemetry = _telemetry[0] if _telemetry is not None else None
    ref_telemetry = _telemetry[1] if _telemetry is not None else None
    try:
        plan, program = compile_middlebox(source_or_lowered, limits)
    except (PartitionError, SwitchProgramError) as exc:
        # Both are deliberate refusals: the partitioner could not satisfy
        # the resource constraints, or the generated switch program blew
        # an architectural budget (e.g. the Constraint-5 shim limit).
        return FaultOracleResult(FaultOutcome.REJECTED, error=str(exc))
    except Exception:
        return FaultOracleResult(
            FaultOutcome.CRASH, error=f"compile:\n{traceback.format_exc()}"
        )

    injector = FaultInjector(
        fault_plan, seed=injector_seed,
        max_attempts=policy.retry.max_attempts,
    )

    def deploy(**roles_and_faults) -> GalliumMiddlebox:
        box = GalliumMiddlebox(
            plan, program, port_pairs=dict(DEFAULT_PORT_PAIRS),
            config=config, seed=deployment_seed,
            state_policy=BoundedCache(cache_entries) if cached else None,
            **roles_and_faults,
        )
        box.install()
        return box

    try:
        dut = deploy(
            redundancy=ActiveStandby(detection) if failover else None,
            punt_target=ServerPool(pool) if pool else None,
            policy=policy, injector=injector, telemetry=dut_telemetry,
        )
        reference = deploy(telemetry=ref_telemetry)
    except CacheConfigurationError as exc:
        return FaultOracleResult(
            FaultOutcome.REJECTED, error=str(exc), cached_mode=True
        )
    except Exception:
        return FaultOracleResult(
            FaultOutcome.CRASH, error=f"deploy:\n{traceback.format_exc()}",
            cached_mode=cached,
        )

    packets = stream.build()
    records: Dict[int, PacketRecord] = {}
    try:
        for index, (packet, ingress) in enumerate(packets):
            journey = dut.process_packet(packet.copy(), ingress)
            records[journey.packet_index] = _record(journey)
            for deferred in dut.drain_deferred():
                records[deferred.packet_index] = _record(deferred)
        dut.recover()
        for deferred in dut.drain_deferred():
            records[deferred.packet_index] = _record(deferred)
    except Exception:
        return FaultOracleResult(
            FaultOutcome.CRASH, packets_run=len(records),
            error=f"fault run:\n{traceback.format_exc()}",
            cached_mode=cached,
        )

    def finish(violation: Optional[FaultViolation]) -> FaultOracleResult:
        degraded = sum(
            1 for record in records.values() if record.kind != "delivered"
        )
        faulted = bool(injector.injected) or degraded or (
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
        return FaultOracleResult(
            outcome=outcome,
            violation=violation,
            packets_run=len(packets),
            delivered=len(records) - degraded,
            degraded=degraded,
            accounting=dut.accounting.as_dict(),
            injected=dict(injector.injected),
            fault_kinds=fault_plan.kinds(),
            cached_mode=cached,
            failover_mode=failover,
            promoted=dut.redundancy.promoted,
            pool_mode=bool(pool),
            pool_servers=pool,
            migrations=dut.telemetry.metrics.counter_value(
                "pool.migrations"
            ) if pool else 0,
            rollbacks=dut.telemetry.metrics.counter_value(
                "control_plane.batches_rolled_back"
            ),
        )

    violation = _check_accounting(dut, records, len(packets))
    if violation is None and pool:
        violation = _check_pool(
            dut, records, packets, fault_plan, pool_members, deployment_seed
        )
    if violation is None:
        try:
            violation = _replay_reference(
                reference, dut, records, packets, policy
            )
        except Exception:
            return FaultOracleResult(
                FaultOutcome.CRASH, packets_run=len(packets),
                error=f"reference replay:\n{traceback.format_exc()}",
                cached_mode=cached,
            )
    if violation is None:
        violation = _check_convergence(dut) or _check_final_state(
            dut, reference
        )
    if violation is None:
        try:
            violation = _verify_recovered(
                dut, reference, stream, verify_packets
            )
        except Exception:
            return FaultOracleResult(
                FaultOutcome.CRASH, packets_run=len(packets),
                error=f"post-recovery verify:\n{traceback.format_exc()}",
                cached_mode=cached,
            )
    result = finish(violation)
    if (
        provenance
        and _telemetry is None
        and result.outcome is FaultOutcome.VIOLATION
    ):
        result.trace_diff = _collect_fault_provenance(
            source_or_lowered, stream, fault_plan, policy=policy,
            injector_seed=injector_seed, deployment_seed=deployment_seed,
            limits=limits, config=config, verify_packets=verify_packets,
            cached=cached, cache_entries=cache_entries, failover=failover,
            detection=detection, pool=pool,
        )
    return result


def _collect_fault_provenance(source_or_lowered, stream, fault_plan,
                              **kwargs):
    """Re-run the violating scenario with tracing on both deployments.

    Everything is seeded and tracing never consumes randomness, so the
    re-run reproduces the violation exactly; the reference's replayed
    events are attributed to the DUT's packet indices (see
    :func:`_replay_reference`).  Best-effort: any exception yields
    ``None`` rather than masking the violation.
    """
    from repro.telemetry import Telemetry
    from repro.telemetry.diff import diff_traces

    try:
        dut_telemetry = Telemetry(tracing=True)
        ref_telemetry = Telemetry(tracing=True)
        run_fault_oracle(
            source_or_lowered, stream, fault_plan,
            provenance=False, _telemetry=(dut_telemetry, ref_telemetry),
            **kwargs,
        )
        return diff_traces(
            ref_telemetry.tracer, dut_telemetry.tracer,
            lhs_label="reference", rhs_label="deployment",
        )
    except Exception:
        return None


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _check_accounting(
    dut: GalliumMiddlebox, records: Dict[int, PacketRecord], total: int
) -> Optional[FaultViolation]:
    """Every packet classified, no punts stranded in the queue, and the
    drop ledger agrees with the per-packet records."""
    missing = [index for index in range(total) if index not in records]
    if missing:
        return FaultViolation(
            "accounting", missing[0],
            f"{len(missing)} packets have no journey at all: {missing[:5]}",
        )
    stuck = [r.index for r in records.values() if r.kind == "queued"]
    if stuck:
        return FaultViolation(
            "accounting", stuck[0],
            f"punts still queued after recovery: {stuck[:5]}",
        )
    recorded_degraded = sum(
        1 for record in records.values() if record.kind != "delivered"
    )
    if recorded_degraded != dut.accounting.degraded_total:
        return FaultViolation(
            "accounting", None,
            f"drop ledger says {dut.accounting.degraded_total} degraded,"
            f" journeys say {recorded_degraded}",
        )
    return None


def _check_pool(
    dut: GalliumMiddlebox,
    records: Dict[int, PacketRecord],
    packets: List[Tuple[RawPacket, int]],
    fault_plan,
    pool_members: List[str],
    deployment_seed: int,
) -> Optional[FaultViolation]:
    """Pool-specific guarantees, checked against an independent rebuild.

    A member outage must degrade only the flows that member owns — never
    the whole punt path — so: (1) full fallback never engages while at
    least one member survives (generated pool plans always leave one),
    (2) every stalled packet was attributed to a member that really was
    down at that index, and whose slot the oracle's own reconstruction
    of the member table (a pure function of names, seed, and slots)
    assigns to that member, (3) every queue/degrade event with a pool
    reason maps back to an attributed packet and vice versa, and (4)
    each membership-change spec ran exactly one migration.
    """
    pool_specs = [
        spec
        for kind in ("pool_member_crash", "pool_member_drain")
        for spec in fault_plan.by_kind(kind)
    ]
    for event in dut.fault_log:
        if event[0] == "fallback":
            return FaultViolation(
                "pool", event[1],
                "full fallback engaged while pool members survived"
                f" (live: {sorted(dut.pool.members)})",
            )
    migrations = dut.telemetry.metrics.counter_value("pool.migrations")
    if migrations != len(pool_specs):
        return FaultViolation(
            "pool", None,
            f"{len(pool_specs)} membership-change specs but"
            f" {migrations} migrations ran",
        )

    def members_at(index: int) -> List[str]:
        gone = {
            spec.member for spec in pool_specs
            if spec.at_packet + spec.window_length <= index
        }
        return [name for name in pool_members if name not in gone]

    for index in sorted(dut.pool.affected):
        member, slot = dut.pool.affected[index]
        if not any(
            spec.member == member and spec.active(index)
            for spec in pool_specs
        ):
            return FaultViolation(
                "pool", index,
                f"packet stalled on member {member!r} outside any"
                " membership-change window",
            )
        selector = build_selector(
            members_at(index), deployment_seed,
            slots=dut.pool.selector.slots,
        )
        if selector.member_table()[slot] != member:
            return FaultViolation(
                "pool", index,
                f"blast radius mismatch: DUT pinned slot {slot} to"
                f" {member!r} but the rebuilt member table assigns it to"
                f" {selector.member_table()[slot]!r}",
            )
        record = records.get(index)
        if record is None or not (
            record.queued or record.reason == "pool_member_down"
        ):
            return FaultViolation(
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
            return FaultViolation(
                "pool", record.index,
                "packet degraded with reason 'pool_member_down' but no"
                " member outage was attributed to it",
            )
    return None


def _pristine(packets: List[Tuple[RawPacket, int]], index: int) -> RawPacket:
    packet, ingress = packets[index]
    clone = packet.copy()
    clone.ingress_port = ingress
    return clone


def _replay_reference(
    reference: GalliumMiddlebox,
    dut: GalliumMiddlebox,
    records: Dict[int, PacketRecord],
    packets: List[Tuple[RawPacket, int]],
    policy: DegradationPolicy,
) -> Optional[FaultViolation]:
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
    """
    cached = bool(reference.state_policy.bounded_tables)
    held: Dict[int, RawPacket] = {}
    expected: Dict[int, Observation] = {}
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
            # Pool membership changes replay as no-ops: the DUT's
            # migration must be an identity transform on committed state
            # (delete + rebuild from the switch copy / server-only
            # checkpoint), so a buggy migration surfaces in the
            # observable / convergence / final-state checks instead.
            continue
        if ref_tracer is not None and len(event) > 1:
            ref_tracer.begin_packet(event[1])
        if tag == "ingress":
            _, index, ingress = event
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
                    completion = reference.complete_punt(
                        _pristine(packets, index)
                    )
                    expected[index] = _completion_observation(completion)
                else:
                    expected[index] = _switch_observation(out)
                continue
            if (frame is not None) != dut_punted:
                return FaultViolation(
                    "path", index,
                    f"reference {'punted' if frame is not None else 'fast-pathed'}"
                    f" but deployment {'punted' if dut_punted else 'fast-pathed'}"
                    " — switch state diverged before this packet",
                )
            if frame is not None:
                held[index] = frame
            else:
                expected[index] = _switch_observation(out)
        elif tag == "serve":
            index = event[1]
            if index not in held:
                return FaultViolation(
                    "path", index,
                    "deployment served a punt the reference never emitted",
                )
            completion = reference.complete_punt(held.pop(index))
            expected[index] = _completion_observation(completion)
        elif tag == "drop_punt":
            held.pop(event[1], None)
        elif tag == "fallback":
            _, index, ingress = event
            # Align the reference's internal packet counter so its traced
            # events carry the DUT's index for this packet.
            reference.packets_processed = index
            journey = reference.process_packet(
                packets[index][0].copy(), ingress
            )
            expected[index] = _journey_observation(journey)
        elif tag == "crash":
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
            # the same log point.
            if cached:
                reference.sync_all_state()
        else:  # pragma: no cover - log tags are closed
            raise AssertionError(f"unknown fault-log tag {tag!r}")
    if held:
        index = sorted(held)[0]
        return FaultViolation(
            "path", index,
            f"reference still holds {len(held)} punts the deployment"
            " neither served nor discarded",
        )

    for index, record in sorted(records.items()):
        if record.kind == "delivered":
            want = expected.get(index)
            if want is None:
                return FaultViolation(
                    "observable", index,
                    "delivered packet has no corresponding effect-log entry",
                )
            if record.observation != want:
                return FaultViolation(
                    "observable", index,
                    f"deployment={record.observation!r}"
                    f" reference={want!r}",
                )
        elif record.kind == "lost":
            if record.observation[0] != "drop":
                return FaultViolation(
                    "policy", index,
                    f"lost packet ({record.reason}) must observe as a drop,"
                    f" got {record.observation!r}",
                )
        elif record.kind == "degraded_drop":
            if policy.fail_open:
                return FaultViolation(
                    "policy", index,
                    f"fail-open policy but packet dropped ({record.reason})",
                )
            if record.observation[0] != "drop":
                return FaultViolation(
                    "policy", index,
                    f"fail-closed degradation must drop,"
                    f" got {record.observation!r}",
                )
        elif record.kind == "failed_open":
            if not policy.fail_open:
                return FaultViolation(
                    "policy", index,
                    f"fail-closed policy but packet forwarded"
                    f" ({record.reason})",
                )
            packet, ingress = packets[index]
            want_port = DEFAULT_PORT_PAIRS.get(ingress, ingress)
            want = ("send", want_port, _observe_fields(packet))
            if record.observation != want:
                return FaultViolation(
                    "policy", index,
                    "fail-open must forward the pristine packet on the"
                    f" bypass pair: got {record.observation!r},"
                    f" want {want!r}",
                )
    return None


def _check_convergence(dut: GalliumMiddlebox) -> Optional[FaultViolation]:
    """Post-recovery: the switch's replicated copies must equal the
    server's authoritative state — the no-silent-divergence guarantee.

    Bounded cache tables hold a *subset* by design, so for them the check
    weakens to coherence: every cached entry must match the authoritative
    value, and the cache must respect its size bound.
    """
    cached_tables = dut.state_policy.bounded_tables
    for name, placement in dut.plan.placements.items():
        if placement.kind is not PlacementKind.REPLICATED_TABLE:
            continue
        snapshot = dut.switch.tables[name].snapshot()
        if name in cached_tables:
            server_map = dut.state.maps[name]
            stale = {
                keys: value
                for keys, value in snapshot.items()
                if server_map.get(keys) != value
            }
            if stale:
                return FaultViolation(
                    "convergence", None,
                    f"cached table {name!r} holds entries with no"
                    f" authoritative backing: {stale!r}",
                )
            if len(snapshot) > dut.state_policy.cache_entries:
                return FaultViolation(
                    "convergence", None,
                    f"cached table {name!r} holds {len(snapshot)} entries"
                    f" (bound is {dut.state_policy.cache_entries})",
                )
            continue
        if placement.member.kind == "map":
            switch_copy = dict(snapshot)
            server_copy = dict(dut.state.maps[name])
        else:
            # Vectors replicate as index-keyed entries; zero-valued slots
            # may or may not be materialized on the switch, so compare the
            # non-zero support.
            switch_copy = {k: v for k, v in snapshot.items() if v}
            server_copy = {
                (index,): value
                for index, value in enumerate(dut.state.vectors[name])
                if value
            }
        if switch_copy != server_copy:
            return FaultViolation(
                "convergence", None,
                f"replicated table {name!r} diverged:"
                f" switch={switch_copy!r} server={server_copy!r}",
            )
    return None


def _normalized_state(deployment: GalliumMiddlebox) -> dict:
    state = deployment.state.snapshot()
    for name, placement in deployment.plan.placements.items():
        if placement.kind in (
            PlacementKind.SWITCH_REGISTER,
            PlacementKind.REPLICATED_REGISTER,
        ):
            # The switch copy is the one the data plane reads.
            state["scalars"][name] = deployment.switch.registers[name].value
    return state


def _check_final_state(
    dut: GalliumMiddlebox, reference: GalliumMiddlebox
) -> Optional[FaultViolation]:
    dut_state = _normalized_state(dut)
    ref_state = _normalized_state(reference)
    for section in ("maps", "scalars", "vectors"):
        if dut_state[section] != ref_state[section]:
            return FaultViolation(
                "state", None,
                f"{section}: deployment={dut_state[section]!r}"
                f" reference={ref_state[section]!r}",
            )
    return None


def _verify_recovered(
    dut: GalliumMiddlebox,
    reference: GalliumMiddlebox,
    stream: StreamSpec,
    verify_packets: int,
) -> Optional[FaultViolation]:
    """Faults are cleared: the recovered deployment must be functionally
    equivalent to the reference again on fresh traffic."""
    if verify_packets <= 0:
        return None
    # Align packet counters so traced verification events carry the same
    # packet indices on both sides (the reference replay advanced its
    # counter only for fallback packets).
    reference.packets_processed = dut.packets_processed
    verify_stream = StreamSpec(
        seed=stream.seed ^ VERIFY_SALT, count=verify_packets,
        udp_ratio=stream.udp_ratio,
    )
    for offset, (packet, ingress) in enumerate(verify_stream.build()):
        dut_journey = dut.process_packet(packet.copy(), ingress)
        ref_journey = reference.process_packet(packet.copy(), ingress)
        dut_obs = _journey_observation(dut_journey)
        ref_obs = _journey_observation(ref_journey)
        if dut_obs != ref_obs:
            return FaultViolation(
                "post_recovery", offset,
                f"verification packet diverged: recovered={dut_obs!r}"
                f" reference={ref_obs!r}",
            )
        if dut_journey.degraded or dut_journey.queued:
            return FaultViolation(
                "post_recovery", offset,
                "recovered deployment still degrading after faults cleared:"
                f" {dut_journey.degraded_reason}",
            )
    return _check_final_state(dut, reference)
