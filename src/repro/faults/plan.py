"""The fault-plan DSL: declarative, serializable fault schedules.

A :class:`FaultPlan` is a tuple of fault specs, each a frozen dataclass
describing one injectable fault class and when it is active.  Plans are
pure data: the deterministic randomness lives in the
:class:`~repro.faults.injector.FaultInjector` that executes a plan under a
seed.  Plans serialize to JSON (``to_dict``/``from_dict``) so every
campaign failure can be committed as a reproducer, exactly like the
difftest corpus.

Fault classes
-------------
:class:`LinkFault`
    Per-frame loss or corruption on the switch↔server punt path, in one
    direction, with a probability, over a packet-index window.  A
    corrupted frame fails the receiver's FCS check and is discarded, so
    corruption degrades like loss but is accounted separately.
:class:`BatchFault`
    Control-plane RPC trouble: per-attempt transient failures
    (``"fail"`` = vetoed before the switch mutates, ``"timeout"`` = the
    batch lands but the confirmation is lost) plus a per-batch
    ``doom_probability`` for batches that fail every retry.
:class:`WritebackOverflow`
    Per-batch probability that the write-back stage reports capacity
    exhaustion — a permanent, non-retryable failure.
:class:`ServerCrash`
    The server dies at a packet index and stays down for a window; with
    ``lose_state`` the restart resynchronizes from the authoritative
    switch copy.
:class:`SwitchReprogram`
    The switch pipelines are unavailable for a window; the deployment
    runs server-only fallback and bulk-resyncs afterwards.
:class:`StaleReplication`
    Batches in the window take extra microseconds to become visible
    (replication lag); output commit stretches, semantics must not.
:class:`PuntReorder`
    Punts buffered during an outage drain in a shuffled order.

Failover fault classes (active-standby deployments only)
--------------------------------------------------------
:class:`PrimarySwitchCrash`
    The primary switch dies at a packet boundary; the deployment serves
    a promotion window on the server, then promotes the warm standby.
:class:`CrashDuringBatch`
    The primary's control-plane connection dies *mid batch*: the batch
    resolves transactionally from the undo log (roll forward or back),
    then the supervisor declares the primary dead from the next packet.
:class:`StandbyStaleReplay`
    Committed batches are probabilistically dropped on the replication
    path to the standby, so promotion must repair a stale standby via
    the bulk resync.

Pool fault classes (punt-path server pools only)
------------------------------------------------
:class:`PoolMemberCrash`
    One named pool member dies at a packet boundary and its flows stall
    through the bounded migration window; at the window's close the
    control plane migrates the member's owned flow state to the
    survivors (rebuilt from the switch's replicated copy and the
    server-only checkpoint).
:class:`PoolMemberDrain`
    One named member quiesces (stops accepting new punts) through a
    drain window, then hands its flow state off gracefully — same
    migration mechanics, zero reconstruction.

A fault that stays open for a bounded number of packets names the field
holding that number once, as its class's ``window_field``
(:func:`window_length` reads it).  :func:`generate_plan` draws a schedule
for whatever roles a :class:`~repro.runtime.spec.DeploymentSpec` names.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields as dataclass_fields
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Type

from repro.corpus_format import CorpusFormatError, fields_from
from repro.runtime.pool import default_member_names

if TYPE_CHECKING:
    from repro.runtime.spec import DeploymentSpec


def window_length(spec) -> Optional[int]:
    """Packets ``spec``'s window stays open once it opens; ``None`` for a
    kind without a bounded window."""
    name = getattr(spec, "window_field", None)
    return None if name is None else getattr(spec, name)


class _Ranged:
    """At risk on every packet of ``[start, stop)``; open-ended when
    ``stop`` is ``None``."""

    def active(self, index: int) -> bool:
        return index >= self.start and (
            self.stop is None or index < self.stop
        )


class _Placed:
    """Opens at ``at_packet`` and owns the packets of its window."""

    def active(self, index: int) -> bool:
        return self.at_packet <= index < self.at_packet + window_length(self)


@dataclass(frozen=True)
class LinkFault(_Ranged):
    kind = "link"
    direction: str = "to_server"  # "to_server" | "to_switch"
    mode: str = "loss"  # "loss" | "corrupt"
    probability: float = 0.1
    start: int = 0
    stop: Optional[int] = None


@dataclass(frozen=True)
class BatchFault(_Ranged):
    kind = "batch"
    mode: str = "fail"  # "fail" | "timeout"
    probability: float = 0.2
    doom_probability: float = 0.0
    start: int = 0
    stop: Optional[int] = None


@dataclass(frozen=True)
class WritebackOverflow(_Ranged):
    kind = "overflow"
    probability: float = 0.1
    start: int = 0
    stop: Optional[int] = None


@dataclass(frozen=True)
class ServerCrash(_Placed):
    kind = "crash"
    window_field = "outage"
    at_packet: int = 5
    outage: int = 5
    lose_state: bool = True


@dataclass(frozen=True)
class SwitchReprogram(_Placed):
    kind = "reprogram"
    window_field = "duration"
    at_packet: int = 5
    duration: int = 5


@dataclass(frozen=True)
class StaleReplication(_Ranged):
    kind = "stale"
    extra_us: float = 2_000.0
    probability: float = 0.5
    start: int = 0
    stop: Optional[int] = None


@dataclass(frozen=True)
class PuntReorder:
    kind = "reorder"

    def active(self, index: int) -> bool:  # applies at drain time
        return True


@dataclass(frozen=True)
class PrimarySwitchCrash(_Placed):
    kind = "switch_crash"
    window_field = "promotion_window"
    at_packet: int = 5
    #: packets served on the server before the standby is promoted
    promotion_window: int = 3


@dataclass(frozen=True)
class CrashDuringBatch(_Ranged):
    kind = "crash_batch"
    #: the window opens when the crash fires, anywhere in [start, stop)
    window_field = "promotion_window"
    probability: float = 0.5
    promotion_window: int = 3
    start: int = 0
    stop: Optional[int] = None


@dataclass(frozen=True)
class StandbyStaleReplay(_Ranged):
    kind = "standby_stale"
    probability: float = 0.3
    start: int = 0
    stop: Optional[int] = None


@dataclass(frozen=True)
class PoolMemberCrash(_Placed):
    kind = "pool_member_crash"
    window_field = "migration_window"
    member: str = "srv0"
    at_packet: int = 5
    #: packets before the crash migration completes (flows the member
    #: owned queue or degrade per policy while it is open)
    migration_window: int = 3


@dataclass(frozen=True)
class PoolMemberDrain(_Placed):
    kind = "pool_member_drain"
    window_field = "drain_window"
    member: str = "srv0"
    at_packet: int = 5
    #: packets the member quiesces for before the graceful handoff
    drain_window: int = 3


#: kind tag -> spec class, for (de)serialization.  Append-only: new
#: classes register at the end so ``ALL_FAULT_KINDS`` (and every summary
#: keyed on it) stays stable for existing scenarios.
FAULT_KINDS: Dict[str, Type] = {
    cls.kind: cls
    for cls in (
        LinkFault, BatchFault, WritebackOverflow, ServerCrash,
        SwitchReprogram, StaleReplication, PuntReorder,
        PrimarySwitchCrash, CrashDuringBatch, StandbyStaleReplay,
        PoolMemberCrash, PoolMemberDrain,
    )
}

#: every fault-class tag, in campaign-coverage order.
ALL_FAULT_KINDS: Tuple[str, ...] = tuple(FAULT_KINDS)

#: the kinds a server pool adds: membership changes, each ending in a
#: flow-state migration.
POOL_FAULT_KINDS: Tuple[str, ...] = ("pool_member_crash", "pool_member_drain")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of faults for one deployment run."""

    faults: Tuple = ()

    def kinds(self) -> Tuple[str, ...]:
        return tuple(sorted({spec.kind for spec in self.faults}))

    def by_kind(self, kind: str) -> List:
        return [spec for spec in self.faults if spec.kind == kind]

    def describe(self) -> str:
        if not self.faults:
            return "no faults"
        return "; ".join(_describe(spec) for spec in self.faults)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {"faults": [_spec_to_dict(spec) for spec in self.faults]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        faults = fields_from(data, cls, "fault_plan").get("faults", ())
        return cls(faults=tuple(_spec_from_dict(item) for item in faults))


def _spec_to_dict(spec) -> dict:
    out = {"kind": spec.kind}
    for spec_field in dataclass_fields(spec):
        out[spec_field.name] = getattr(spec, spec_field.name)
    return out


def _spec_from_dict(data: dict) -> object:
    kind = data.get("kind") if isinstance(data, dict) else None
    cls = FAULT_KINDS.get(kind)
    if cls is None:
        raise CorpusFormatError(
            f"fault_plan.faults: unknown fault kind {kind!r}"
            f" (known: {', '.join(FAULT_KINDS)})"
        )
    fields = {key: value for key, value in data.items() if key != "kind"}
    return cls(**fields_from(fields, cls, f"{kind} fault"))


def _describe(spec) -> str:
    if isinstance(spec, LinkFault):
        return (
            f"link {spec.mode} {spec.direction} p={spec.probability}"
            f" [{spec.start},{spec.stop})"
        )
    if isinstance(spec, BatchFault):
        return (
            f"batch {spec.mode} p={spec.probability}"
            f" doom={spec.doom_probability}"
        )
    if isinstance(spec, WritebackOverflow):
        return f"writeback overflow p={spec.probability}"
    if isinstance(spec, ServerCrash):
        state = "lose-state" if spec.lose_state else "keep-state"
        return f"server crash @{spec.at_packet}+{spec.outage} {state}"
    if isinstance(spec, SwitchReprogram):
        return f"switch reprogram @{spec.at_packet}+{spec.duration}"
    if isinstance(spec, StaleReplication):
        return f"stale replication +{spec.extra_us}µs p={spec.probability}"
    if isinstance(spec, PuntReorder):
        return "punt reorder on drain"
    if isinstance(spec, PrimarySwitchCrash):
        return (
            f"primary switch crash @{spec.at_packet}"
            f"+{spec.promotion_window}"
        )
    if isinstance(spec, CrashDuringBatch):
        return (
            f"crash during batch p={spec.probability}"
            f" window={spec.promotion_window} [{spec.start},{spec.stop})"
        )
    if isinstance(spec, StandbyStaleReplay):
        return (
            f"standby stale replay p={spec.probability}"
            f" [{spec.start},{spec.stop})"
        )
    if isinstance(spec, PoolMemberCrash):
        return (
            f"pool member {spec.member!r} crash"
            f" @{spec.at_packet}+{spec.migration_window}"
        )
    if isinstance(spec, PoolMemberDrain):
        return (
            f"pool member {spec.member!r} drain"
            f" @{spec.at_packet}+{spec.drain_window}"
        )
    return repr(spec)


# ---------------------------------------------------------------------------
# Randomized plan generation (the campaign's scenario source)
# ---------------------------------------------------------------------------


class _Schedule:
    """A plan under construction: the specs drawn so far and the packet
    windows they own."""

    def __init__(self, rng: random.Random, stream_len: int):
        self.rng = rng
        self.stream_len = stream_len
        self.specs: List = []
        #: [lo, hi) packet ranges already owned by a placed window
        self.reserved: List[Tuple[int, int]] = []

    def draw_length(self) -> int:
        return self.rng.randint(2, max(3, self.stream_len // 4))

    def place(self, length: int) -> Optional[int]:
        """Where a window of ``length`` packets opens, clear of every
        window placed before it; ``None`` after eight collisions.
        (Overlap is the degenerate total-outage case, exercised by the
        runtime's defensive path, not worth most of the budget.)"""
        for _ in range(8):
            at = self.rng.randrange(0, max(1, self.stream_len - 1))
            if all(
                at + length <= lo or at >= hi for lo, hi in self.reserved
            ):
                self.reserved.append((at, at + length))
                return at
        return None


def _draw_link(schedule: _Schedule) -> None:
    rng, stream_len = schedule.rng, schedule.stream_len
    start = rng.randrange(0, max(1, stream_len // 2))
    schedule.specs.append(LinkFault(
        direction=rng.choice(["to_server", "to_switch"]),
        mode=rng.choice(["loss", "loss", "corrupt"]),
        probability=rng.choice([0.05, 0.15, 0.3]),
        start=start,
        stop=rng.choice([None, start + rng.randint(3, stream_len)]),
    ))


def _draw_batch(schedule: _Schedule) -> None:
    rng = schedule.rng
    schedule.specs.append(BatchFault(
        mode=rng.choice(["fail", "timeout"]),
        probability=rng.choice([0.1, 0.25, 0.5]),
        doom_probability=rng.choice([0.0, 0.0, 0.1]),
    ))


def _draw_overflow(schedule: _Schedule) -> None:
    schedule.specs.append(
        WritebackOverflow(probability=schedule.rng.choice([0.05, 0.15]))
    )


def _draw_crash(schedule: _Schedule, lose_state_odds: float = 0.75) -> None:
    outage = schedule.draw_length()
    at = schedule.place(outage)
    if at is not None:
        schedule.specs.append(ServerCrash(
            at_packet=at, outage=outage,
            lose_state=schedule.rng.random() < lose_state_odds,
        ))


def _draw_reprogram(schedule: _Schedule) -> None:
    duration = schedule.draw_length()
    at = schedule.place(duration)
    if at is not None:
        schedule.specs.append(SwitchReprogram(at_packet=at, duration=duration))


def _draw_stale(schedule: _Schedule) -> None:
    rng = schedule.rng
    schedule.specs.append(StaleReplication(
        extra_us=rng.choice([500.0, 2_000.0, 10_000.0]),
        probability=rng.choice([0.25, 0.75]),
    ))


def _draw_reorder(schedule: _Schedule) -> None:
    schedule.specs.append(PuntReorder())
    # Reorder only matters when something queues punts: pair it with a
    # crash window if none was drawn.
    if not any(isinstance(spec, ServerCrash) for spec in schedule.specs):
        _draw_crash(schedule, lose_state_odds=0.5)


#: base kind -> its draw, in the order the base campaign shuffles them.
#: The order is part of every scenario's seed: append only.
_DRAW = {
    "link": _draw_link,
    "batch": _draw_batch,
    "overflow": _draw_overflow,
    "crash": _draw_crash,
    "reprogram": _draw_reprogram,
    "stale": _draw_stale,
    "reorder": _draw_reorder,
}

#: what is left of that menu under a standby or a pool, in the order
#: *their* campaigns shuffle it.  Both roles strike ``crash``,
#: ``reprogram`` and ``reorder``: those assume one switch and one server,
#: the reference replay models them so, and a member or primary outage
#: must never look like a whole-server or a reprogram outage.
_HOSTED_BESIDE_A_ROLE = ("link", "batch", "stale", "overflow")


def _draw_primary_crash(schedule: _Schedule) -> None:
    """A standby's kinds: exactly one primary crash — at a packet
    boundary, or mid-batch on the first punted batch the probability
    hits — and, more often than not, a lossy replay path to the standby
    for the promotion resync to repair."""
    rng, stream_len = schedule.rng, schedule.stream_len
    window = schedule.draw_length()
    if rng.random() < 0.5:
        at = rng.randrange(1, max(2, stream_len - 1))
        schedule.reserved.append((at, at + window))
        schedule.specs.append(
            PrimarySwitchCrash(at_packet=at, promotion_window=window)
        )
    else:
        start = rng.randrange(0, max(1, stream_len // 2))
        schedule.specs.append(CrashDuringBatch(
            probability=rng.choice([0.25, 0.5, 1.0]),
            promotion_window=window,
            start=start,
            stop=rng.choice([None, start + rng.randint(3, stream_len)]),
        ))
    if rng.random() < 0.6:
        schedule.specs.append(StandbyStaleReplay(
            probability=rng.choice([0.25, 0.5, 1.0]),
        ))


def _draw_membership_changes(schedule: _Schedule, members: List[str]) -> None:
    """A pool's kinds: a crash, a drain, or one of each, of distinct
    members, always leaving a survivor.  A pool of one has nobody to
    remove and keeps the shared draws only."""
    rng = schedule.rng
    removable = len(members) - 1
    if removable < 1:
        return
    pick = rng.randrange(3)  # 0: crash, 1: drain, 2: both
    if pick == 2 and removable < 2:
        pick = rng.randrange(2)
    changes: List[Type] = []
    if pick in (0, 2):
        changes.append(PoolMemberCrash)
    if pick in (1, 2):
        changes.append(PoolMemberDrain)
    shuffled = members[:]
    rng.shuffle(shuffled)
    for member, change in zip(shuffled, changes):
        window = schedule.draw_length()
        at = schedule.place(window)
        if at is not None:
            schedule.specs.append(change(
                member=member, at_packet=at,
                **{change.window_field: window},
            ))


def generate_plan(
    rng: random.Random, stream_len: int, spec: "DeploymentSpec"
) -> FaultPlan:
    """Draw a random, internally consistent fault schedule for a
    deployment of ``spec``'s roles.

    The paper's base deployment draws one to three kinds from the whole
    base menu.  Each non-default role first adds its own kinds, and what
    the roles leave of the base menu is drawn once, zero to two kinds.
    Every placed window — outage, reprogram, boundary crash, migration,
    drain — goes through one reservation list, so no two overlap.  (A
    bounded cache changes no schedule.)
    """
    schedule = _Schedule(rng, stream_len)
    if spec.standby_detection is not None:
        _draw_primary_crash(schedule)
    if spec.pool_servers:
        _draw_membership_changes(
            schedule, default_member_names(spec.pool_servers)
        )
    if spec.standby_detection is None and not spec.pool_servers:
        menu, fewest = list(_DRAW), 1
    else:
        menu, fewest = list(_HOSTED_BESIDE_A_ROLE), 0
    rng.shuffle(menu)
    for kind in menu[: rng.randint(fewest, fewest + 2)]:
        _DRAW[kind](schedule)
    return FaultPlan(faults=tuple(schedule.specs))
