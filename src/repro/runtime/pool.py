"""Punt-path server pool: N members behind a connection-consistent selector.

The base :class:`~repro.runtime.deployment.GalliumMiddlebox` punts every
slow-path packet to one :class:`~repro.runtime.server.ServerRuntime` —
the last single point of failure once the switch side has active-standby
failover.  :class:`PooledDeployment` replaces that single server with a
:class:`ServerPool`: the switch-side :class:`FlowSelector` (the P4
ActionSelector model) hashes each punted flow's canonical 5-tuple into a
slot table, the slot resolves to one pool member, and every packet of a
connection — both directions — is served by that member.

**State pinning.**  All members execute against the deployment's one
authoritative :class:`StateStore` (semantics stay byte-identical to the
single-server deployment for every program — exactly what the fault
oracle's reference replay requires), and the pool keeps an *ownership
ledger* on top: every state entry a punt writes is pinned to the serving
slot (maps per key, scalars/vectors whole).  Ownership commits only
after the punt's update batch lands, so a rolled-back write-back leaves
the ledger untouched.

**Membership change = live flow-state migration.**  When a member
crashes or drains, the slots it owned re-home (rendezvous hashing moves
*only* those slots) and the control plane migrates the state those slots
own to the surviving members:

* crash — the dead member's copy is gone, so every owned entry is
  physically rebuilt from the authoritative sources: the switch's
  replicated copy for on-switch state (last-committed by construction of
  the transactional write-back protocol) and the controller's per-punt
  checkpoint for server-only state.  Byte-exact, and a real recovery
  path the fault oracle can catch bugs in.
* drain — the member is alive, so the transfer is lossless; the entries
  are counted and priced but nothing needs reconstruction.

Membership changes only through the fault plan (``pool_member_crash`` /
``pool_member_drain``); nothing adds a member after install.

During the bounded migration window (``at_packet`` until the window
closes) punts owned by the down member queue in the deployment's bounded
punt queue — overflow degrades with the dedicated ``pool_member_down``
reason — while every other member keeps serving; the migration itself
advances the simulated clock by :func:`repro.sim.clock.migration_us` so
``experiments recovery`` can price it next to switch-failover cost.  A
member outage must never trip full switch-side fallback while at least
one member survives; the pool-aware fault oracle asserts exactly that,
plus that every stalled packet's flow was owned by a then-down member
(the blast radius).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.net.packet import RawPacket
from repro.partition.plan import PartitionPlan
from repro.runtime import state_image
from repro.runtime.deployment import GalliumMiddlebox, Role
from repro.runtime.server import ServerRuntime
from repro.sim.clock import migration_us
from repro.switchsim.selector import FlowSelector
from repro.telemetry import LATENCY_BOUNDS_US

#: XOR'd into the deployment seed to derive the selector's hash seed
#: (distinct stream from the control plane's jitter RNG).
_SELECTOR_SALT = 0x5E1EC7

#: fault-plan kinds this deployment reacts to (string literals rather
#: than an import from :mod:`repro.faults.plan` — the runtime layer must
#: not depend on the fault DSL).
_POOL_FAULT_KINDS = ("pool_member_crash", "pool_member_drain")


def default_member_names(servers: int) -> List[str]:
    """``srv0..srvN-1`` for ``--servers N``; validates early and loudly."""
    if isinstance(servers, bool) or not isinstance(servers, int):
        raise ValueError(
            f"server pool size must be an integer, got {servers!r}"
        )
    if servers < 1:
        raise ValueError(
            f"a server pool needs at least one member, got servers={servers}"
        )
    return [f"srv{i}" for i in range(servers)]


@dataclass
class PoolMember:
    """One simulated server in the pool."""

    name: str
    runtime: ServerRuntime
    #: punts this member completed (committed batches only)
    punts_served: int = 0
    #: packets stalled (queued or degraded) while this member was down
    stalled_packets: int = 0


def build_selector(
    member_names: Sequence[str], deployment_seed: int
) -> FlowSelector:
    """The member table is a pure function of (names, seed); the fault
    oracle rebuilds it independently to check blast radius."""
    return FlowSelector(member_names, seed=deployment_seed ^ _SELECTOR_SALT)


class ServerPool(Role):
    """Punt target: members + selector + ownership ledger + checkpoint of
    the state a crash migration cannot read back from the switch."""

    def __init__(self, servers: int = 2):
        # Validate the pool shape before any deployment machinery spins up
        # — a bad --servers value must fail here, loudly, not deep inside
        # install().
        self._names = default_member_names(servers)

    def bind(self, box: GalliumMiddlebox) -> None:
        super().bind(box)
        self.plan = box.plan
        self.selector = build_selector(self._names, box.seed)
        self.members: Dict[str, PoolMember] = {
            name: PoolMember(name=name, runtime=box.build_server_runtime())
            for name in self._names
        }
        self.retired: Dict[str, PoolMember] = {}
        # `box.server` always points at a live member (route() re-points
        # it per punt).
        box.server = self.members[self.selector.members[0]].runtime
        #: map name -> key -> owning slot (last committed writer)
        self.map_owner: Dict[str, Dict[tuple, int]] = {}
        #: scalar/vector name -> owning slot (member-granular state)
        self.state_owner: Dict[str, int] = {}
        #: packet index -> (member, slot) whose outage stalled it; the
        #: fault oracle rebuilds the member table independently and
        #: checks this blast-radius attribution entry by entry
        self.affected: Dict[int, Tuple[str, int]] = {}
        #: image of the members the switch holds no complete copy of
        self._checkpoint: state_image.Image = {}
        metrics = box.telemetry.metrics
        self._c_migrations = metrics.counter("pool.migrations")
        self._c_migrated_entries = metrics.counter("pool.migrated_entries")
        self._c_member_crashes = metrics.counter("pool.member_crashes")
        self._c_member_drains = metrics.counter("pool.member_drains")
        # Membership changes only through the fault plan, which never
        # joins a member; the counter stays registered at 0.
        metrics.counter("pool.member_joins")
        self._h_migration_us = metrics.histogram(
            "pool.migration_us", LATENCY_BOUNDS_US
        )
        self._windows_started: set = set()
        self._windows_done: set = set()

    # -- routing -------------------------------------------------------------

    def _owner(self, packet: RawPacket) -> Tuple[PoolMember, int]:
        """(owning member, slot) for one punted packet."""
        slot = self.selector.slot_for_packet(packet)
        return self.members[self.selector.member_table()[slot]], slot

    def route(self, packet: RawPacket):
        member, slot = self._owner(packet)
        self.box.server = member.runtime
        return member.runtime, (member, slot)

    def down(self, frame: RawPacket, index: int) -> Optional[str]:
        """A member outage stalls only the flows that member owns."""
        injector = self.box.injector
        if injector.server_down(index):
            return "queue_overflow"
        member, slot = self._owner(frame)
        if injector.pool_member_down(member.name, index):
            self.affected[index] = (member.name, slot)
            member.stalled_packets += 1
            return "pool_member_down"
        return None

    # -- ownership + checkpoint ----------------------------------------------

    def committed(self, runtime: ServerRuntime, ticket) -> None:
        """Pin the punt's committed writes to its slot and move the
        checkpoint of the switch-unbacked members by the same writes.

        Called only after the update batch landed — a rolled-back punt
        never reaches this, so ledger and checkpoint always describe the
        last *committed* state (mirroring the switch's replicated copy).
        """
        member, slot = ticket
        member.punts_served += 1
        journal = runtime.last_journal
        for op, name, keys, _value in journal:
            placement = self.plan.placements.get(name)
            if placement is None:
                continue
            if placement.member.kind == "map":
                owners = self.map_owner.setdefault(name, {})
                if op == "erase":
                    owners.pop(tuple(keys), None)
                else:
                    owners[tuple(keys)] = slot
            else:
                self.state_owner[name] = slot
        state_image.replay(self._checkpoint, journal)

    def _switch_backed(self, name: str) -> bool:
        """Whether the switch holds a *complete* copy of ``name`` a crash
        migration can rebuild from: on the switch, and not a table the
        state policy keeps only a bounded subset of."""
        return (
            self.plan.placements[name].on_switch
            and name not in self.box.state_policy.bounded_tables
        )

    def rebase(self) -> None:
        """Re-point every member at the deployment's (re)built store and
        re-baseline the checkpoint: install time, after a crash resync,
        and at the close of a fallback window — its packets ran the
        complete program with no punt to commit, so neither the
        per-punt checkpoint nor the switch copy saw their writes until
        the bulk resync this call follows."""
        state = self.box.state
        for member in (*self.members.values(), *self.retired.values()):
            member.runtime.state = state
        self._checkpoint = state_image.from_store(state, (
            placement for name, placement in self.plan.placements.items()
            if not self._switch_backed(name)
        ), {})

    # -- migration -----------------------------------------------------------

    def count_owned(self, slots: FrozenSet[int]) -> int:
        """Entries pinned to ``slots`` (a graceful drain's transfer size)."""
        entries = 0
        for name, placement in self.plan.placements.items():
            kind = placement.member.kind
            if kind == "map":
                entries += sum(
                    1 for slot in self.map_owner.get(name, {}).values()
                    if slot in slots
                )
            elif self.state_owner.get(name) in slots:
                entries += (
                    len(self.box.state.vectors[name])
                    if kind == "vector" else 1
                )
        return entries

    def restore_owned(self, slots: FrozenSet[int]) -> int:
        """Crash migration: rebuild every entry ``slots`` own from the
        authoritative sources (switch replicated copy / checkpoint);
        returns the entry count.

        At a packet boundary both sources equal the live value — the
        write-back protocol commits before release, and the checkpoint
        refreshes per committed punt — so a correct migration is an
        identity transform on the shared store.  The rebuild is done
        physically anyway: a bug in either source (or in ownership
        tracking) surfaces as an oracle violation instead of hiding
        behind shared memory.
        """
        state = self.box.state
        entries = 0
        for name, placement in self.plan.placements.items():
            kind = placement.member.kind
            if kind == "map":
                owners = self.map_owner.get(name, {})
                keys = [k for k, slot in owners.items() if slot in slots]
                if not keys:
                    continue
                source = self._authority(placement)[name]
                table = state.maps[name]
                for key in keys:
                    if key in source:
                        table[key] = source[key]
                    else:
                        table.pop(key, None)
                entries += len(keys)
            elif self.state_owner.get(name) in slots:
                entries += len(state.vectors[name]) if kind == "vector" else 1
                state_image.to_store(
                    state, (placement,), self._authority(placement)
                )
        return entries

    def _authority(self, placement) -> state_image.Image:
        """The image a crash migration rebuilds a member from: the
        switch's, when it holds a complete copy, else the checkpoint."""
        if self._switch_backed(placement.member.name):
            return state_image.from_switch(self.box.switch, (placement,), {})
        return self._checkpoint

    # -- membership-change windows -------------------------------------------

    def advance_windows(self, index: int) -> None:
        box = self.box
        injector = box.injector
        for spec in (
            spec
            for kind in _POOL_FAULT_KINDS
            for spec in injector.plan.by_kind(kind)
        ):
            if index < spec.at_packet or spec in self._windows_done:
                continue
            if spec not in self._windows_started:
                self._windows_started.add(spec)
                if spec.member not in self.members:
                    raise ValueError(
                        f"pool fault {spec.kind!r} references unknown"
                        f" member {spec.member!r}"
                        f" (live: {sorted(self.members)})"
                    )
                box.fault_log.append(("pool_down", spec.kind, spec.member))
                injector.note(f"{spec.kind}[{spec.member}]")
                if spec.kind == "pool_member_crash":
                    self._c_member_crashes.inc()
                else:
                    self._c_member_drains.inc()
                if box._tracer is not None:
                    box._tracer.record(
                        "pool_member_down", component="deployment",
                        member=spec.member, fault=spec.kind,
                    )
            if injector.pool_member_down(
                spec.member, index
            ) or box.switch_unavailable(index):
                # Migration window still open — or a fallback window is:
                # both sources a migration rebuilds from are stale until
                # it closes, and the punts it releases need a live
                # switch.  The migration runs at that close instead.
                continue
            self._windows_done.add(spec)
            entries = self._migrate(
                spec.member, crash=spec.kind == "pool_member_crash"
            )
            box.fault_log.append(("pool_migrate", spec.member, entries))
            box.drain_punt_queue()

    def _price_migration(self, entries: int) -> None:
        cost_us = migration_us(entries)
        self.box.telemetry.clock.advance(cost_us)
        self._c_migrations.inc()
        self._c_migrated_entries.inc(entries)
        self._h_migration_us.observe(cost_us)

    def _migrate(self, member_name: str, crash: bool) -> int:
        """Re-home ``member_name``'s slots and migrate the state they own;
        returns the migrated entry count (the priced transfer size)."""
        if member_name not in self.members:
            return 0
        if len(self.selector.members) == 1:
            # Defensive: generated plans always leave a survivor, but a
            # hand-written plan may not — keep the last member serving
            # rather than migrating into nothing.
            return 0
        slots = frozenset(self.selector.slots_owned(member_name))
        if crash:
            entries = self.restore_owned(slots)
        else:
            entries = self.count_owned(slots)
        # Retire the member: the selector re-homes only its slots.
        self.selector.remove_member(member_name)
        self.retired[member_name] = self.members.pop(member_name)
        self._price_migration(entries)
        if self.box._tracer is not None:
            self.box._tracer.record(
                "pool_migrate", component="deployment",
                member=member_name, entries=entries,
            )
        return entries

    # -- stats ---------------------------------------------------------------

    def stats(self) -> dict:
        """Deterministic pool snapshot for CLI / telemetry payloads."""
        selector = self.selector
        return {
            "members": {
                name: {
                    "punts_served": member.punts_served,
                    "stalled_packets": member.stalled_packets,
                    "slots": len(selector.slots_owned(name)),
                }
                for name, member in sorted(self.members.items())
            },
            "retired": sorted(self.retired),
            "selector_slots": selector.slots,
            "migrations": self._c_migrations.value,
            "migrated_entries": self._c_migrated_entries.value,
        }


class PooledDeployment(GalliumMiddlebox):
    """A :class:`GalliumMiddlebox` whose punt path fans out over a pool."""

    def __init__(self, plan: PartitionPlan, program, servers: int = 2,
                 **kwargs):
        super().__init__(
            plan, program, punt_target=ServerPool(servers), **kwargs
        )
