"""Connection-consistent member selection (P4 ActionSelector model).

The punt-path server pool needs the switch to spread punted flows across
N server members such that

* every packet of one connection reaches the same member (both
  directions: the 5-tuple is canonicalized symmetrically before
  hashing), and
* a membership change re-homes only the slots the departed member owned
  — flows pinned to surviving members never move.

This is exactly the match-action ``ActionSelector`` construct: a fixed
table of ``slots`` entries, each slot resolving to one member, with the
packet hash picking the slot.  Slot ownership uses highest-random-weight
(rendezvous) hashing over the member names, which gives both properties
for free: the table is a pure function of ``(member set, seed, slots)``
— independent of registration order — and removing a member only
reassigns that member's slots.

All hashing goes through keyed :func:`hashlib.blake2b`, never Python's
process-salted ``hash()``, so the same seed yields a byte-identical
member table in every interpreter.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Tuple

#: Selector table size.  64 slots over ≤8 members keeps the per-member
#: load imbalance small while the table stays one cache line of real
#: switch SRAM per 16 members.
SELECTOR_SLOTS = 64


def _hash64(seed: int, *parts) -> int:
    """Deterministic 64-bit hash of ``parts`` under ``seed``."""
    key = (seed & 0xFFFF_FFFF_FFFF_FFFF).to_bytes(8, "big")
    digest = hashlib.blake2b(
        "\x00".join(str(part) for part in parts).encode(),
        digest_size=8,
        key=key,
    )
    return int.from_bytes(digest.digest(), "big")


def canonical_flow_key(packet) -> Tuple:
    """The symmetric connection key a packet hashes under.

    Both directions of one connection must land on the same member (the
    middlebox keeps per-connection state), so the endpoint pair is
    ordered canonically.  Non-L4 packets fall back to the raw ingress
    frame's byte length — deterministic, and such packets carry no
    per-connection state to pin.
    """
    five = packet.five_tuple()
    if five is None:
        return ("no_l4", len(packet.pack()))
    saddr, daddr, sport, dport, proto = five
    if (saddr, sport) <= (daddr, dport):
        return (saddr, sport, daddr, dport, proto)
    return (daddr, dport, saddr, sport, proto)


class FlowSelector:
    """ActionSelector-style slot table: flow hash → slot → member."""

    #: slot-table size, one for every selector
    slots = SELECTOR_SLOTS

    def __init__(self, members: Sequence[str], seed: int = 0):
        names = list(members)
        if not names:
            raise ValueError("selector needs at least one member")
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate pool member names: {dupes}")
        self.seed = seed
        self._members = sorted(names)
        self._table: List[str] = []
        self._rebuild()

    # -- membership ---------------------------------------------------------

    @property
    def members(self) -> Tuple[str, ...]:
        return tuple(self._members)

    def member_table(self) -> Tuple[str, ...]:
        """The slot table itself (slot index → owning member)."""
        return tuple(self._table)

    def remove_member(self, name: str) -> None:
        if name not in self._members:
            raise ValueError(f"pool member {name!r} not registered")
        if len(self._members) == 1:
            raise ValueError("cannot remove the last pool member")
        self._members = [m for m in self._members if m != name]
        self._rebuild()

    def _rebuild(self) -> None:
        # Rendezvous hashing: each slot goes to the member with the
        # highest (hash, name) score.  The (score, name) tiebreak keeps
        # the table total even if two 64-bit scores ever collide.
        self._table = [
            max(
                self._members,
                key=lambda m: (_hash64(self.seed, "slot", slot, m), m),
            )
            for slot in range(self.slots)
        ]

    # -- packet routing ------------------------------------------------------

    def slot_for_packet(self, packet) -> int:
        return _hash64(self.seed, "flow", *canonical_flow_key(packet)) \
            % self.slots

    def slots_owned(self, member: str) -> Tuple[int, ...]:
        return tuple(
            slot for slot, owner in enumerate(self._table) if owner == member
        )

    def load(self) -> dict:
        """Slots per member — the selector's static balance."""
        out = {member: 0 for member in self._members}
        for owner in self._table:
            out[owner] += 1
        return out

    def __repr__(self) -> str:
        return (
            f"<FlowSelector members={len(self._members)}"
            f" slots={self.slots} seed={self.seed}>"
        )
