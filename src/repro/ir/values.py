"""IR operands and abstract memory locations.

*Operands* are what instructions consume and produce: constants and
registers.  *Locations* are what the dependency analysis reasons about: a
register's slot, a piece of element state, or a packet region.  The paper's
read/write sets (§4.1) are sets of these locations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.lang.types import BOOL, IntType, Type, bit_width_of


class LocKind(enum.Enum):
    """The kind of an abstract location."""

    VAR = "var"  # a local variable or temporary
    STATE = "state"  # element member (global, cross-packet state)
    PACKET = "packet"  # a packet region: ip / tcp / udp / eth / payload / meta


class Location:
    """An abstract memory location used in read/write sets.

    Interned: there is one object per ``(kind, name)``, so two locations
    are equal exactly when they are one object, and a set of them hashes
    by identity — no Python-level ``__hash__`` (a value hash runs
    ``enum.__hash__`` on every lookup), nothing recomputed.
    """

    __slots__ = ("kind", "name", "alone")
    _interned: Dict[Tuple[LocKind, str], "Location"] = {}

    def __new__(cls, kind: LocKind, name: str) -> "Location":
        found = cls._interned.get((kind, name))
        if found is None:
            found = cls._interned[kind, name] = super().__new__(cls)
            found.kind = kind
            found.name = name
            #: the set of just this location, for every instruction that
            #: reads or writes nothing else to share
            found.alone = frozenset((found,))
        return found

    def __reduce__(self):
        # Copies and unpickled values are the interned object too.
        return Location, (self.kind, self.name)

    def __repr__(self) -> str:
        return f"Location(kind={self.kind!r}, name={self.name!r})"

    @classmethod
    def var(cls, name: str) -> "Location":
        return cls(LocKind.VAR, name)

    @classmethod
    def state(cls, name: str) -> "Location":
        return cls(LocKind.STATE, name)

    @classmethod
    def packet(cls, region: str) -> "Location":
        return cls(LocKind.PACKET, aliased_packet_region(region))

    @property
    def is_global(self) -> bool:
        """True for cross-packet (element) state."""
        return self.kind is LocKind.STATE

    @property
    def is_packet(self) -> bool:
        return self.kind is LocKind.PACKET

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.name}"


#: All header packet regions a switch can touch (payload excluded: §2.2,
#: switches only read the start of the packet).
HEADER_REGIONS = ("eth", "ip", "tcp", "udp")


def aliased_packet_region(region: str) -> str:
    """Collapse aliasing packet regions to one dependency location.

    Click's ``transport_header()`` exposes a single L4 view: TCP and UDP
    share byte offsets for the port fields, and the interpreter honours
    that aliasing (``tcp->sport`` on a UDP packet reads the UDP source
    port).  A ``udp`` store therefore conflicts with a ``tcp`` load and
    vice versa — tracking them as separate locations would let the
    partitioner reorder across the alias (hoisting a port load above a
    store to the other protocol's view of the same bytes).
    """
    return "l4" if region in ("tcp", "udp") else region
ALL_PACKET_REGIONS = HEADER_REGIONS + ("payload", "meta")


class Operand:
    """Base class for instruction operands."""

    type: Type

    @property
    def bits(self) -> int:
        """Width as P4 declares it: the type's, 32 where the type has none
        to resolve, never less than one bit."""
        return max(1, bit_width_of(self.type, 32))

    @property
    def bytes(self) -> int:
        """Whole bytes one scratchpad or shim slot for it takes."""
        return (self.bits + 7) // 8


@dataclass(frozen=True)
class Const(Operand):
    """An integer (or bool) literal operand."""

    value: int
    type: Type

    def __str__(self) -> str:
        if self.type is BOOL:
            return "true" if self.value else "false"
        return str(self.value)


@dataclass(frozen=True)
class Reg(Operand):
    """A register: a temporary (single assignment) or a named local."""

    name: str
    type: Type
    is_temp: bool = True

    @property
    def location(self) -> Location:
        return Location.var(self.name)

    def __str__(self) -> str:
        return f"%{self.name}"


def const_int(value: int) -> Const:
    int_type = IntType(32)
    return Const(int_type.wrap(value), int_type)
