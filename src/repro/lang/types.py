"""Type system for the C++ subset.

The subset's types mirror what Gallium can reason about:

* fixed-width unsigned integers (the only arithmetic types P4 supports),
* ``bool`` (lowered to 1-bit integers on the switch),
* pointers (used for packet header views and map lookups; resolved away by
  pointer analysis during lowering),
* ``Packet`` and packet header record types with named fields,
* the two offloadable container templates ``HashMap<K, V>`` and
  ``Vector<T>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

from repro.net.fields import FIELDS


class Type:
    """Base class for all types in the subset."""

    def byte_size(self) -> int:
        raise NotImplementedError

    def bit_width(self) -> int:
        return self.byte_size() * 8

    @property
    def is_integer(self) -> bool:
        return isinstance(self, (IntType, BoolType))


def bit_width_of(type_, default: int) -> int:
    """``type_.bit_width()``, or ``default`` where there is none to resolve:
    the bare :class:`Type` has no size (``NotImplementedError``) and a
    register built without a type has no method (``AttributeError``).
    Every engine sizes a state member or an RMW through this, so two of
    them cannot disagree on a fallback."""
    try:
        return type_.bit_width()
    except (NotImplementedError, AttributeError):
        return default


@dataclass(frozen=True)
class IntType(Type):
    """Fixed-width unsigned integer (uint8_t .. uint64_t)."""

    bits: int

    def byte_size(self) -> int:
        return self.bits // 8

    def bit_width(self) -> int:
        return self.bits

    @cached_property
    def mask(self) -> int:
        return (1 << self.bits) - 1

    def wrap(self, value: int) -> int:
        return value & self.mask

    def __str__(self) -> str:
        return f"uint{self.bits}_t"


@dataclass(frozen=True)
class BoolType(Type):
    def byte_size(self) -> int:
        return 1

    def bit_width(self) -> int:
        return 1

    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class VoidType(Type):
    def byte_size(self) -> int:
        return 0

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class PointerType(Type):
    pointee: Type

    def byte_size(self) -> int:
        return 8

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True)
class PacketType(Type):
    """The opaque ``Packet`` handle."""

    def byte_size(self) -> int:
        return 8

    def __str__(self) -> str:
        return "Packet"


@dataclass(frozen=True)
class HeaderType(Type):
    """A packet header record (``iphdr``, ``tcphdr`` ...).

    ``region`` names the abstract packet region the header occupies (used by
    read/write-set construction), and ``fields`` maps field name to
    ``(offset_bits, IntType)``.
    """

    name: str
    region: str
    fields: Tuple[Tuple[str, int, int], ...]  # (name, offset_bits, width_bits)

    def byte_size(self) -> int:
        total = sum(width for _, _, width in self.fields)
        return (total + 7) // 8

    def field_names(self):
        return [name for name, _, _ in self.fields]

    def field_width(self, name: str) -> int:
        for fname, _, width in self.fields:
            if fname == name:
                return width
        raise KeyError(f"{self.name} has no field {name!r}")

    def has_field(self, name: str) -> bool:
        return any(fname == name for fname, _, _ in self.fields)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class HashMapType(Type):
    key: Type
    value: Type

    def byte_size(self) -> int:
        return 8

    def __str__(self) -> str:
        return f"HashMap<{self.key}, {self.value}>"


@dataclass(frozen=True)
class VectorType(Type):
    element: Type

    def byte_size(self) -> int:
        return 8

    def __str__(self) -> str:
        return f"Vector<{self.element}>"


@dataclass(frozen=True)
class TupleType(Type):
    """A flat tuple of integer types; used for composite map keys."""

    elements: Tuple[Type, ...]

    def byte_size(self) -> int:
        return sum(e.byte_size() for e in self.elements)

    def __str__(self) -> str:
        inner = ", ".join(str(e) for e in self.elements)
        return f"Tuple<{inner}>"


UINT8 = IntType(8)
UINT16 = IntType(16)
UINT32 = IntType(32)
UINT64 = IntType(64)
BOOL = BoolType()
VOID = VoidType()
PACKET = PacketType()

# -- builtin packet header record types ------------------------------------
# Declared in repro.net.fields; names match what middlebox sources use
# (Linux-flavoured: saddr/daddr on iphdr, sport/dport on tcphdr).


def _header_type(name: str, region: str) -> HeaderType:
    rows = sorted(
        (row for row in FIELDS if row.region == region),
        key=lambda row: row.offset,
    )
    return HeaderType(
        name=name,
        region=f"packet.{region}",
        fields=tuple((row.name, row.offset, row.width) for row in rows),
    )


IPHDR = _header_type("iphdr", "ip")
TCPHDR = _header_type("tcphdr", "tcp")
UDPHDR = _header_type("udphdr", "udp")
ETHHDR = _header_type("ethhdr", "eth")

BUILTIN_HEADER_TYPES: Dict[str, HeaderType] = {
    "iphdr": IPHDR,
    "tcphdr": TCPHDR,
    "udphdr": UDPHDR,
    "ethhdr": ETHHDR,
}

_NAMED_INT_TYPES: Dict[str, IntType] = {
    "uint8_t": UINT8,
    "uint16_t": UINT16,
    "uint32_t": UINT32,
    "uint64_t": UINT64,
    "u8": UINT8,
    "u16": UINT16,
    "u32": UINT32,
    "u64": UINT64,
    # ``int``/``unsigned`` map to 32-bit; middlebox code in the subset treats
    # all arithmetic as unsigned (P4 has no signed arithmetic).
    "int": UINT32,
    "unsigned": UINT32,
    "size_t": UINT32,
}


def lookup_named_type(name: str) -> Optional[Type]:
    """Resolve a plain (non-template) type name, or None if unknown."""
    if name in _NAMED_INT_TYPES:
        return _NAMED_INT_TYPES[name]
    if name == "bool":
        return BOOL
    if name == "void":
        return VOID
    if name == "Packet":
        return PACKET
    if name in BUILTIN_HEADER_TYPES:
        return BUILTIN_HEADER_TYPES[name]
    return None
