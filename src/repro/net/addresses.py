"""MAC and IPv4 address value types.

Both types are immutable, hashable, and carry explicit conversions to and
from the wire representation.  They are used pervasively: by the Click
substrate when middleboxes rewrite headers, by the switch model when it
matches on header fields, and by the traffic generators.
"""

from __future__ import annotations

import re

_MAC_RE = re.compile(r"^([0-9a-fA-F]{2}[:\-]){5}[0-9a-fA-F]{2}$")
_IP_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")


class MacAddress:
    """A 48-bit Ethernet MAC address."""

    __slots__ = ("_value",)

    def __init__(self, value: int):
        if not 0 <= value < (1 << 48):
            raise ValueError(f"MAC address out of range: {value:#x}")
        self._value = value

    @classmethod
    def from_string(cls, text: str) -> "MacAddress":
        if not _MAC_RE.match(text):
            raise ValueError(f"malformed MAC address: {text!r}")
        parts = re.split(r"[:\-]", text)
        value = 0
        for part in parts:
            value = (value << 8) | int(part, 16)
        return cls(value)

    @classmethod
    def from_bytes(cls, data: bytes) -> "MacAddress":
        if len(data) != 6:
            raise ValueError(f"MAC address needs 6 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    def to_bytes(self) -> bytes:
        return self._value.to_bytes(6, "big")

    @property
    def value(self) -> int:
        return self._value

    def __int__(self) -> int:
        return self._value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MacAddress):
            return self._value == other._value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("mac", self._value))

    def __str__(self) -> str:
        raw = self.to_bytes()
        return ":".join(f"{b:02x}" for b in raw)

    def __repr__(self) -> str:
        return f"MacAddress({str(self)!r})"


class Ipv4Address:
    """A 32-bit IPv4 address."""

    __slots__ = ("_value",)

    def __init__(self, value: int):
        if not 0 <= value < (1 << 32):
            raise ValueError(f"IPv4 address out of range: {value:#x}")
        self._value = value

    @classmethod
    def from_string(cls, text: str) -> "Ipv4Address":
        match = _IP_RE.match(text)
        if not match:
            raise ValueError(f"malformed IPv4 address: {text!r}")
        octets = [int(g) for g in match.groups()]
        if any(o > 255 for o in octets):
            raise ValueError(f"IPv4 octet out of range: {text!r}")
        value = 0
        for octet in octets:
            value = (value << 8) | octet
        return cls(value)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Ipv4Address":
        if len(data) != 4:
            raise ValueError(f"IPv4 address needs 4 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    def to_bytes(self) -> bytes:
        return self._value.to_bytes(4, "big")

    @property
    def value(self) -> int:
        return self._value

    def __int__(self) -> int:
        return self._value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Ipv4Address):
            return self._value == other._value
        return NotImplemented

    def __lt__(self, other: "Ipv4Address") -> bool:
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(("ipv4", self._value))

    def __str__(self) -> str:
        raw = self.to_bytes()
        return ".".join(str(b) for b in raw)

    def __repr__(self) -> str:
        return f"Ipv4Address({str(self)!r})"


def mac(text_or_int) -> MacAddress:
    """Convenience constructor: accepts ``"aa:bb:cc:dd:ee:ff"`` or an int."""
    if isinstance(text_or_int, MacAddress):
        return text_or_int
    if isinstance(text_or_int, int):
        return MacAddress(text_or_int)
    return MacAddress.from_string(text_or_int)


def ip(text_or_int) -> Ipv4Address:
    """Convenience constructor: accepts ``"10.0.0.1"`` or an int."""
    if isinstance(text_or_int, Ipv4Address):
        return text_or_int
    if isinstance(text_or_int, int):
        return Ipv4Address(text_or_int)
    return Ipv4Address.from_string(text_or_int)
