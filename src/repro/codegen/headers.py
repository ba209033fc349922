"""Shim packet-format synthesis (paper §4.3.2, Figure 5).

The shim header sits between the Ethernet header and the IP header on the
switch↔server link ("We insert these additional packet header fields
between the Ethernet header and the IP header"), flagged by a dedicated
EtherType.  Two layouts are synthesized per middlebox:

* ``to_server`` — carried on punted packets (pre-processing → non-offloaded):
  one bit per transferred boolean (branch conditions) plus the transferred
  temporaries,
* ``to_switch`` — carried on packets returning from the server
  (non-offloaded → post-processing): a 2-bit verdict, an 8-bit egress-port
  hint, and the post-partition's inputs.

Fields are bit-packed in a deterministic order (flags first, then variables
sorted by name) and padded to a byte boundary, exactly like a P4 header
declaration would lay them out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ir.values import Reg
from repro.partition.plan import TransferSpec

FLAG_VERDICT_NONE = 0
FLAG_VERDICT_SEND = 1
FLAG_VERDICT_DROP = 2


@dataclass(frozen=True)
class ShimField:
    """One field in a shim layout."""

    name: str
    width_bits: int


@dataclass
class ShimLayout:
    """A bit-packed shim header layout for one direction."""

    direction: str  # "to_server" | "to_switch"
    fields: List[ShimField]

    @property
    def total_bits(self) -> int:
        return sum(f.width_bits for f in self.fields)

    @property
    def byte_size(self) -> int:
        return (self.total_bits + 7) // 8

    def field_names(self) -> List[str]:
        return [f.name for f in self.fields]

    # -- encode/decode ------------------------------------------------------

    def encode(self, values: Dict[str, int]) -> bytes:
        """Pack ``values`` (missing fields encode as 0) into bytes."""
        accumulator = 0
        bits = 0
        for shim_field in self.fields:
            width = shim_field.width_bits
            value = values.get(shim_field.name, 0) & ((1 << width) - 1)
            accumulator = (accumulator << width) | value
            bits += width
        pad = self.byte_size * 8 - bits
        accumulator <<= pad
        return accumulator.to_bytes(self.byte_size, "big") if self.byte_size else b""

    def decode(self, data: bytes) -> Dict[str, int]:
        if len(data) < self.byte_size:
            raise ValueError(
                f"shim too short: {len(data)} < {self.byte_size} bytes"
            )
        accumulator = int.from_bytes(data[: self.byte_size], "big")
        pad = self.byte_size * 8 - self.total_bits
        accumulator >>= pad
        values: Dict[str, int] = {}
        remaining = self.total_bits
        for shim_field in self.fields:
            width = shim_field.width_bits
            remaining -= width
            values[shim_field.name] = (accumulator >> remaining) & (
                (1 << width) - 1
            )
        return values


def _reg_bits(reg: Reg) -> int:
    bits = reg.type.bit_width() if hasattr(reg.type, "bit_width") else 32
    return max(1, bits)


def synthesize_shim_layouts(
    to_server: TransferSpec, to_switch: TransferSpec
) -> Tuple[ShimLayout, ShimLayout]:
    """Build both shim layouts from the partition plan's transfer sets."""
    # Both directions carry the original ingress port so the post pipeline
    # can resolve the egress side.
    server_fields: List[ShimField] = [ShimField("__ingress_port", 8)]
    # Flags (1-bit values) first, then wider variables — mirrors Figure 5
    # where the bk_addr==NULL bit precedes the 32-bit payload fields.
    for reg in sorted(to_server.regs, key=lambda r: (_reg_bits(r), r.name)):
        server_fields.append(ShimField(reg.name, _reg_bits(reg)))
    switch_fields: List[ShimField] = [
        ShimField("__verdict", 2),
        ShimField("__egress_port", 8),
        ShimField("__ingress_port", 8),
    ]
    for reg in sorted(to_switch.regs, key=lambda r: (_reg_bits(r), r.name)):
        switch_fields.append(ShimField(reg.name, _reg_bits(reg)))
    return (
        ShimLayout("to_server", server_fields),
        ShimLayout("to_switch", switch_fields),
    )
