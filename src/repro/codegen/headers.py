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
from typing import Dict, List, Mapping, Tuple

from repro.partition.plan import TransferSpec

FLAG_VERDICT_NONE = 0
FLAG_VERDICT_SEND = 1
FLAG_VERDICT_DROP = 2

#: The shim's reserved fields, the only names no register carries: the
#: port the switch received the packet on (both directions), and the
#: server's verdict and egress port (the return leg).
INGRESS_PORT_FIELD = "__ingress_port"
VERDICT_FIELD = "__verdict"
EGRESS_PORT_FIELD = "__egress_port"
RESERVED_FIELDS = frozenset((INGRESS_PORT_FIELD, VERDICT_FIELD, EGRESS_PORT_FIELD))


class ShimDecodeError(ValueError):
    """A shim with fewer bytes than its layout: truncated on the wire, or
    absent altogether where the layout has fields.

    Raised by :meth:`ShimLayout.decode` — so at the two places a shim is
    received, ``ServerRuntime.handle`` (``to_server``) and
    ``SwitchModel.receive`` on the server port (``to_switch``).
    """

    def __init__(self, direction: str, expected: int, received: int):
        super().__init__(
            f"{direction} shim too short: {received} < {expected} bytes"
        )
        self.direction = direction
        self.expected = expected
        self.received = received


@dataclass(frozen=True)
class ShimField:
    """One field in a shim layout."""

    name: str
    width_bits: int


@dataclass(frozen=True)
class ShimLayout:
    """A bit-packed shim header layout for one direction.

    Like the P4 header declaration it stands for, a layout *is* its
    offsets: the sizes and each field's position and mask are settled
    when it is built, and a punt only moves a packet's values through
    them.
    """

    direction: str  # "to_server" | "to_switch"
    fields: Tuple[ShimField, ...]
    total_bits: int = field(init=False, compare=False)
    byte_size: int = field(init=False, compare=False)
    #: ``(name, shift, mask)`` per field: where its bits sit in the
    #: padded ``byte_size``-byte big-endian integer, and the wrap to its
    #: width (the one definition of it — the prover reads these masks)
    slots: Tuple[Tuple[str, int, int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        fields = tuple(self.fields)
        total_bits = sum(f.width_bits for f in fields)
        byte_size = (total_bits + 7) // 8
        slots = []
        shift = byte_size * 8
        for shim_field in fields:
            shift -= shim_field.width_bits
            slots.append(
                (shim_field.name, shift, (1 << shim_field.width_bits) - 1)
            )
        for name, value in (
            ("fields", fields),
            ("total_bits", total_bits),
            ("byte_size", byte_size),
            ("slots", tuple(slots)),
        ):
            object.__setattr__(self, name, value)

    def field_names(self) -> List[str]:
        return [f.name for f in self.fields]

    def carried(self) -> List[str]:
        """The registers this shim carries across the boundary: every
        field but the reserved verdict and ports."""
        return [f.name for f in self.fields if f.name not in RESERVED_FIELDS]

    # -- encode/decode ------------------------------------------------------

    def encode(self, values: Mapping[str, int]) -> bytes:
        """Pack ``values`` into ``byte_size`` bytes: a missing field
        encodes as 0, a value is masked to its field's width, names the
        layout does not have are ignored."""
        get = values.get
        accumulator = 0
        for name, shift, mask in self.slots:
            accumulator |= (get(name, 0) & mask) << shift
        return accumulator.to_bytes(self.byte_size, "big")

    def decode(self, data: bytes) -> Dict[str, int]:
        """Field values, in layout order, from the first ``byte_size``
        bytes of ``data``; fewer is a :class:`ShimDecodeError`."""
        byte_size = self.byte_size
        if len(data) < byte_size:
            raise ShimDecodeError(self.direction, byte_size, len(data))
        accumulator = int.from_bytes(data[:byte_size], "big")
        return {
            name: (accumulator >> shift) & mask
            for name, shift, mask in self.slots
        }


def synthesize_shim_layouts(
    to_server: TransferSpec, to_switch: TransferSpec
) -> Tuple[ShimLayout, ShimLayout]:
    """Build both shim layouts from the partition plan's transfer sets."""
    # Both directions carry the original ingress port so the post pipeline
    # can resolve the egress side.
    server_fields: List[ShimField] = [ShimField(INGRESS_PORT_FIELD, 8)]
    # Flags (1-bit values) first, then wider variables — mirrors Figure 5
    # where the bk_addr==NULL bit precedes the 32-bit payload fields.
    for reg in sorted(to_server.regs, key=lambda r: (r.bits, r.name)):
        server_fields.append(ShimField(reg.name, reg.bits))
    switch_fields: List[ShimField] = [
        ShimField(VERDICT_FIELD, 2),
        ShimField(EGRESS_PORT_FIELD, 8),
        ShimField(INGRESS_PORT_FIELD, 8),
    ]
    for reg in sorted(to_switch.regs, key=lambda r: (r.bits, r.name)):
        switch_fields.append(ShimField(reg.name, reg.bits))
    return (
        ShimLayout("to_server", tuple(server_fields)),
        ShimLayout("to_switch", tuple(switch_fields)),
    )
