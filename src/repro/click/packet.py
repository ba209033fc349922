"""The Click packet API.

Wraps a :class:`repro.net.packet.RawPacket` and exposes the accessors that
Click elements (and the C++-subset middlebox sources) use:

* ``network_header()`` / ``transport_header()`` return header views, as the
  annotated Click APIs do in the paper (§4.1: "return pointers to the IP and
  TCP headers").
* ``send()`` / ``drop()`` record the element's verdict; ``egress_port``
  stays ``None`` (the default output port), as no element picks one.

The verdict model is deliberately explicit: processing a packet yields a
:class:`PacketAction` that downstream machinery (baseline runner, runtime,
differential tests) inspects, rather than side-effecting a global queue.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.net.headers import Ipv4Header
from repro.net.packet import RawPacket


class PacketAction(enum.Enum):
    """Terminal verdict for one packet's traversal of a middlebox."""

    PENDING = "pending"
    SEND = "send"
    DROP = "drop"

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self is not PacketAction.PENDING


class Packet:
    """Click-style packet handle used by middlebox ``process()`` methods."""

    __slots__ = ("raw", "_action", "_egress_port")

    def __init__(self, raw: RawPacket):
        self.raw = raw
        self._action = PacketAction.PENDING
        self._egress_port: Optional[int] = None

    # -- Click header accessors (annotated APIs) ---------------------------

    def network_header(self) -> Optional[Ipv4Header]:
        """Return the IP header view (Click's ``network_header()``)."""
        return self.raw.ip

    def transport_header(self):
        """Return the L4 header view (Click's ``transport_header()``)."""
        return self.raw.l4

    def length(self) -> int:
        return self.raw.wire_length()

    def payload(self) -> bytes:
        return self.raw.payload

    # -- verdicts -----------------------------------------------------------

    def send(self) -> None:
        """Forward the packet (on the default output port)."""
        self._assert_pending()
        self._action = PacketAction.SEND

    def drop(self) -> None:
        """Discard the packet."""
        self._assert_pending()
        self._action = PacketAction.DROP

    def _assert_pending(self) -> None:
        if self._action is not PacketAction.PENDING:
            raise RuntimeError(
                f"packet verdict already decided: {self._action.value}"
            )

    @property
    def action(self) -> PacketAction:
        return self._action

    @property
    def egress_port(self) -> Optional[int]:
        return self._egress_port

    @property
    def ingress_port(self) -> int:
        return self.raw.ingress_port

    def __repr__(self) -> str:
        return f"<Packet {self.raw!r} action={self._action.value}>"
