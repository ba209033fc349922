"""Base class for Click elements.

Executable middleboxes subclass :class:`Element` and implement
``process(packet)``.  The baseline runner drives elements directly; the
compiler never executes them — it compiles their C++-subset source instead —
but differential tests compare the two.
"""

from __future__ import annotations

from typing import Optional

from repro.click.packet import Packet, PacketAction


class Element:
    """A Click element: stateful packet-processing object."""

    #: Human-readable element class name (defaults to the Python class name).
    name: Optional[str] = None

    def __init__(self):
        self.packets_seen = 0
        self.packets_sent = 0
        self.packets_dropped = 0

    def class_name(self) -> str:
        return self.name or type(self).__name__

    def process(self, packet: Packet) -> None:
        """Process one packet; must end in ``send()`` or ``drop()``."""
        raise NotImplementedError

    def push(self, packet: Packet) -> PacketAction:
        """Drive ``process`` and account for the verdict."""
        self.packets_seen += 1
        self.process(packet)
        if packet.action is PacketAction.SEND:
            self.packets_sent += 1
        elif packet.action is PacketAction.DROP:
            self.packets_dropped += 1
        else:
            raise RuntimeError(
                f"{self.class_name()}.process() returned without a verdict"
            )
        return packet.action

    def state_snapshot(self) -> dict:
        """Return a snapshot of the element's global state.

        Subclasses override to expose their state for differential testing
        and state-sync accounting.  Default: empty.
        """
        return {}

    def __repr__(self) -> str:
        return (
            f"<{self.class_name()} seen={self.packets_seen}"
            f" sent={self.packets_sent} dropped={self.packets_dropped}>"
        )
