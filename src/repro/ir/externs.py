"""Extern host functions callable from middlebox sources.

Externs model the parts of a real Click element that have no P4 counterpart
and therefore always stay in the non-offloaded partition: payload
inspection (deep packet inspection reads past the header region a switch can
access, §2.2), wall-clock time (connection timeouts), configuration reads,
and logging.

Each extern declares the locations it reads and writes, which is what an
instruction's ``reads()`` / ``writes()`` return, so dependency extraction
needs no special cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.lang.types import Type, UINT8, UINT32, VOID
from repro.ir.values import Location


@dataclass(frozen=True)
class ExternSpec:
    """Declaration of one extern function."""

    name: str
    params: Tuple[Type, ...]
    return_type: Type
    reads: Tuple[Location, ...] = ()
    writes: Tuple[Location, ...] = ()
    #: True when the first source-level argument is the packet handle (the
    #: lowering drops it; the interpreter receives the packet implicitly).
    takes_packet: bool = False


#: Pseudo-state locations externs touch.  ``__clock`` is never written, so it
#: creates no dependencies; ``__log`` serializes logging calls.
CLOCK_STATE = Location.state("__clock")
CONFIG_STATE = Location.state("__config")
LOG_STATE = Location.state("__log")
PAYLOAD = Location.packet("payload")


EXTERN_SPECS: Dict[str, ExternSpec] = {
    "payload_len": ExternSpec(
        "payload_len", (), UINT32, reads=(PAYLOAD,), takes_packet=True
    ),
    "payload_byte": ExternSpec(
        "payload_byte", (UINT32,), UINT8, reads=(PAYLOAD,), takes_packet=True
    ),
    "now_sec": ExternSpec("now_sec", (), UINT32, reads=(CLOCK_STATE,)),
    "config_len": ExternSpec(
        "config_len", (UINT32,), UINT32, reads=(CONFIG_STATE,)
    ),
    "config_u32": ExternSpec(
        "config_u32", (UINT32, UINT32), UINT32, reads=(CONFIG_STATE,)
    ),
    "log_event": ExternSpec(
        "log_event", (UINT32,), VOID, writes=(LOG_STATE,)
    ),
}


def extern_spec(name: str) -> Optional[ExternSpec]:
    return EXTERN_SPECS.get(name)


class ExternHost:
    """Runtime implementation of the externs for the IR interpreter.

    ``config`` maps a section id to a list of u32 values; ``clock`` is a
    callable returning seconds.  Payload functions read the packet the
    interpreter passes in.
    """

    def __init__(self, config=None, clock: Optional[Callable[[], int]] = None):
        self.config: Dict[int, Sequence[int]] = dict(config or {})
        self.clock = clock or (lambda: 0)
        self.log: list = []

    def call(self, name: str, args: Sequence[int], packet=None) -> int:
        if name == "payload_len":
            return len(packet.payload()) if packet is not None else 0
        if name == "payload_byte":
            payload = packet.payload() if packet is not None else b""
            index = args[0]
            return payload[index] if 0 <= index < len(payload) else 0
        if name == "now_sec":
            return int(self.clock()) & 0xFFFFFFFF
        if name == "config_len":
            return len(self.config.get(args[0], ()))
        if name == "config_u32":
            section = self.config.get(args[0], ())
            index = args[1]
            return section[index] if 0 <= index < len(section) else 0
        if name == "log_event":
            self.log.append(args[0])
            return 0
        raise KeyError(f"unknown extern {name!r}")
