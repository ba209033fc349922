"""Click substrate: an executable Click-like runtime.

Gallium's input programs are Click elements written in C++.  This package
provides the Python equivalent of the runtime those elements link against:

* :class:`~repro.click.packet.Packet` — the Click packet API
  (``network_header()``, ``transport_header()``, ``send()``, ``drop()``, ...)
* :class:`~repro.click.hashmap.HashMap` and
  :class:`~repro.click.vector.Vector` — the two data structures Gallium
  knows how to offload (paper §7)
* :class:`~repro.click.element.Element` — base class for middlebox elements

Middlebox programs execute directly against it.  The paper's read/write
annotations on these APIs (§4.1) are not kept here: the compiler consults
``reads()`` / ``writes()`` / ``p4_supported()`` of the IR instruction each
API lowers to (:mod:`repro.ir.instructions`) and, for host functions,
``EXTERN_SPECS`` (:mod:`repro.ir.externs`); DESIGN.md has the table.
"""

from repro.click.packet import Packet, PacketAction
from repro.click.hashmap import HashMap
from repro.click.vector import Vector
from repro.click.element import Element

__all__ = [
    "Packet",
    "PacketAction",
    "HashMap",
    "Vector",
    "Element",
]
