"""Read/write-set annotations for Click APIs.

Paper §4.1: *"we require annotations for both data structure APIs (such as
HashMap and Vector) and APIs used to access packet headers.  In particular,
we need two types of annotations for the Click APIs: (a) the data read and
modified when calling into the API and (b) if the API returns a pointer, the
data referred to by the pointer."*

Annotations are written against *location templates* — symbolic placeholders
that the IR lowering resolves with pointer analysis:

=================  ====================================================
template            resolves to
=================  ====================================================
``self``           the receiver object (element member = global state)
``arg0..argN``     the N-th call argument value
``*arg0``          the location the N-th pointer argument points to
``packet.ip``      the packet's IP header region
``packet.tcp``     the packet's transport header region
``packet.meta``    the packet verdict/annotation area
``*result``        what a returned pointer refers to
=================  ====================================================

``p4_impl`` names the P4 counterpart when one exists (paper Figure 6): a
``HashMap::find`` maps to a P4 table lookup, header accessors map to header
accesses, and APIs with no entry must stay in the non-offloaded partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class AccessEffect:
    """One API's effect on program state, in location templates."""

    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()
    # If the API returns a pointer, the template for its pointee.
    returns_pointer_to: Optional[str] = None


@dataclass(frozen=True)
class ApiAnnotation:
    """Annotation record for one Click API method."""

    name: str
    effect: AccessEffect
    # Name of the P4 primitive this call maps to, or None if the call has no
    # switch implementation and forces its statement into the non-offloaded
    # partition.
    p4_impl: Optional[str] = None
    # True when the call mutates global (cross-packet) state.  Mutations of
    # replicated state must execute on the server (paper §4.3.3: "any
    # updates will only be made by the server").
    mutates_global: bool = False


def _ann(
    name: str,
    reads: Tuple[str, ...] = (),
    writes: Tuple[str, ...] = (),
    returns_pointer_to: Optional[str] = None,
    p4_impl: Optional[str] = None,
    mutates_global: bool = False,
) -> ApiAnnotation:
    return ApiAnnotation(
        name=name,
        effect=AccessEffect(reads, writes, returns_pointer_to),
        p4_impl=p4_impl,
        mutates_global=mutates_global,
    )


#: The annotation table Gallium ships with (paper §5: "We have manually
#: annotated the Click APIs to access data structures, including Vector and
#: HashMap, and the APIs to access packet headers").
CLICK_API_ANNOTATIONS: Dict[str, ApiAnnotation] = {
    # -- packet header accessors -------------------------------------------
    "Packet::network_header": _ann(
        "Packet::network_header",
        reads=("packet.meta",),
        returns_pointer_to="packet.ip",
        p4_impl="header_access",
    ),
    "Packet::transport_header": _ann(
        "Packet::transport_header",
        reads=("packet.meta",),
        returns_pointer_to="packet.tcp",
        p4_impl="header_access",
    ),
    "Packet::tcp_header": _ann(
        "Packet::tcp_header",
        reads=("packet.meta",),
        returns_pointer_to="packet.tcp",
        p4_impl="header_access",
    ),
    "Packet::udp_header": _ann(
        "Packet::udp_header",
        reads=("packet.meta",),
        returns_pointer_to="packet.udp",
        p4_impl="header_access",
    ),
    "Packet::ether_header": _ann(
        "Packet::ether_header",
        reads=("packet.meta",),
        returns_pointer_to="packet.eth",
        p4_impl="header_access",
    ),
    "Packet::length": _ann(
        "Packet::length",
        reads=("packet.meta",),
        p4_impl="header_access",
    ),
    "Packet::payload": _ann(
        "Packet::payload",
        reads=("packet.meta",),
        returns_pointer_to="packet.payload",
        # Payload access has no P4 counterpart: switches read only the first
        # ~200 bytes and generated pipelines never touch payloads (§2.2).
        p4_impl=None,
    ),
    "Packet::send": _ann(
        "Packet::send",
        reads=("packet.meta",),
        writes=("packet.meta",),
        p4_impl="forward",
    ),
    "Packet::send_to": _ann(
        "Packet::send_to",
        reads=("packet.meta", "arg0"),
        writes=("packet.meta",),
        p4_impl="forward",
    ),
    "Packet::drop": _ann(
        "Packet::drop",
        reads=("packet.meta",),
        writes=("packet.meta",),
        p4_impl="drop",
    ),
    # -- HashMap -------------------------------------------------------------
    "HashMap::find": _ann(
        "HashMap::find",
        reads=("self", "*arg0"),
        returns_pointer_to="self.value",
        p4_impl="table_lookup",
    ),
    "HashMap::contains": _ann(
        "HashMap::contains",
        reads=("self", "*arg0"),
        p4_impl="table_lookup",
    ),
    "HashMap::insert": _ann(
        "HashMap::insert",
        reads=("*arg0", "*arg1"),
        writes=("self",),
        p4_impl=None,
        mutates_global=True,
    ),
    "HashMap::erase": _ann(
        "HashMap::erase",
        reads=("*arg0",),
        writes=("self",),
        p4_impl=None,
        mutates_global=True,
    ),
    "HashMap::size": _ann(
        "HashMap::size",
        reads=("self",),
        p4_impl=None,
    ),
    # -- Vector ---------------------------------------------------------------
    "Vector::at": _ann(
        "Vector::at",
        reads=("self", "arg0"),
        p4_impl="table_lookup",
    ),
    "Vector::operator[]": _ann(
        "Vector::operator[]",
        reads=("self", "arg0"),
        p4_impl="table_lookup",
    ),
    "Vector::size": _ann(
        "Vector::size",
        reads=("self",),
        p4_impl="register_read",
    ),
    "Vector::push_back": _ann(
        "Vector::push_back",
        reads=("arg0",),
        writes=("self",),
        p4_impl=None,
        mutates_global=True,
    ),
    "Vector::set": _ann(
        "Vector::set",
        reads=("arg0", "arg1"),
        writes=("self",),
        p4_impl=None,
        mutates_global=True,
    ),
}


def annotation_for(qualified_name: str) -> Optional[ApiAnnotation]:
    """Look up the annotation for ``Class::method``; None if unannotated."""
    return CLICK_API_ANNOTATIONS.get(qualified_name)
