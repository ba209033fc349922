"""RFC 1071 Internet checksum.

Used by the IPv4 header serializer and by tests that validate that header
rewrites performed on the switch keep packets well-formed (real Tofino
pipelines recompute the checksum in the deparser; our switch model does the
same).
"""

from __future__ import annotations


def internet_checksum(data: bytes) -> int:
    """Compute the 16-bit ones-complement Internet checksum of ``data``."""
    total = 0
    length = len(data)
    # Sum 16-bit words; pad the final odd byte with a zero low byte.
    for i in range(0, length - 1, 2):
        total += (data[i] << 8) | data[i + 1]
    if length % 2:
        total += data[-1] << 8
    # Fold carries.
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF

