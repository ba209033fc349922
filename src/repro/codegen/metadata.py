"""Scratchpad metadata allocation with live-range reuse (paper §4.3.1).

*"Since the amount of metadata that can be allocated is less than 100
bytes ..., Gallium records when temporary variables are first and last used.
Gallium reuses the memory consumed by variables that are no longer
useful."*

The allocator is a linear-scan register allocator over bytes: registers are
sorted by live-range start; each takes the lowest byte offset whose previous
occupant's range has ended.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.liveness import live_ranges
from repro.ir.function import Function


@dataclass
class MetadataAllocation:
    """Byte offsets assigned to each register in the scratchpad."""

    offsets: Dict[str, Tuple[int, int]]  # name -> (offset, size)
    total_bytes: int
    naive_bytes: int  # without live-range reuse, for the ablation bench


def allocate_metadata(
    function: Function, reuse: bool = True
) -> MetadataAllocation:
    """Assign scratchpad byte offsets to every register in ``function``.

    ``reuse=False`` disables live-range reuse (every register gets a
    dedicated slot); the ablation benchmark compares both modes.
    """
    ranges = live_ranges(function)
    widths = {name: reg.bytes for name, reg in function.registers().items()}
    order = sorted(ranges, key=lambda name: ranges[name][0])
    naive_bytes = sum(widths[name] for name in ranges)
    offsets: Dict[str, Tuple[int, int]] = {}
    if not reuse:
        cursor = 0
        for name in order:
            size = widths[name]
            offsets[name] = (cursor, size)
            cursor += size
        return MetadataAllocation(offsets, cursor, naive_bytes)

    # Linear scan with byte-granular reuse: track, per byte offset, when the
    # occupying register dies.
    active: List[Tuple[int, int, int]] = []  # (end, offset, size)
    total = 0
    for name in order:
        start, end = ranges[name]
        size = widths[name]
        # Expire dead intervals.
        active = [entry for entry in active if entry[0] >= start]
        # Find the lowest offset where [offset, offset+size) is free.
        taken = sorted((offset, offset + sz) for _, offset, sz in active)
        offset = 0
        for lo, hi in taken:
            if offset + size <= lo:
                break
            offset = max(offset, hi)
        offsets[name] = (offset, size)
        active.append((end, offset, size))
        total = max(total, offset + size)
    return MetadataAllocation(offsets, total, naive_bytes)
