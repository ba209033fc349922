"""Register liveness and the scratchpad metadata allocation (paper §4.3.1).

*"Gallium records when temporary variables are first and last used.
Gallium reuses the memory consumed by variables that are no longer
useful."*  :func:`allocate_metadata` is that allocation and constraint 4's
one answer: the budget search, the P4 lint and the emitted ``metadata_t``
read it.  A register the shim carries is held live to where it is copied:
from post's entry (to-switch) or to pre's exit (to-server).

The §4.3.2 liveness test on the partition boundary — which variables must
travel in the shim header — is ``ProjectionStatics.decide`` in
``repro.partition.projection``, checked after the fact by
``repro.ir.validate.unsatisfied_uses`` over each built projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Tuple

from repro.ir.function import Function, per_shape


@per_shape
def live_ranges(function: Function) -> Dict[str, Tuple[int, int]]:
    """First/last use positions of each register in linearized order.

    Positions index the instruction sequence produced by
    ``function.instructions()``.  For registers live across block
    boundaries the range conservatively covers all their occurrences.
    """
    ranges: Dict[str, Tuple[int, int]] = {}
    for position, inst in enumerate(function.instructions()):
        for reg in inst.defs() + inst.uses():
            first, _ = ranges.get(reg.name, (position, position))
            ranges[reg.name] = (first, position)
    return ranges


@dataclass(frozen=True)
class MetadataAllocation:
    """Byte offsets assigned to each register in the scratchpad."""

    offsets: Dict[str, Tuple[int, int]]  # name -> (offset, size)
    total_bytes: int


def allocate_metadata(
    function: Function,
    held_from_entry: Iterable[str],
    held_to_exit: Iterable[str],
) -> MetadataAllocation:
    """Scratchpad byte offsets for every register of the pipeline
    ``function``, once per shape and boundary: ``held_from_entry`` are
    copied in before its first instruction, ``held_to_exit`` copied out
    after its last (names the function does not use are ignored)."""
    return function.once(
        _linear_scan, frozenset(held_from_entry), frozenset(held_to_exit)
    )


def _linear_scan(
    function: Function,
    held_from_entry: FrozenSet[str],
    held_to_exit: FrozenSet[str],
) -> MetadataAllocation:
    """A linear-scan register allocator over bytes: registers sorted by
    live-range start each take the lowest byte offset whose previous
    occupant's range has ended.  Ranges are inclusive, so the operands and
    the results of one instruction never share a byte."""
    ranges = dict(live_ranges(function))
    for name in held_from_entry & ranges.keys():
        ranges[name] = (-1, ranges[name][1])
    exit_position = len(function.instructions())
    for name in held_to_exit & ranges.keys():
        ranges[name] = (ranges[name][0], exit_position)
    registers = function.registers()
    offsets: Dict[str, Tuple[int, int]] = {}
    active: List[Tuple[int, int, int]] = []  # (end, offset, size)
    total = 0
    for name in sorted(ranges, key=lambda name: ranges[name][0]):
        start, end = ranges[name]
        size = registers[name].bytes
        active = [entry for entry in active if entry[0] >= start]
        offset = 0
        for lo, hi in sorted((at, at + sz) for _, at, sz in active):
            if offset + size <= lo:
                break
            offset = max(offset, hi)
        offsets[name] = (offset, size)
        active.append((end, offset, size))
        total = max(total, offset + size)
    return MetadataAllocation(offsets, total)
