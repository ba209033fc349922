"""Register liveness.

The metadata allocator reuses scratchpad bytes of dead temporaries (paper
§4.3.1: "Gallium records when temporary variables are first and last used
... reuses the memory consumed by variables that are no longer useful").
The §4.3.2 liveness test on the partition boundary — which variables must
travel in the shim header — is ``ProjectionStatics.decide`` in
``repro.partition.projection``, checked after the fact by
``repro.ir.validate.unsatisfied_uses`` over each built projection.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.ir.function import Function, per_shape


@per_shape
def live_ranges(function: Function) -> Dict[str, Tuple[int, int]]:
    """First/last use positions of each register in linearized order.

    Used by the scratchpad metadata allocator to reuse bytes of dead
    temporaries.  Positions index the instruction sequence produced by
    ``function.instructions()``.  For registers live across block
    boundaries the range conservatively covers all their occurrences.
    """
    ranges: Dict[str, Tuple[int, int]] = {}
    for position, inst in enumerate(function.instructions()):
        for reg in inst.defs() + inst.uses():
            first, _ = ranges.get(reg.name, (position, position))
            ranges[reg.name] = (first, position)
    return ranges


def peak_live_bytes(function: Function) -> int:
    """Peak bytes of simultaneously-live registers (scratchpad estimate).

    This is the metadata footprint of the partition after live-range reuse
    (constraint 4): positions where many registers overlap set the peak.
    """
    registers = function.registers()
    events: Dict[int, int] = {}
    for name, (first, last) in live_ranges(function).items():
        size = registers[name].bytes
        events[first] = events.get(first, 0) + size
        events[last + 1] = events.get(last + 1, 0) - size
    current = 0
    peak = 0
    for position in sorted(events):
        current += events[position]
        peak = max(peak, current)
    return peak
