"""IR structural validation.

Run after lowering to catch compiler bugs early.  The checks themselves —
block shape, branch targets, single assignment of temporaries, definition
before use (codes IR001-IR007) — are stage 1 of the static verifier
(:func:`repro.verify.ir_verifier.verify_structure`);
:func:`validate_function` is the fail-fast view over it.  What lives here
is the dataflow both share with the partition verifier: which registers
are definitely defined when a block is entered, and which uses that
leaves uncovered.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, Set, Tuple

from repro.ir import instructions as ir
from repro.ir.function import Function
from repro.ir.values import Reg


class IRValidationError(Exception):
    """Raised when an IR function is structurally invalid."""


def validate_function(function: Function) -> None:
    """Raise :class:`IRValidationError` on the first structural error."""
    # Function-level: repro.verify's package init imports the partitioner
    # and the switch model, which import this module.
    from repro.verify.diagnostics import first_error
    from repro.verify.ir_verifier import verify_structure

    failure = first_error(verify_structure(function))
    if failure is not None:
        raise IRValidationError(failure.format())


def defined_at_entry(function: Function) -> Dict[str, Set[str]]:
    """Forward must-dataflow: registers definitely defined at block entry.

    Blocks nothing jumps to are left out: no use in them can be checked.
    """
    index, at_entry = _must_defined(function, frozenset())
    return {
        block: {name for name, at in index.items() if bits >> at & 1}
        for block, bits in at_entry.items()
    }


def _must_defined(
    function: Function, seed: FrozenSet[str]
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """:func:`defined_at_entry` as bitsets, with the ``seed`` names
    defined before the function starts (the shim fields a projected
    partition reads): a bit for every name the seed holds or an
    instruction defines, and per block the bits of those defined at its
    entry."""
    index = {name: at for at, name in enumerate(sorted(seed))}
    seeded = (1 << len(index)) - 1
    preds = function.predecessors()
    order = function.block_order()
    block_defs: Dict[str, int] = {}
    for name, block in function.blocks.items():
        defined = 0
        for inst in block.instructions:
            for reg in inst.facts.defs:
                at = index.get(reg.name)
                if at is None:
                    at = index[reg.name] = len(index)
                defined |= 1 << at
        block_defs[name] = defined
    # Initialize to "all regs" (top) except the entry, and iterate to fixpoint.
    all_regs = seeded
    for defined in block_defs.values():
        all_regs |= defined
    defined_in = dict.fromkeys(function.blocks, all_regs)
    defined_in[function.entry] = seeded
    changed = True
    while changed:
        changed = False
        for name in order:
            if name == function.entry or not preds.get(name):
                continue
            incoming = all_regs
            for pred in preds[name]:
                incoming &= defined_in[pred] | block_defs[pred]
            if incoming != defined_in[name]:
                defined_in[name] = incoming
                changed = True
    return index, {
        name: regs for name, regs in defined_in.items()
        if name == function.entry or preds.get(name)
    }


def undefined_uses(
    function: Function, seed: FrozenSet[str] = frozenset()
) -> Iterator[Tuple[str, ir.Instruction, Reg]]:
    """Yield ``(block, inst, reg)`` for every use a definition may not
    reach, block by block (one register can be yielded more than once)."""
    index, defined_in = _must_defined(function, seed)
    for name, block in function.blocks.items():
        if name not in defined_in:
            continue
        defined = defined_in[name]
        for inst in block.instructions:
            facts = inst.facts
            for reg in facts.uses:
                at = index.get(reg.name)
                if at is None or not defined >> at & 1:
                    yield name, inst, reg
            for reg in facts.defs:
                defined |= 1 << index[reg.name]


def unsatisfied_uses(function: Function) -> Dict[str, Reg]:
    """Registers that may be read before any definition in ``function``.

    A projection's unsatisfied uses are exactly the values earlier
    partitions must hand over: PART004 holds the shims to this, over the
    built projections (the partitioner sizes them beforehand, on the
    source function: ``ProjectionStatics.decide``).
    """
    needs: Dict[str, Reg] = {}
    for _, _, reg in undefined_uses(function):
        needs.setdefault(reg.name, reg)
    return needs
