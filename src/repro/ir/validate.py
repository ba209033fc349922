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


def defined_at_entry(
    function: Function, seed: FrozenSet[str] = frozenset()
) -> Dict[str, Set[str]]:
    """Forward must-dataflow: registers definitely defined at block entry.

    ``seed`` names registers defined before the function starts (the shim
    fields a projected partition reads).  Blocks nothing jumps to are left
    out: no use in them can be checked.
    """
    preds = function.predecessors()
    order = function.block_order()
    block_defs = {
        name: {reg.name for inst in block.instructions
               for reg in inst.defs()}
        for name, block in function.blocks.items()
    }
    # Initialize to "all regs" (top) except the entry, and iterate to fixpoint.
    all_regs = set(seed).union(*block_defs.values())
    defined_in = {name: set(all_regs) for name in function.blocks}
    defined_in[function.entry] = set(seed)
    changed = True
    while changed:
        changed = False
        for name in order:
            if name == function.entry or not preds.get(name):
                continue
            incoming = set(all_regs)
            for pred in preds[name]:
                incoming &= defined_in[pred] | block_defs[pred]
            if incoming != defined_in[name]:
                defined_in[name] = incoming
                changed = True
    return {
        name: regs for name, regs in defined_in.items()
        if name == function.entry or preds.get(name)
    }


def undefined_uses(
    function: Function, seed: FrozenSet[str] = frozenset()
) -> Iterator[Tuple[str, ir.Instruction, Reg]]:
    """Yield ``(block, inst, reg)`` for every use a definition may not
    reach, block by block (one register can be yielded more than once)."""
    defined_in = defined_at_entry(function, seed)
    for name, block in function.blocks.items():
        if name not in defined_in:
            continue
        defined = set(defined_in[name])
        for inst in block.instructions:
            for reg in inst.uses():
                if reg.name not in defined:
                    yield name, inst, reg
            defined.update(reg.name for reg in inst.defs())


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
