"""The must-defined dataflow as it was before it ran on bitsets: the
oracle of ``tests/ir/test_validate_oracle.py``.

``repro.ir.validate`` solves which registers are definitely defined at
each block's entry with one bit per name the seed holds or an
instruction defines.  This is the path it replaced, kept literal: Python
sets of register names, every name in every block's set.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, Set, Tuple

from repro.ir import instructions as ir
from repro.ir.function import Function
from repro.ir.values import Reg


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
