"""Basic blocks and functions (the IR's control-flow graph)."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set

from repro.ir.instructions import Instruction, Terminator
from repro.ir.values import Reg


class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, name: str):
        self.name = name
        self.instructions: List[Instruction] = []

    @property
    def terminator(self) -> Optional[Terminator]:
        if self.instructions and isinstance(self.instructions[-1], Terminator):
            return self.instructions[-1]
        return None

    @property
    def body(self) -> List[Instruction]:
        """Instructions excluding the terminator."""
        if self.terminator is not None:
            return self.instructions[:-1]
        return list(self.instructions)

    def successors(self) -> List[str]:
        term = self.terminator
        return term.successors() if term is not None else []

    def append(self, instruction: Instruction) -> None:
        if self.terminator is not None:
            raise ValueError(
                f"block {self.name!r} already terminated; cannot append"
            )
        self.instructions.append(instruction)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.name} ({len(self.instructions)} insts)>"


class Function:
    """An IR function: named basic blocks with a designated entry."""

    def __init__(self, name: str, entry: str = "entry"):
        self.name = name
        self.entry = entry
        self.blocks: Dict[str, BasicBlock] = {}

    def block(self, name: str) -> BasicBlock:
        return self.blocks[name]

    def add_block(self, name: str) -> BasicBlock:
        if name in self.blocks:
            raise ValueError(f"duplicate block name {name!r}")
        block = BasicBlock(name)
        self.blocks[name] = block
        return block

    # -- traversal ------------------------------------------------------------

    def instructions(self) -> Iterator[Instruction]:
        """All instructions, in block order (entry-first RPO where possible)."""
        for block_name in self.block_order():
            yield from self.blocks[block_name].instructions

    def block_order(self) -> List[str]:
        """Reverse post-order from the entry, then any unreachable blocks."""
        order: List[str] = []
        visited: Set[str] = set()

        def visit(name: str) -> None:
            if name in visited or name not in self.blocks:
                return
            visited.add(name)
            for succ in self.blocks[name].successors():
                visit(succ)
            order.append(name)

        visit(self.entry)
        order.reverse()
        for name in self.blocks:
            if name not in visited:
                order.append(name)
        return order

    def predecessors(self) -> Dict[str, List[str]]:
        preds: Dict[str, List[str]] = {name: [] for name in self.blocks}
        for name, block in self.blocks.items():
            for succ in block.successors():
                if succ in preds:
                    preds[succ].append(name)
        return preds

    def instruction_count(self) -> int:
        return sum(len(b.instructions) for b in self.blocks.values())

    def prune_unreachable(self) -> None:
        """Remove blocks unreachable from the entry."""
        reachable: Set[str] = set()
        stack = [self.entry]
        while stack:
            name = stack.pop()
            if name in reachable or name not in self.blocks:
                continue
            reachable.add(name)
            stack.extend(self.blocks[name].successors())
        for name in list(self.blocks):
            if name not in reachable:
                del self.blocks[name]

    # -- derived info -----------------------------------------------------------

    def defined_regs(self) -> Dict[str, Reg]:
        """All registers defined anywhere in the function, by name."""
        return {
            reg.name: reg for inst in self.instructions() for reg in inst.defs()
        }

    def registers(self) -> Dict[str, Reg]:
        """Every register the function names, defined or only read (a
        projection reads its shim inputs), by name: the population the
        scratchpad estimate, the metadata allocator, the P4 ``metadata_t``
        and the C++ declarations each size."""
        regs: Dict[str, Reg] = {}
        for inst in self.instructions():
            for reg in inst.defs() + inst.uses():
                regs.setdefault(reg.name, reg)
        return regs

    def __repr__(self) -> str:
        return (
            f"<Function {self.name}: {len(self.blocks)} blocks,"
            f" {self.instruction_count()} insts>"
        )
