"""Basic blocks and functions (the IR's control-flow graph)."""

from __future__ import annotations

import functools
from typing import (
    Any, Callable, Dict, Hashable, Iterator, List, Optional, Set, Tuple,
)

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

    def successors(self) -> Tuple[str, ...]:
        instructions = self.instructions
        if instructions and isinstance(instructions[-1], Terminator):
            return instructions[-1].successors()
        return ()

    def append(self, instruction: Instruction) -> None:
        instructions = self.instructions
        if instructions and isinstance(instructions[-1], Terminator):
            raise ValueError(
                f"block {self.name!r} already terminated; cannot append"
            )
        instructions.append(instruction)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.name} ({len(self.instructions)} insts)>"


class Function:
    """An IR function: named basic blocks with a designated entry.

    Blocks are edited in place (lowering appends, projection and tests
    replace and insert whole instructions), so nothing derived from them is
    stored as a fact of the function; it is stored as an answer about its
    *shape* — the entry, the block names in order and the exact sequence
    of instruction objects in each — and :meth:`once` compares the shape
    on every read.  An analysis must not point back at the function: a
    finished compile is freed by reference count, not by a collector pass
    (the code generated for a deployment, ``compile_function``, is the one
    answer that does, and goes with the function at the next collection).
    """

    def __init__(self, name: str, entry: str = "entry"):
        self.name = name
        self.entry = entry
        self.blocks: Dict[str, BasicBlock] = {}
        self._shape: Optional[tuple] = None
        self._answers: Dict[Hashable, Any] = {}

    def block(self, name: str) -> BasicBlock:
        return self.blocks[name]

    def add_block(self, name: str) -> BasicBlock:
        if name in self.blocks:
            raise ValueError(f"duplicate block name {name!r}")
        block = BasicBlock(name)
        self.blocks[name] = block
        return block

    def once(self, question: Callable[..., Any], *args: Hashable) -> Any:
        """``question(self, *args)``, computed once per shape.

        What comes back is shared with every other caller: read it, do
        not change it.
        """
        shape = (
            self.entry,
            tuple(self.blocks),
            [tuple(block.instructions) for block in self.blocks.values()],
        )
        if shape != self._shape:
            self._shape, self._answers = shape, {}
        key = (question, *args) if args else question
        try:
            return self._answers[key]
        except KeyError:
            answer = self._answers[key] = question(self, *args)
            return answer

    # -- traversal ------------------------------------------------------------

    def successors(self) -> Dict[str, Tuple[str, ...]]:
        """Block name -> the names its terminator can jump to."""
        return self.once(_successors)

    def predecessors(self) -> Dict[str, Tuple[str, ...]]:
        return self.once(_predecessors)

    def block_order(self) -> Tuple[str, ...]:
        """Reverse post-order from the entry, then any unreachable blocks."""
        return self.once(_block_order)

    def instructions(self) -> Tuple[Instruction, ...]:
        """All instructions, in block order (entry-first RPO where possible)."""
        return self.once(_instructions)

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
        return self.once(_defined_regs)

    def registers(self) -> Dict[str, Reg]:
        """Every register the function names, defined or only read (a
        projection reads its shim inputs), by name: the population the
        metadata allocation (constraint 4, and the slices of the P4
        ``metadata_t``) and the C++ declarations each size."""
        return self.once(_registers)

    def __repr__(self) -> str:
        return (
            f"<Function {self.name}: {len(self.blocks)} blocks,"
            f" {self.instruction_count()} insts>"
        )


def per_shape(analysis: Callable[[Function], Any]) -> Callable[[Function], Any]:
    """Make ``analysis(function)`` an answer about the function's shape:
    computed on the first call, read back until the shape changes
    (:meth:`Function.once`)."""

    @functools.wraps(analysis)
    def read(function: Function) -> Any:
        return function.once(analysis)

    return read


def _successors(function: Function) -> Dict[str, Tuple[str, ...]]:
    return {
        name: block.successors() for name, block in function.blocks.items()
    }


def _predecessors(function: Function) -> Dict[str, Tuple[str, ...]]:
    preds: Dict[str, List[str]] = {name: [] for name in function.blocks}
    for name, successors in function.successors().items():
        for succ in successors:
            if succ in preds:
                preds[succ].append(name)
    return {name: tuple(found) for name, found in preds.items()}


def _block_order(function: Function) -> Tuple[str, ...]:
    successors = function.successors()
    order: List[str] = []
    visited: Set[str] = set()
    # Depth-first post-order from the entry, on a stack of our own: a
    # recursive closure is a reference cycle, and would keep the function
    # alive until a collector pass.
    stack: List[Tuple[str, Iterator[str]]] = []
    if function.entry in successors:
        visited.add(function.entry)
        stack.append((function.entry, iter(successors[function.entry])))
    while stack:
        name, remaining = stack[-1]
        for succ in remaining:
            if succ not in visited and succ in successors:
                visited.add(succ)
                stack.append((succ, iter(successors[succ])))
                break
        else:
            order.append(name)
            stack.pop()
    order.reverse()
    order.extend(name for name in function.blocks if name not in visited)
    return tuple(order)


def _instructions(function: Function) -> Tuple[Instruction, ...]:
    blocks = function.blocks
    return tuple([
        inst
        for block_name in function.block_order()
        for inst in blocks[block_name].instructions
    ])


def _defined_regs(function: Function) -> Dict[str, Reg]:
    return {
        reg.name: reg
        for inst in function.instructions() for reg in inst.facts.defs
    }


def _registers(function: Function) -> Dict[str, Reg]:
    regs: Dict[str, Reg] = {}
    for inst in function.instructions():
        facts = inst.facts
        for reg in facts.defs + facts.uses:
            regs.setdefault(reg.name, reg)
    return regs
