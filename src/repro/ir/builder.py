"""Convenience builder for constructing IR functions."""

from __future__ import annotations

import itertools
from typing import Optional

from repro.lang.types import BOOL, Type, UINT32
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Instruction, Jump
from repro.ir.values import Reg


class FunctionBuilder:
    """Builds a :class:`Function` block by block with fresh-name helpers."""

    def __init__(self, name: str):
        self.function = Function(name)
        self._temp_counter = itertools.count()
        self._block_counter = itertools.count()
        self.current: Optional[BasicBlock] = None
        self.enter_block(self.function.add_block("entry"))

    # -- names ------------------------------------------------------------

    def fresh_temp(self, type_: Type = UINT32, hint: str = "t") -> Reg:
        return Reg(f"{hint}{next(self._temp_counter)}", type_, is_temp=True)

    def fresh_bool(self, hint: str = "c") -> Reg:
        return self.fresh_temp(BOOL, hint)

    def fresh_block(self, hint: str = "bb") -> BasicBlock:
        return self.function.add_block(f"{hint}{next(self._block_counter)}")

    # -- emission ------------------------------------------------------------

    def enter_block(self, block: BasicBlock) -> BasicBlock:
        self.current = block
        return block

    def emit(self, instruction: Instruction) -> Instruction:
        if self.current is None:
            raise RuntimeError("no current block")
        self.current.append(instruction)
        return instruction

    @property
    def terminated(self) -> bool:
        return self.current is not None and self.current.terminator is not None

    def ensure_jump_to(self, block: BasicBlock, stmt_id: int = -1) -> None:
        """Terminate the current block with a jump if it has no terminator."""
        if not self.terminated:
            self.emit(Jump(block.name, stmt_id=stmt_id))
