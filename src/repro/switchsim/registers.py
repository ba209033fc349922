"""P4 registers: small stateful memory updated by the data plane.

A register supports a read and a single stateful-ALU read-modify-write per
traversal; the control plane can also write it (for replicated scalars).
"""

from __future__ import annotations

from repro.ir.instructions import BinOpKind
from repro.ir.interp import _apply_binop


class Register:
    """One register cell (Gallium maps each scalar global to one cell)."""

    def __init__(self, name: str, width_bits: int = 32):
        self.name = name
        self.width_bits = width_bits
        self._mask = (1 << width_bits) - 1
        self.value = 0  # a register powers up at 0
        self.read_count = 0
        self.write_count = 0

    def read(self) -> int:
        self.read_count += 1
        return self.value

    def rmw(self, op: BinOpKind, operand: int) -> int:
        """Stateful-ALU fetch-and-op; returns the pre-update value."""
        self.read_count += 1
        self.write_count += 1
        old = self.value
        self.value = _apply_binop(op, old, operand) & self._mask
        return old

    def control_write(self, value: int) -> None:
        self.write_count += 1
        self.value = value & self._mask

    def preimage(self) -> int:
        """Committed value for undo-log capture (no counter side effects)."""
        return self.value

    def restore(self, value: int) -> None:
        """Write the cell back to its pre-image (undo-log rollback; not a
        data-plane write, so counters stay untouched)."""
        self.value = value & self._mask

    def __repr__(self) -> str:
        return f"<Register {self.name}={self.value} ({self.width_bits}b)>"
