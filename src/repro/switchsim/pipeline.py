"""Pipeline execution: one traversal of the pre or post program.

This is the interpreted engine — the oracle.  (The compiled one, selected
with ``SwitchModel(..., fast_path=True)``, is the rendition in
:mod:`repro.switchsim.compiled`; it raises the same violations, built by
the functions below, and ``difftest --compiled`` holds the two equal.)

The executor reuses the IR interpreter for evaluation semantics but backs
all state accesses with the switch's tables and registers through
:class:`SwitchStateAdapter`, which

* services ``MapFind``/``VectorGet`` from exact-match tables (honouring the
  write-back visibility bit),
* services scalar loads/RMWs from registers,
* **rejects** any mutation a data plane cannot perform (map inserts, bare
  stores) — hitting one is a compiler bug, and
* counts accesses so a traversal touching a stateful element twice fails
  loudly (the run-time shadow of constraint 3).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.ir.function import Function
from repro.ir.interp import Interpreter, PacketView
from repro.net.packet import RawPacket
from repro.switchsim.registers import Register
from repro.switchsim.tables import ExactMatchTable

#: what one traversal yields: verdict ("send" | "drop" | None when it fell
#: off the end), explicit egress port, final environment, instruction count
Traversal = Tuple[Optional[str], Optional[int], Dict[str, int], int]


class DataPlaneViolation(Exception):
    """A pipeline attempted an operation the data plane cannot perform."""


def accessed_twice(state: str) -> DataPlaneViolation:
    return DataPlaneViolation(
        f"stateful element {state!r} accessed twice in one traversal"
    )


def unknown_member(access: str, name: str) -> DataPlaneViolation:
    """``access`` is the phrase the violation opens with: ``"lookup on
    unknown table"``, ``"read of unknown register"``, ``"RMW of unknown
    register"``."""
    return DataPlaneViolation(f"{access} {name!r}")


def rmw_width_mismatch(name: str, width: int,
                       register: Register) -> DataPlaneViolation:
    # Uniform with StateStore.rmw_scalar: a caller-supplied width must
    # agree with the cell's declared width, never silently re-mask (the
    # stateful ALU wraps at width_bits, full stop).
    return DataPlaneViolation(
        f"RMW width {width} does not match register {name!r}"
        f" width {register.width_bits}"
    )


#: operations the data plane cannot do -> what the violation says
FORBIDDEN = {
    "map_insert": "map_insert({name!r}) in a switch pipeline — table writes"
                  " must go through the control plane",
    "map_erase": "map_erase({name!r}) in a switch pipeline",
    "store_scalar": "bare register write {name!r} in a switch pipeline",
    "vector_len": "vector_len({name!r}) has no switch implementation",
    "vector_push": "vector_push({name!r}) in a switch pipeline",
}


def forbidden(operation: str, name: str) -> DataPlaneViolation:
    return DataPlaneViolation(FORBIDDEN[operation].format(name=name))


class SwitchStateAdapter:
    """StateStore-compatible facade over switch tables and registers."""

    def __init__(self, tables: Dict[str, ExactMatchTable],
                 registers: Dict[str, Register]):
        self.tables = tables
        self.registers = registers
        self._access_counts: Dict[str, int] = {}
        #: Optional :class:`repro.telemetry.PacketTracer` (``None`` when
        #: tracing is off; the interpreter picks it up via ``state.tracer``).
        self.tracer = None

    def begin_traversal(self) -> None:
        self._access_counts = {}

    def _count(self, state: str) -> None:
        self._access_counts[state] = self._access_counts.get(state, 0) + 1
        if self._access_counts[state] > 1:
            raise accessed_twice(state)

    # -- StateStore interface ------------------------------------------------

    def map_find(self, name: str, keys: tuple):
        self._count(name)
        table = self.tables.get(name)
        if table is None:
            raise unknown_member("lookup on unknown table", name)
        found, value = table.lookup(keys)
        if self.tracer is not None:
            self.tracer.record("table_lookup", name=name, key=keys,
                               hit=found, value=value)
        return found, value

    def vector_get(self, name: str, index: int) -> int:
        self._count(name)
        table = self.tables.get(name)
        if table is None:
            raise unknown_member("lookup on unknown table", name)
        found, value = table.lookup((index,))
        value = value if found else 0
        if self.tracer is not None:
            self.tracer.record("vector_get", name=name, index=index,
                               value=value)
        return value

    def load_scalar(self, name: str) -> int:
        self._count(name)
        register = self.registers.get(name)
        if register is None:
            raise unknown_member("read of unknown register", name)
        value = register.read()
        if self.tracer is not None:
            self.tracer.record("register_read", name=name, value=value)
        return value

    def rmw_scalar(self, name: str, op, operand: int,
                   width: Optional[int] = None) -> int:
        self._count(name)
        register = self.registers.get(name)
        if register is None:
            raise unknown_member("RMW of unknown register", name)
        if width and width != register.width_bits:
            raise rmw_width_mismatch(name, width, register)
        old = register.rmw(op, operand)
        if self.tracer is not None:
            self.tracer.record("register_rmw", name=name,
                               op=getattr(op, "name", str(op)).lower(),
                               old=old, new=register.value)
        return old

    # -- operations the data plane cannot do -----------------------------------

    def map_insert(self, name: str, keys: tuple, value: int) -> None:
        raise forbidden("map_insert", name)

    def map_erase(self, name: str, keys: tuple) -> None:
        raise forbidden("map_erase", name)

    def store_scalar(self, name: str, value: int) -> None:
        raise forbidden("store_scalar", name)

    def vector_len(self, name: str) -> int:
        raise forbidden("vector_len", name)

    def vector_push(self, name: str, value: int) -> None:
        raise forbidden("vector_push", name)


class PipelineExecutor:
    """Executes pre/post pipeline traversals against switch state."""

    def __init__(self, function: Function, adapter: SwitchStateAdapter):
        self.function = function
        self.adapter = adapter

    def run(self, packet: RawPacket,
            initial_env: Optional[Dict[str, int]] = None) -> Traversal:
        self.adapter.begin_traversal()
        interpreter = Interpreter(self.function, self.adapter)  # type: ignore[arg-type]
        result = interpreter.run(PacketView(packet), initial_env=initial_env)
        return (result.verdict, result.egress_port, result.env,
                result.instructions_executed)
