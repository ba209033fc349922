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

from typing import Any, Dict, Mapping, Optional, Tuple, Type

from repro.ir.function import Function
from repro.ir.interp import Interpreter, PacketView
from repro.net.packet import RawPacket
from repro.switchsim.registers import Register
from repro.switchsim.tables import ExactMatchTable

#: what one traversal yields: verdict ("send" | "drop" | None when it fell
#: off the end), explicit egress port, final environment (the compiled
#: switch builds it only when there is no verdict: ``None`` otherwise),
#: instruction count
Traversal = Tuple[Optional[str], Optional[int], Optional[Dict[str, int]],
                  int]


class DataPlaneViolation(Exception):
    """A pipeline attempted an operation the data plane cannot perform."""


#: The builders below spell each violation once; an engine with its own
#: exception class for them (the prover's symbolic switch) names it.
Violation = Type[Exception]


def accessed_twice(state: str,
                   violation: Violation = DataPlaneViolation) -> Exception:
    return violation(
        f"stateful element {state!r} accessed twice in one traversal"
    )


def unknown_member(access: str, name: str,
                   violation: Violation = DataPlaneViolation) -> Exception:
    """``access`` is the phrase the violation opens with: ``"lookup on
    unknown table"``, ``"read of unknown register"``, ``"RMW of unknown
    register"``."""
    return violation(f"{access} {name!r}")


def rmw_width_mismatch(name: str, width: int, register,
                       violation: Violation = DataPlaneViolation) -> Exception:
    # Uniform with StateStore.rmw_scalar: a caller-supplied width must
    # agree with the cell's declared width, never silently re-mask (the
    # stateful ALU wraps at width_bits, full stop).
    return violation(
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


def forbidden(operation: str, name: str,
              violation: Violation = DataPlaneViolation) -> Exception:
    return violation(FORBIDDEN[operation].format(name=name))


class AccessRules:
    """What one traversal may do to ``tables`` and ``registers``, whatever
    a value in them is: one access per stateful element, none to an
    element the switch does not hold, an RMW only at the register's
    declared width, none of the five mutations.  The interpreted adapter
    below and the prover's symbolic switch state are this plus their own
    lookups; the compiled rendition emits the same builders in place."""

    tables: Mapping[str, Any]
    registers: Mapping[str, Any]
    #: the exception a refused access raises
    violation: Violation = DataPlaneViolation

    def begin_traversal(self) -> None:
        self._accessed: set = set()

    def _count(self, state: str) -> None:
        if state in self._accessed:
            raise accessed_twice(state, self.violation)
        self._accessed.add(state)

    def _table(self, name: str):
        """The table behind this traversal's one lookup on ``name``."""
        self._count(name)
        table = self.tables.get(name)
        if table is None:
            raise unknown_member("lookup on unknown table", name,
                                 self.violation)
        return table

    def _register(self, name: str, access: str, width: Optional[int] = None):
        """The register behind this traversal's one ``access`` (``"read"``
        | ``"RMW"``) of ``name``."""
        self._count(name)
        register = self.registers.get(name)
        if register is None:
            raise unknown_member(f"{access} of unknown register", name,
                                 self.violation)
        if width and width != register.width_bits:
            raise rmw_width_mismatch(name, width, register, self.violation)
        return register

    # -- operations the data plane cannot do -----------------------------------

    def map_insert(self, name: str, keys, value) -> None:
        raise forbidden("map_insert", name, self.violation)

    def map_erase(self, name: str, keys) -> None:
        raise forbidden("map_erase", name, self.violation)

    def store_scalar(self, name: str, value) -> None:
        raise forbidden("store_scalar", name, self.violation)

    def vector_len(self, name: str):
        raise forbidden("vector_len", name, self.violation)

    def vector_push(self, name: str, value) -> None:
        raise forbidden("vector_push", name, self.violation)


class SwitchStateAdapter(AccessRules):
    """StateStore-compatible facade over switch tables and registers."""

    def __init__(self, tables: Dict[str, ExactMatchTable],
                 registers: Dict[str, Register]):
        self.tables = tables
        self.registers = registers
        self.begin_traversal()
        #: Optional :class:`repro.telemetry.PacketTracer` (``None`` when
        #: tracing is off; the interpreter picks it up via ``state.tracer``).
        self.tracer = None

    # -- StateStore interface ------------------------------------------------

    def map_find(self, name: str, keys: tuple):
        found, value = self._table(name).lookup(keys)
        if self.tracer is not None:
            self.tracer.record("table_lookup", name=name, key=keys,
                               hit=found, value=value)
        return found, value

    def vector_get(self, name: str, index: int) -> int:
        found, value = self._table(name).lookup((index,))
        value = value if found else 0
        if self.tracer is not None:
            self.tracer.record("vector_get", name=name, index=index,
                               value=value)
        return value

    def load_scalar(self, name: str) -> int:
        value = self._register(name, "read").read()
        if self.tracer is not None:
            self.tracer.record("register_read", name=name, value=value)
        return value

    def rmw_scalar(self, name: str, op, operand: int,
                   width: Optional[int] = None) -> int:
        register = self._register(name, "RMW", width)
        old = register.rmw(op, operand)
        if self.tracer is not None:
            self.tracer.record("register_rmw", name=name,
                               op=getattr(op, "name", str(op)).lower(),
                               old=old, new=register.value)
        return old


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
