"""The switch specialized to its program: the compiled fast path.

``SwitchModel(..., fast_path=True)`` does not interpret its pre and post
pipelines and does not route their state accesses through a
:class:`~repro.switchsim.pipeline.SwitchStateAdapter`.  It runs what
:func:`specialize` returns: the function :mod:`repro.ir.compile`
generates for the pipeline in the rendition below — once per
``Function`` (:func:`compile_switch_function`), shared by every switch
running the program — bound to *this* switch's tables and registers.

What the rendition changes against the server one is the five state
operations and nothing else.  Each access to a stateful element is
emitted in place as

* the one-access-per-traversal guard: a bit per element in the local
  ``acc``, fresh with every traversal; a second access raises the same
  :class:`~repro.switchsim.pipeline.DataPlaneViolation` the adapter does,
* the call on the bound table or register (``lookup`` / ``read`` /
  ``rmw``), so ``lookup_count`` / ``hit_count`` / ``read_count`` and the
  write-back visibility rule stay where they are defined,
* the tracer hook the adapter fires, with the same fields.

Every mutation a data plane cannot perform raises what the adapter
raises.  What can be decided per switch is decided in :func:`specialize`
and costs nothing per packet: an element the switch does not have, or an
RMW whose width disagrees with the register's, is bound to a
:class:`_Refusal` that raises on use, at the point in the traversal the
adapter would.

The interpreter stays the oracle; ``difftest --compiled`` is the gate.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.ir import instructions as irin
from repro.ir.compile import FunctionEmitter, load
from repro.ir.function import Function
from repro.ir.interp import PacketView
from repro.lang.types import bit_width_of
from repro.net.packet import RawPacket
from repro.switchsim.pipeline import (
    Traversal,
    accessed_twice,
    forbidden,
    rmw_width_mismatch,
    unknown_member,
)
from repro.switchsim.registers import Register
from repro.switchsim.tables import ExactMatchTable

#: one bound element of a specialized pipeline: (member name, access,
#: RMW width) with access "lookup" | "read" | "rmw"
Slot = Tuple[str, str, int]


def _raise(violation: Exception, *evaluated) -> None:
    """Raise ``violation`` once the operands (whose evaluation may itself
    fail, as it would in a call) have been evaluated."""
    raise violation


class _Refusal:
    """Stands in for a table or register the traversal may not use."""

    def __init__(self, violation: Callable[..., Exception], *about):
        self._violation = violation
        self._about = about

    def _refuse(self, *args):
        raise self._violation(*self._about)

    lookup = read = rmw = _refuse


class SwitchEmitter(FunctionEmitter):
    """The rendition a switch pipeline is generated in: ``packet`` is the
    ``RawPacket`` itself, ``state`` the tuple of bound elements."""

    raw = "packet"
    packet_optional = False
    extern_packet = "PacketView(packet)"
    prologue = ("acc = 0",)

    def __init__(self, function: Function):
        super().__init__(function)
        self.namespace.update(
            _twice=accessed_twice, _forbidden=forbidden, _raise=_raise,
            PacketView=PacketView,
        )
        #: what :func:`specialize` binds, in ``state`` order
        self.slots: List[Slot] = []
        self._bits: Dict[str, int] = {}

    def element(self, name: str, access: str, width: int = 0) -> str:
        """Emit the access guard; returns the bound element's source."""
        bit = self._bits.setdefault(name, 1 << len(self._bits))
        self.emit(f"if acc & {bit}:")
        self.emit(f"    raise _twice({name!r})")
        self.emit(f"acc |= {bit}")
        slot = (name, access, width)
        if slot not in self.slots:
            self.slots.append(slot)
        return f"state[{self.slots.index(slot)}]"

    def state_load(self, inst: irin.LoadState) -> None:
        register = self.element(inst.state, "read")
        self.emit(f"_v = {register}.read()")
        self.emit("if tracer is not None:")
        self.emit(f"    tracer.record('register_read', name={inst.state!r},"
                  " value=_v)")
        self.assign(inst.dst, "_v")

    def state_rmw(self, inst: irin.RegisterRMW) -> None:
        self.emit(f"_k = {self.operand(inst.operand)}")
        register = self.element(inst.state, "rmw",
                                bit_width_of(inst.dst.type, 32))
        self.emit(f"_v = {register}.rmw(_K.{inst.op.name}, _k)")
        self.emit("if tracer is not None:")
        self.emit(f"    tracer.record('register_rmw', name={inst.state!r},"
                  f" op={inst.op.name.lower()!r}, old=_v,"
                  f" new={register}.value)")
        self.assign(inst.dst, "_v")

    def state_find(self, inst: irin.MapFind) -> None:
        self.emit(f"_k = {self.keys(inst.keys)}")
        table = self.element(inst.state, "lookup")
        self.emit(f"_f, _v = {table}.lookup(_k)")
        self.emit("if tracer is not None:")
        self.emit(f"    tracer.record('table_lookup', name={inst.state!r},"
                  " key=_k, hit=_f, value=_v)")

    def state_vector_get(self, inst: irin.VectorGet) -> None:
        self.emit(f"_k = {self.operand(inst.index)}")
        table = self.element(inst.state, "lookup")
        self.emit(f"_f, _v = {table}.lookup((_k,))")
        self.emit("if not _f:")
        self.emit("    _v = 0")
        self.emit("if tracer is not None:")
        self.emit(f"    tracer.record('vector_get', name={inst.state!r},"
                  " index=_k, value=_v)")
        self.emit(f"env[{inst.dst.name!r}] = _v")

    def state_other(self, method: str, name: str, *args: str) -> str:
        operands = "".join(f", {arg}" for arg in args)
        return f"_raise(_forbidden({method!r}, {name!r}){operands})"


class SwitchFunction:
    """One pipeline generated in the switch rendition."""

    def __init__(self, function: Function):
        emitter = SwitchEmitter(function)
        self.source, self.entry = load(emitter)
        #: what the entry expects as ``state``, in order
        self.slots: Tuple[Slot, ...] = tuple(emitter.slots)


def compile_switch_function(function: Function) -> SwitchFunction:
    """Generate (or fetch the kept generation of) one pipeline."""
    compiled: SwitchFunction = function.once(SwitchFunction)
    return compiled


def specialize(
    function: Function,
    tables: Dict[str, ExactMatchTable],
    registers: Dict[str, Register],
    tracer,
) -> Callable[[RawPacket, Optional[Dict[str, int]]], Traversal]:
    """``function`` as one switch runs it: ``run(packet, initial_env)``.

    The generated code is fetched from the per-``Function`` cache; what
    happens here, per switch, is one lookup per element the pipeline
    touches.  ``tracer`` (``None`` when tracing is off) is fixed for the
    life of the switch.
    """
    compiled = compile_switch_function(function)
    bound = []
    for name, access, width in compiled.slots:
        if access == "lookup":
            element = tables.get(name)
            if element is None:
                element = _Refusal(
                    unknown_member, "lookup on unknown table", name)
        else:
            element = registers.get(name)
            if element is None:
                element = _Refusal(
                    unknown_member,
                    "RMW of unknown register" if access == "rmw"
                    else "read of unknown register", name)
            elif width and width != element.width_bits:
                element = _Refusal(rmw_width_mismatch, name, width, element)
        bound.append(element)
    return partial(compiled.entry, tuple(bound), None, tracer, None)
