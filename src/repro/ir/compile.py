"""Compile IR functions to specialized Python code (the fast path).

The :class:`~repro.ir.interp.Interpreter` decodes each instruction once,
but still makes a call per instruction executed, keeps every register in
a dict and looks a header field up on every packet access.  This module
removes that overhead the way the NetKAT compiler removes
interpretation overhead from its pipeline, and the way Druzhba generates
a pipeline simulator specialized to one program: each function is
compiled **once** into one specialized Python function in which

* every IR register is one Python local (``r_<name>``); only the
  function's live-ins (:func:`~repro.ir.validate.unsatisfied_uses`) are
  copied in from ``initial_env``, and a read of one the caller did not
  give raises the interpreter's ``read of undefined register`` error,
* ``env`` is built only at the exits whose caller reads it (every exit
  here; the switch rendition only the punt): the caller's environment
  plus every register the path taken bound,
* result masks (``& 0xff`` ...) are resolved from the register types at
  compile time and left out where the value already fits the
  destination — a 0/1 result, an ``&`` with a non-negative literal, an
  address field, a copy from a register every definition of which is
  wrapped to at most the destination's width (never a ``MapFind``
  value, ``VectorGet``, ``VectorLen``, extern result or live-in);
  literal operands and shift amounts are folded,
* header field paths are resolved from the field map at compile time,
  including the TCP/UDP port aliasing and the absent-header semantics; a
  header is bound to a local once per straight-line path from the
  packet's slot (:data:`~repro.net.packet.HEADER_SLOTS`, with the class
  test the property runs), and an address field reads the wrapper's
  integer directly,
* state calls carry literal member names and RMW widths, and
* control flow is Python control flow: a block with a single predecessor
  is emitted *inside* the ``if`` arm (or after the jump) that reaches it,
  so a loop-free pipeline is one nest of ``if``/``else`` and a packet
  reaches its verdict without a dispatch; only join points and loop heads
  go through the ``_i`` dispatch at the top of the driver loop.  Step
  counts and executed-instruction ids are constants of each exit from
  such a nest, added once when the exit is taken.

The generated function is the *traversal entry*::

    entry(state, externs, tracer, ids, packet, initial_env)
        -> (verdict, egress_port, env, steps)

:func:`repro.ir.interp.interpreted` gives the interpreter the same shape,
so a runtime holds one kind of callable whichever engine it was built
for.  The server runtimes call :meth:`CompiledFunction.traverse` (the
entry, unless the trace is deep); :meth:`CompiledFunction.run` wraps that
into an :class:`~repro.ir.interp.ExecutionResult` for the bare-engine
callers; the switch model calls the entry itself, through the rendition
in :mod:`repro.switchsim.compiled` that inlines the data-plane
restrictions (:class:`FunctionEmitter` is the one generator both share).

The interpreter stays the oracle: ``difftest --compiled`` runs every
generated program through both engines and demands byte-identical
verdicts, environments, journals, and state (the Gauntlet discipline —
the fast path never replaces the reference semantics, it is checked
against them).

Equivalence caveats, by construction:

* The step limit is checked once per dispatch (and once at the end), so a
  runaway program raises the same :class:`InterpreterError` as the
  interpreter but may execute up to one loop-free nest more before it
  does.  No terminating program is affected.
* Deep tracing (one event per executed instruction) falls back to the
  interpreter — specialization would have to emit a trace call per
  instruction, which is exactly the overhead being removed.
"""

from __future__ import annotations

import re
from types import MappingProxyType
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lang.types import BOOL, IntType, bit_width_of
from repro.ir import instructions as irin
from repro.ir.externs import ExternHost
from repro.ir.function import Function
from repro.ir.interp import (
    MASK64,
    ExecutionResult,
    InterpreterError,
    _MAX_STEPS,
    interpreted,
)
from repro.ir.validate import defined_at_entry, unsatisfied_uses
from repro.ir.values import Const, Reg
from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.fields import HeaderField, header_field
from repro.net.packet import HEADER_SLOTS

#: ``if`` arms nested deeper than this go through the dispatch instead
#: (the tokenizer refuses more than 100 indentation levels).
_MAX_NESTING = 60


def _no_packet():
    raise InterpreterError("packet access without a packet")


#: Binary operators as inline source templates, mirroring ``_apply_binop``
#: exactly (division by zero yields 0, comparisons and logicals produce
#: 0/1).  A shift's ``{b}`` is its amount already masked to 6 bits.
_BINOP_SRC = {
    irin.BinOpKind.ADD: "({a} + {b})",
    irin.BinOpKind.SUB: "({a} - {b})",
    irin.BinOpKind.MUL: "({a} * {b})",
    irin.BinOpKind.DIV: "(({a} // {b}) if {b} else 0)",
    irin.BinOpKind.MOD: "(({a} % {b}) if {b} else 0)",
    irin.BinOpKind.AND: "({a} & {b})",
    irin.BinOpKind.OR: "({a} | {b})",
    irin.BinOpKind.XOR: "({a} ^ {b})",
    irin.BinOpKind.SHL: "({a} << {b})",
    irin.BinOpKind.SHR: "({a} >> {b})",
    irin.BinOpKind.EQ: "(1 if {a} == {b} else 0)",
    irin.BinOpKind.NE: "(1 if {a} != {b} else 0)",
    irin.BinOpKind.LT: "(1 if {a} < {b} else 0)",
    irin.BinOpKind.LE: "(1 if {a} <= {b} else 0)",
    irin.BinOpKind.GT: "(1 if {a} > {b} else 0)",
    irin.BinOpKind.GE: "(1 if {a} >= {b} else 0)",
    irin.BinOpKind.LAND: "(1 if ({a} and {b}) else 0)",
    irin.BinOpKind.LOR: "(1 if ({a} or {b}) else 0)",
}
_SHIFTS = (irin.BinOpKind.SHL, irin.BinOpKind.SHR)
#: the operators whose template yields 0 or 1
_ZERO_ONE = frozenset(
    op for op, src in _BINOP_SRC.items() if src.startswith("(1 if")
)

#: Definitions the emitted code leaves within their destination's width:
#: it wraps them, or leaves a wrap out only where the value already fits.
#: A ``MapFind`` value, a ``VectorGet`` and a ``VectorLen`` are kept as
#: the call returned them, and an extern's result does not count either
#: (its host is outside the program), so a register one of these defines
#: has no known width.
_WRAPPED = (irin.Assign, irin.Cast, irin.BinOp, irin.UnOp,
            irin.LoadPacketField, irin.LoadState, irin.RegisterRMW)

#: the caller gave no environment (never written: an exit copies it)
_NO_ENV = MappingProxyType({})
#: a register no definition has reached yet
_UNSET = object()
#: the name a ``NameError`` message quotes
_QUOTED = re.compile(r"'(\w+)'")


def _width(reg: Reg) -> int:
    """Bits ``reg`` holds after the interpreter's wrap."""
    if reg.type is BOOL:
        return 1
    if isinstance(reg.type, IntType):
        return reg.type.bits
    return 64


def _wrapped(value: int, reg: Reg) -> int:
    """The interpreter's wrap of a literal, done now."""
    if reg.type is BOOL:
        return 1 if value else 0
    if isinstance(reg.type, IntType):
        return value & reg.type.mask
    return value & MASK64


#: What a path has established so far: ``"packet"`` once the no-packet
#: guard ran, plus the header locals (``_ip`` ...) already bound on it.
Bound = FrozenSet[str]
_NOTHING: Bound = frozenset()
_VERDICTS = (irin.Send, irin.SendTo, irin.Drop, irin.Return)
_RELEASES = (irin.Send, irin.SendTo, irin.Drop)


class FunctionEmitter:
    """Emits the source of one specialized function.

    This class renders state operations as calls on a
    :class:`~repro.ir.interp.StateStore`-shaped ``state`` and reads the
    packet through a :class:`~repro.ir.interp.PacketView`; a rendition
    for another executor overrides the five ``state_*`` hooks and the
    class attributes below (see :mod:`repro.switchsim.compiled`).
    """

    #: expression of the ``RawPacket`` behind the ``packet`` argument
    raw = "packet.raw"
    #: ``packet`` may be ``None`` (guard the first access on each path)
    packet_optional = True
    #: expression of the packet handle an extern call receives
    extern_packet = "packet"
    #: locals the entry initializes besides verdict / steps
    prologue: Tuple[str, ...] = ()
    #: every exit builds ``env``; ``False``: only the exits that release
    #: no packet do (the others return ``env`` as the prologue left it)
    env_on_verdict = True

    def __init__(self, function: Function):
        self.function = function
        self.lines: List[str] = []
        self.depth = 1
        #: register name -> the local holding it, and back
        self._locals: Dict[str, str] = {}
        self._registers: Dict[str, str] = {}
        #: names the generated code reads from its globals
        self.namespace: Dict[str, object] = {
            "InterpreterError": InterpreterError,
            "Ipv4Address": Ipv4Address,
            "MacAddress": MacAddress,
            "ExternHost": ExternHost,
            "_K": irin.BinOpKind,
            "_NO_ENV": _NO_ENV,
            "_UNSET": _UNSET,
            "_no_packet": _no_packet,
            "_limit": self._limit,
            "_undefined": self._undefined,
            **{cls.__name__: cls for _, cls in HEADER_SLOTS.values() if cls},
        }
        self._preds: Dict[str, int] = {name: 0 for name in function.blocks}
        for block in function.blocks.values():
            for successor in block.successors():
                if successor in self._preds:
                    self._preds[successor] += 1
        #: dispatch index per block that is entered through ``_i``
        self._heads: Dict[str, int] = {function.entry: 0}
        #: registers a read may reach before any definition: the only
        #: ones copied in from ``initial_env``
        self.live_in: Tuple[str, ...] = tuple(unsatisfied_uses(function))
        #: register -> the most bits a definition leaves in it (``None``:
        #: unknown), and the order registers are first defined in
        self._fits: Dict[str, Optional[int]] = {}
        self._rank: Dict[str, int] = {}
        for block in function.blocks.values():
            for inst in block.instructions:
                for reg in inst.defs():
                    fits = self._fits.get(reg.name, 0)
                    self._rank.setdefault(reg.name, len(self._rank))
                    wrapped = isinstance(inst, _WRAPPED) or (
                        isinstance(inst, irin.MapFind)
                        and reg.name == inst.found.name  # int() of a bool
                    )
                    self._fits[reg.name] = (
                        max(fits, _width(reg))
                        if wrapped and fits is not None else None
                    )
        for name in self.live_in:
            self._fits[name] = None
        #: registers bound on every path into a block, and those only
        #: some path into the dispatch head being emitted binds
        self._must = defined_at_entry(function)
        self._maybe: Tuple[str, ...] = ()
        self._unset: Dict[str, None] = {}
        self._builds_env = False

    # -- what the generated code calls on the slow exits ----------------------

    def _limit(self) -> None:
        raise InterpreterError(
            f"{self.function.name}: step limit exceeded (runaway loop?)"
        )

    def _undefined(self, exc: NameError) -> None:
        """Re-raise a read of an unbound register local the interpreter's
        way; any other ``NameError`` (one raised by a callee, say) is the
        caller's to re-raise as it is."""
        if exc.__traceback__ is None or exc.__traceback__.tb_next is not None:
            return
        quoted = _QUOTED.search(str(exc))
        name = quoted and self._registers.get(quoted[1])
        if name is not None:
            raise InterpreterError(
                f"{self.function.name}: read of undefined register %{name}"
            ) from None

    # -- expression fragments ------------------------------------------------

    def local(self, name: str) -> str:
        """The Python local register ``name`` lives in."""
        local = self._locals.get(name)
        if local is None:
            local = base = "r_" + re.sub(r"\W", "_", name)
            suffix = 0
            while local in self._registers:
                suffix += 1
                local = f"{base}_{suffix}"
            self._locals[name], self._registers[local] = local, name
        return local

    def operand(self, operand) -> str:
        if isinstance(operand, Const):
            return repr(int(operand.value))
        if isinstance(operand, Reg):
            return self.local(operand.name)
        raise InterpreterError(f"bad operand {operand!r}")

    @staticmethod
    def wrap(expr: str, reg: Reg) -> str:
        """Inline the interpreter's ``_wrap`` with the mask resolved now."""
        type_ = reg.type
        if type_ is BOOL:
            return f"(1 if {expr} else 0)"
        if isinstance(type_, IntType):
            return f"({expr} & {type_.mask:#x})"
        return f"({expr} & 0xFFFFFFFFFFFFFFFF)"

    def keys(self, operands) -> str:
        parts = [self.operand(k) for k in operands]
        if len(parts) == 1:
            return f"({parts[0]},)"
        return "(" + ", ".join(parts) + ")"

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def store(self, dst: Reg, expr: str) -> None:
        self.emit(f"{self.local(dst.name)} = {expr}")

    def assign(self, dst: Reg, expr: str, fits: Optional[int] = None) -> None:
        """``dst = expr`` wrapped as the interpreter wraps it; the wrap
        is left out when ``expr`` is known to take at most ``fits`` bits
        and ``dst`` holds at least that many (a 0/1 result in a
        ``bool``, too: ``1 if v else 0`` is ``v``)."""
        if fits is None or fits > _width(dst):
            expr = self.wrap(expr, dst)
        self.store(dst, expr)

    def copy(self, inst) -> None:
        """An ``Assign`` / ``Cast``: a literal is wrapped now; a register
        whose every definition fits the destination is copied bare."""
        if isinstance(inst.src, Const):
            self.store(inst.dst, repr(_wrapped(int(inst.src.value), inst.dst)))
            return
        fits = self._fits.get(inst.src.name) if isinstance(inst.src, Reg) else None
        self.assign(inst.dst, self.operand(inst.src), fits)

    def binop(self, inst: irin.BinOp) -> None:
        src = _BINOP_SRC.get(inst.op)
        if src is None:
            raise InterpreterError(f"unknown binop {inst.op}")
        a, b = self.operand(inst.lhs), self.operand(inst.rhs)
        fits = None
        if inst.op in _ZERO_ONE:
            fits = 1
        elif inst.op in _SHIFTS:
            b = (repr(int(inst.rhs.value) & 63)
                 if isinstance(inst.rhs, Const) else f"({b} & 63)")
        elif inst.op is irin.BinOpKind.AND:
            # ``x & c`` with ``c >= 0`` lies in ``[0, c]`` whatever ``x`` is.
            masks = [int(o.value) for o in (inst.lhs, inst.rhs)
                     if isinstance(o, Const) and int(o.value) >= 0]
            if masks:
                fits = min(masks).bit_length()
        self.assign(inst.dst, src.format(a=a, b=b), fits)

    # -- state operations (the rendition hooks) ---------------------------------

    def state_load(self, inst: irin.LoadState) -> None:
        self.assign(inst.dst, f"state.load_scalar({inst.state!r})")

    def state_rmw(self, inst: irin.RegisterRMW) -> None:
        width = bit_width_of(inst.dst.type, 32)
        self.assign(
            inst.dst,
            f"state.rmw_scalar({inst.state!r}, _K.{inst.op.name},"
            f" {self.operand(inst.operand)}, {width})",
        )

    def state_find(self, inst: irin.MapFind) -> None:
        self.emit(f"_f, _v = state.map_find({inst.state!r},"
                  f" {self.keys(inst.keys)})")

    def state_vector_get(self, inst: irin.VectorGet) -> None:
        self.store(inst.dst, f"state.vector_get({inst.state!r},"
                             f" {self.operand(inst.index)})")

    def state_other(self, method: str, name: str, *args: str) -> str:
        """Source of a store mutation or ``vector_len`` (operations a
        data plane does not have)."""
        return f"state.{method}({', '.join((repr(name),) + args)})"

    # -- packet access -----------------------------------------------------------

    def guard(self, bound: Bound) -> Bound:
        # ``packet`` cannot change along a path, so one guard at the
        # first packet access raises at exactly the program point the
        # interpreter would.
        if not self.packet_optional or "packet" in bound:
            return bound
        self.emit("if packet is None:")
        self.emit("    _no_packet()")
        return bound | {"packet"}

    def header(self, row: HeaderField, bound: Bound) -> Tuple[str, Bound]:
        """The local holding the header ``row`` is a field of (``None``
        when absent), bound on first use along the path from the
        packet's slot, with the class test the header property runs."""
        # An aliased field has its own local: it falls back to the other
        # L4 header (kept in the same slot) where the rest of its region
        # reads 0 / drops writes.
        local = "_l4p" if row.alias else f"_{row.region}"
        if local not in bound:
            bound = bound | {local}
            slot, cls = HEADER_SLOTS[row.region]
            self.emit(f"{local} = {self.raw}.{slot}")
            if cls is not None:
                test = cls.__name__
                if row.alias:
                    test = f"({test}, {HEADER_SLOTS[row.alias][1].__name__})"
                self.emit(f"if not isinstance({local}, {test}):")
                self.emit(f"    {local} = None")
        return local, bound

    def field(self, inst, store: bool = False) -> Optional[HeaderField]:
        """The row of the field ``inst`` accesses; for one the table does
        not have, the interpreter's error is emitted in place of the
        access."""
        try:
            return header_field(inst.region, inst.field, InterpreterError,
                                store)
        except InterpreterError as unknown:
            self.emit(f"raise InterpreterError({str(unknown)!r})")
            return None

    def load_packet_field(self, inst: irin.LoadPacketField,
                          bound: Bound) -> Bound:
        bound = self.guard(bound)
        row = self.field(inst)
        if row is None:
            return bound
        if row.region == "meta":
            self.assign(inst.dst, f"{self.raw}.{row.attr}")
            return bound
        local, bound = self.header(row, bound)
        access = f"{local}.{row.attr}"
        if row.wrapper:
            # The address classes keep their integer, range-checked, here.
            access += "._value"
        self.assign(inst.dst, f"(0 if {local} is None else {access})",
                    row.width if row.wrapper else None)
        return bound

    def store_packet_field(self, inst: irin.StorePacketField,
                           bound: Bound) -> Bound:
        bound = self.guard(bound)
        self.emit(f"_v = {self.operand(inst.src)}")
        row = self.field(inst, store=True)
        if row is None:
            return bound
        local, bound = self.header(row, bound)
        value = f"_v & 0x{row.mask:X}" if row.masked else "_v"
        if row.wrapper:
            value = f"{row.wrapper.__name__}({value})"
        self.emit(f"if {local} is not None:")
        self.emit(f"    {local}.{row.attr} = {value}")
        # The interpreter traces the write whether or not the header was
        # present (writes to absent headers drop silently but still trace).
        self.emit("if tracer is not None:")
        self.emit(f"    tracer.record('packet_write', region={inst.region!r},"
                  f" field={inst.field!r}, value=_v)")
        return bound

    # -- straight-line instructions -------------------------------------------------

    def instruction(self, inst, bound: Bound) -> Bound:
        """Emit one non-terminator; returns what the path now has bound."""
        if isinstance(inst, (irin.Assign, irin.Cast)):
            self.copy(inst)
        elif isinstance(inst, irin.BinOp):
            self.binop(inst)
        elif isinstance(inst, irin.UnOp):
            src = self.operand(inst.src)
            if inst.op is irin.UnOpKind.NEG:
                self.assign(inst.dst, f"(-{src})")
            elif inst.op is irin.UnOpKind.NOT:
                self.assign(inst.dst, f"(~{src})")
            else:  # LNOT
                self.assign(inst.dst, f"(0 if {src} else 1)", 1)
        elif isinstance(inst, irin.LoadPacketField):
            return self.load_packet_field(inst, bound)
        elif isinstance(inst, irin.StorePacketField):
            return self.store_packet_field(inst, bound)
        elif isinstance(inst, irin.LoadState):
            self.state_load(inst)
        elif isinstance(inst, irin.RegisterRMW):
            self.state_rmw(inst)
        elif isinstance(inst, irin.MapFind):
            self.state_find(inst)
            self.store(inst.found, "int(_f)")
            if inst.value is not None:
                # Deliberately unwrapped, like the interpreter.
                self.store(inst.value, "_v")
        elif isinstance(inst, irin.VectorGet):
            self.state_vector_get(inst)
        elif isinstance(inst, irin.StoreState):
            self.emit(self.state_other("store_scalar", inst.state,
                                       self.operand(inst.src)))
        elif isinstance(inst, irin.MapInsert):
            self.emit(self.state_other("map_insert", inst.state,
                                       self.keys(inst.keys),
                                       self.operand(inst.value)))
        elif isinstance(inst, irin.MapErase):
            self.emit(self.state_other("map_erase", inst.state,
                                       self.keys(inst.keys)))
        elif isinstance(inst, irin.VectorLen):
            self.store(inst.dst, self.state_other("vector_len", inst.state))
        elif isinstance(inst, irin.VectorPush):
            self.emit(self.state_other("vector_push", inst.state,
                                       self.operand(inst.value)))
        elif isinstance(inst, irin.ExternCall):
            args = ", ".join(self.operand(a) for a in inst.args)
            self.emit("if externs is None:")
            self.emit("    externs = ExternHost()")
            self.emit(f"_r = externs.call({inst.name!r}, [{args}],"
                      f" {self.extern_packet})")
            if inst.dst is not None:
                self.assign(inst.dst, "_r")
            # An extern sees the packet handle: rebind headers after it.
            return bound & {"packet"}
        else:
            raise InterpreterError(
                f"unhandled instruction {type(inst).__name__}"
            )
        return bound

    # -- control flow ---------------------------------------------------------------

    def verdict(self, inst) -> None:
        """Emit a packet-release terminator (``Return`` releases nothing)."""
        if isinstance(inst, irin.SendTo):
            self.emit(f"port = {self.operand(inst.port)}")
            self.emit("verdict = 'send'")
            mirror = "packet.send(port)"
        elif isinstance(inst, irin.Send):
            self.emit("verdict = 'send'")
            mirror = "packet.send()"
        elif isinstance(inst, irin.Drop):
            self.emit("verdict = 'drop'")
            mirror = "packet.drop()"
        else:
            return
        if self.packet_optional:
            self.emit("if packet is not None:")
            self.emit(f"    {mirror}")

    def build_env(self, defined: Tuple[str, ...]) -> None:
        """``env`` as the interpreter leaves it: the caller's environment
        plus every register bound on the path taken — ``defined`` surely,
        ``self._maybe`` where an earlier pass through the dispatch did.
        One of those starts out ``_UNSET`` (nothing reads it before a
        definition), a live-in unbound (a read must fail)."""
        self._builds_env = True
        # A copy and one store per register: a ``{**initial_env, ...}``
        # literal merges two dicts and takes twice as long.
        self.emit("env = initial_env.copy()")
        for name in defined:
            self.emit(f"env[{name!r}] = {self.local(name)}")
        for name in self._maybe:
            if name in defined:
                continue
            local = self.local(name)
            if name in self.live_in:
                self.emit("try:")
                self.emit(f"    env[{name!r}] = {local}")
                self.emit("except NameError:")
                self.emit("    pass")
            else:
                self._unset.setdefault(local)
                self.emit(f"if {local} is not _UNSET:")
                self.emit(f"    env[{name!r}] = {local}")

    def leave(self, steps: int, ids: List[int], target: Optional[str]) -> None:
        """One exit from the nest: account for the whole path in one
        step, then dispatch to ``target`` or finish."""
        self.emit(f"steps += {steps}")
        constant = f"_ids{len(self.namespace)}"
        self.namespace[constant] = tuple(ids)
        self.emit("if ids is not None:")
        self.emit(f"    ids.extend({constant})")
        if target is None:
            self.emit("break")
            return
        index = self._heads.setdefault(target, len(self._heads))
        self.emit(f"_i = {index}")
        self.emit("continue")

    def inlinable(self, target: str, nesting: int) -> bool:
        """``target`` is reached from here only, so it is emitted here."""
        return (
            self._preds.get(target) == 1
            and target not in self._heads
            and nesting < _MAX_NESTING
        )

    def arm(self, target: str, steps: int, ids: List[int], bound: Bound,
            defined: Tuple[str, ...], nesting: int) -> None:
        self.depth += 1
        if self.inlinable(target, nesting):
            self.path(target, steps, list(ids), bound, defined, nesting)
        else:
            self.leave(steps, ids, target)
        self.depth -= 1

    def path(self, name: str, steps: int, ids: List[int], bound: Bound,
             defined: Tuple[str, ...], nesting: int) -> None:
        """Emit block ``name`` and everything only it reaches, counting
        ``steps`` / ``ids`` the way the interpreter does: every executed
        instruction, the jumps and branches included.  ``defined`` are
        the registers bound on every way here, in binding order."""
        while True:
            last = None
            for last in self.function.blocks[name].instructions:
                steps += 1
                ids.append(last.id)
                if isinstance(last, irin.Terminator):
                    break
                bound = self.instruction(last, bound)
                defined += tuple(reg.name for reg in last.defs()
                                 if reg.name not in defined)
            if isinstance(last, irin.Jump):
                if self.inlinable(last.target, nesting):
                    name = last.target
                    continue
                self.leave(steps, ids, last.target)
            elif isinstance(last, irin.Branch):
                self.emit(f"if {self.operand(last.cond)}:")
                self.arm(last.if_true, steps, ids, bound, defined,
                         nesting + 1)
                self.emit("else:")
                self.arm(last.if_false, steps, ids, bound, defined,
                         nesting + 1)
            else:
                if isinstance(last, _VERDICTS):
                    self.verdict(last)
                elif isinstance(last, irin.Terminator):
                    raise InterpreterError(
                        f"unhandled instruction {type(last).__name__}"
                    )
                if self.env_on_verdict or not isinstance(last, _RELEASES):
                    self.build_env(defined)
                self.leave(steps, ids, None)
            return

    def bound_at(self, head: str) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """The registers bound on every way into dispatch head ``head``,
        and those bound on only some, each in first-definition order."""
        preds = self.function.predecessors()
        before: Set[str] = set()
        stack = list(preds.get(head, ()))
        while stack:
            name = stack.pop()
            if name not in before:
                before.add(name)
                stack.extend(preds.get(name, ()))
        must = self._must.get(head, set())
        maybe = {
            reg.name for name in before
            for inst in self.function.blocks[name].instructions
            for reg in inst.defs()
        } - must
        return (tuple(sorted(must, key=self._rank.__getitem__)),
                tuple(sorted(maybe, key=self._rank.__getitem__)))

    def source(self) -> str:
        """The whole function: prologue, live-in copies, dispatch loop, one
        ``if _i ==`` arm per dispatch head (discovered while emitting),
        epilogue."""
        self.depth = 3
        emitted = 0
        while emitted < len(self._heads):
            name = list(self._heads)[emitted]  # insertion order = index
            self.emit(f"{'if' if emitted == 0 else 'elif'} _i == {emitted}:")
            self.depth += 1
            defined, self._maybe = self.bound_at(name)
            self.path(name, 0, [], _NOTHING, defined, 0)
            self.depth -= 1
            emitted += 1
        head = [
            "def _entry(state, externs, tracer, ids, packet, initial_env):",
            "    verdict = port = None",
            "    steps = _i = 0",
            *(f"    {line}" for line in self.prologue),
        ]
        if self._unset:
            head.append(f"    {' = '.join(self._unset)} = _UNSET")
        if self.live_in or self._builds_env:
            head += ["    if initial_env is None:",
                     "        initial_env = _NO_ENV"]
        for name in self.live_in:
            head += [f"    if {name!r} in initial_env:",
                     f"        {self.local(name)} = initial_env[{name!r}]"]
        head += [
            "    try:",
            "        while True:",
            f"            if steps > {_MAX_STEPS}:",
            "                _limit()",
        ]
        tail = [
            "    except NameError as exc:",
            "        _undefined(exc)",
            "        raise",
            f"    if steps > {_MAX_STEPS}:",
            "        _limit()",
            "    return verdict, port, env, steps",
            "",
        ]
        text = "\n".join(head + self.lines + tail)
        self.lines.clear()  # the namespace keeps the emitter alive
        return text


def load(emitter: FunctionEmitter) -> Tuple[str, Callable]:
    """Generate the emitter's function and load it: ``(source, entry)``."""
    source = emitter.source()
    exec(compile(source, f"<compiled {emitter.function.name}>", "exec"),
         emitter.namespace)
    return source, emitter.namespace["_entry"]


class CompiledFunction:
    """One IR function compiled to one specialized Python function."""

    def __init__(self, function: Function):
        self.function = function
        #: the generated text, and the traversal entry it defines
        #: (signature in the module docstring)
        self.source, self.entry = load(FunctionEmitter(function))
        self._interpreted = interpreted(function)

    def traverse(self, state, externs, tracer, ids, packet, initial_env):
        """``entry`` for a caller whose tracer may be deep: one event per
        executed instruction is what only the interpreter provides, so
        under a deep trace that engine runs instead."""
        if tracer is not None and tracer.deep:
            return self._interpreted(
                state, externs, tracer, ids, packet, initial_env
            )
        return self.entry(state, externs, tracer, ids, packet, initial_env)

    def run(
        self,
        state,
        externs: Optional[ExternHost] = None,
        packet=None,
        initial_env: Optional[Dict[str, int]] = None,
        collect_ids: bool = False,
    ) -> ExecutionResult:
        """:meth:`traverse` as an :class:`ExecutionResult`, for the
        bare-engine callers."""
        executed: List[int] = []
        verdict, egress_port, env, steps = self.traverse(
            state, externs, getattr(state, "tracer", None),
            executed if collect_ids else None, packet, initial_env,
        )
        return ExecutionResult(
            verdict=verdict,
            egress_port=egress_port,
            instructions_executed=steps,
            executed_ids=executed,
            env=env,
        )


def compile_function(function: Function) -> CompiledFunction:
    """Compile (or fetch the kept compilation of) one IR function."""
    compiled: CompiledFunction = function.once(CompiledFunction)
    return compiled
