"""Compile IR functions to specialized Python code (the fast path).

The :class:`~repro.ir.interp.Interpreter` re-dispatches every instruction
on every packet: an ``isinstance`` ladder, operand boxing, field-map
lookups, and width resolution all run per instruction executed.  This
module removes that overhead the way the NetKAT compiler removes
interpretation overhead from its pipeline, and the way Druzhba generates
a pipeline simulator specialized to one program: each function is
compiled **once** into one specialized Python function in which

* operand reads are inlined ``env['name']`` subscripts or literal ints,
* result masks (``& 0xff`` ...) are resolved from the register types at
  compile time,
* header field paths (``packet.raw.ip.saddr`` ...) are resolved from the
  field map at compile time, including the TCP/UDP port aliasing and the
  absent-header semantics, and a header is bound to a local once per
  straight-line path instead of once per field,
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

from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lang.types import BOOL, IntType, bit_width_of
from repro.ir import instructions as irin
from repro.ir.externs import ExternHost
from repro.ir.function import Function
from repro.ir.interp import (
    ExecutionResult,
    InterpreterError,
    _MAX_STEPS,
    interpreted,
)
from repro.ir.values import Const, Reg
from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.fields import HeaderField, header_field

#: ``if`` arms nested deeper than this go through the dispatch instead
#: (the tokenizer refuses more than 100 indentation levels).
_MAX_NESTING = 60


def _no_packet():
    raise InterpreterError("packet access without a packet")


#: Binary operators as inline source templates, mirroring ``_apply_binop``
#: exactly (division by zero yields 0, shifts mask the amount to 6 bits,
#: comparisons and logicals produce 0/1).
_BINOP_SRC = {
    irin.BinOpKind.ADD: "({a} + {b})",
    irin.BinOpKind.SUB: "({a} - {b})",
    irin.BinOpKind.MUL: "({a} * {b})",
    irin.BinOpKind.DIV: "(({a} // {b}) if {b} else 0)",
    irin.BinOpKind.MOD: "(({a} % {b}) if {b} else 0)",
    irin.BinOpKind.AND: "({a} & {b})",
    irin.BinOpKind.OR: "({a} | {b})",
    irin.BinOpKind.XOR: "({a} ^ {b})",
    irin.BinOpKind.SHL: "({a} << ({b} & 63))",
    irin.BinOpKind.SHR: "({a} >> ({b} & 63))",
    irin.BinOpKind.EQ: "(1 if {a} == {b} else 0)",
    irin.BinOpKind.NE: "(1 if {a} != {b} else 0)",
    irin.BinOpKind.LT: "(1 if {a} < {b} else 0)",
    irin.BinOpKind.LE: "(1 if {a} <= {b} else 0)",
    irin.BinOpKind.GT: "(1 if {a} > {b} else 0)",
    irin.BinOpKind.GE: "(1 if {a} >= {b} else 0)",
    irin.BinOpKind.LAND: "(1 if ({a} and {b}) else 0)",
    irin.BinOpKind.LOR: "(1 if ({a} or {b}) else 0)",
}

#: What a path has established so far: ``"packet"`` once the no-packet
#: guard ran, plus the header locals (``_ip`` ...) already bound on it.
Bound = FrozenSet[str]
_NOTHING: Bound = frozenset()
_VERDICTS = (irin.Send, irin.SendTo, irin.Drop, irin.Return)


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
    #: locals the entry initializes besides ``env`` / verdict / steps
    prologue: Tuple[str, ...] = ()

    def __init__(self, function: Function):
        self.function = function
        self.lines: List[str] = []
        self.depth = 1
        self.reg_reads: Set[str] = set()
        #: names the generated code reads from its globals
        self.namespace: Dict[str, object] = {
            "InterpreterError": InterpreterError,
            "Ipv4Address": Ipv4Address,
            "MacAddress": MacAddress,
            "ExternHost": ExternHost,
            "_K": irin.BinOpKind,
            "_no_packet": _no_packet,
            "_limit": self._limit,
            "_undefined": self._undefined,
        }
        self._preds: Dict[str, int] = {name: 0 for name in function.blocks}
        for block in function.blocks.values():
            for successor in block.successors():
                if successor in self._preds:
                    self._preds[successor] += 1
        #: dispatch index per block that is entered through ``_i``
        self._heads: Dict[str, int] = {function.entry: 0}

    # -- what the generated code calls on the slow exits ----------------------

    def _limit(self) -> None:
        raise InterpreterError(
            f"{self.function.name}: step limit exceeded (runaway loop?)"
        )

    def _undefined(self, exc: KeyError) -> None:
        """Re-raise a failed ``env[...]`` read the interpreter's way; any
        other ``KeyError`` is the caller's to re-raise as it is."""
        if exc.args and exc.args[0] in self.reg_reads:
            raise InterpreterError(
                f"{self.function.name}: read of undefined register"
                f" %{exc.args[0]}"
            ) from None

    # -- expression fragments ------------------------------------------------

    def operand(self, operand) -> str:
        if isinstance(operand, Const):
            return repr(int(operand.value))
        if isinstance(operand, Reg):
            self.reg_reads.add(operand.name)
            return f"env[{operand.name!r}]"
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

    def assign(self, dst: Reg, expr: str) -> None:
        self.emit(f"env[{dst.name!r}] = {self.wrap(expr, dst)}")

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
        self.emit(f"env[{inst.dst.name!r}] ="
                  f" state.vector_get({inst.state!r},"
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
        when absent), bound on first use along the path."""
        # An aliased field has its own local: it falls back to the other
        # L4 header where the rest of its region reads 0 / drops writes.
        local = "_l4p" if row.alias else f"_{row.region}"
        if local not in bound:
            bound = bound | {local}
            self.emit(f"{local} = {self.raw}.{row.region}")
            if row.alias:
                self.emit(f"if {local} is None:")
                self.emit(f"    {local} = {self.raw}.{row.alias}")
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
            access = f"int({access})"
        self.assign(inst.dst, f"(0 if {local} is None else {access})")
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
            self.assign(inst.dst, self.operand(inst.src))
        elif isinstance(inst, irin.BinOp):
            src = _BINOP_SRC.get(inst.op)
            if src is None:
                raise InterpreterError(f"unknown binop {inst.op}")
            self.assign(inst.dst, src.format(a=self.operand(inst.lhs),
                                             b=self.operand(inst.rhs)))
        elif isinstance(inst, irin.UnOp):
            src = self.operand(inst.src)
            if inst.op is irin.UnOpKind.NEG:
                expr = f"(-{src})"
            elif inst.op is irin.UnOpKind.NOT:
                expr = f"(~{src})"
            else:  # LNOT
                expr = f"(0 if {src} else 1)"
            self.assign(inst.dst, expr)
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
            self.emit(f"env[{inst.found.name!r}] = int(_f)")
            if inst.value is not None:
                # Deliberately unwrapped, like the interpreter.
                self.emit(f"env[{inst.value.name!r}] = _v")
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
            self.emit(f"env[{inst.dst.name!r}] ="
                      f" {self.state_other('vector_len', inst.state)}")
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
            nesting: int) -> None:
        self.depth += 1
        if self.inlinable(target, nesting):
            self.path(target, steps, list(ids), bound, nesting)
        else:
            self.leave(steps, ids, target)
        self.depth -= 1

    def path(self, name: str, steps: int, ids: List[int], bound: Bound,
             nesting: int) -> None:
        """Emit block ``name`` and everything only it reaches, counting
        ``steps`` / ``ids`` the way the interpreter does: every executed
        instruction, the jumps and branches included."""
        while True:
            last = None
            for last in self.function.blocks[name].instructions:
                steps += 1
                ids.append(last.id)
                if isinstance(last, irin.Terminator):
                    break
                bound = self.instruction(last, bound)
            if isinstance(last, irin.Jump):
                if self.inlinable(last.target, nesting):
                    name = last.target
                    continue
                self.leave(steps, ids, last.target)
            elif isinstance(last, irin.Branch):
                self.emit(f"if {self.operand(last.cond)}:")
                self.arm(last.if_true, steps, ids, bound, nesting + 1)
                self.emit("else:")
                self.arm(last.if_false, steps, ids, bound, nesting + 1)
            else:
                if isinstance(last, _VERDICTS):
                    self.verdict(last)
                elif isinstance(last, irin.Terminator):
                    raise InterpreterError(
                        f"unhandled instruction {type(last).__name__}"
                    )
                self.leave(steps, ids, None)
            return

    def source(self) -> str:
        """The whole function: prologue, driver loop, one ``if _i ==``
        arm per dispatch head (discovered while emitting), epilogue."""
        head = [
            "def _entry(state, externs, tracer, ids, packet, initial_env):",
            "    env = dict(initial_env) if initial_env else {}",
            "    verdict = port = None",
            "    steps = _i = 0",
            *(f"    {line}" for line in self.prologue),
            "    try:",
            "        while True:",
            f"            if steps > {_MAX_STEPS}:",
            "                _limit()",
        ]
        self.depth = 3
        emitted = 0
        while emitted < len(self._heads):
            name = list(self._heads)[emitted]  # insertion order = index
            self.emit(f"{'if' if emitted == 0 else 'elif'} _i == {emitted}:")
            self.depth += 1
            self.path(name, 0, [], _NOTHING, 0)
            self.depth -= 1
            emitted += 1
        tail = [
            "    except KeyError as exc:",
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
