"""IR interpreter.

Gives the IR executable semantics.  Four consumers:

* the **baseline** (FastClick-style) runner executes the whole ``process``
  function per packet on the simulated middlebox server,
* the **Gallium server runtime** executes the projected non-offloaded
  partition, seeded with the shim-header values the switch forwarded,
* **differential tests** compare the unpartitioned interpretation against
  the deployed switch+server pipeline packet by packet (the paper's
  functional-equivalence goal),
* the **translation validator** runs these same decoded instructions
  over symbolic terms (a value domain, see :class:`IntDomain`) to prove
  that equivalence per compilation.

An instruction is decoded once per value domain, on its first run, into
an *op*: its operands resolved to register names or constants, the
destination's wrap (mask, ``bool`` or 64 bits) worked out, its operator
looked up in the domain's table (:data:`BINOPS` / :data:`UNOPS` for
ints).  The op is kept on the instruction (an instruction never changes
after ``__init__``), so a run is one call per instruction executed and no
dispatch on its class.

The interpreter also counts executed instructions, which the performance
model converts to CPU cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from operator import (
    add, and_, invert, itemgetter, mul, neg, or_, sub, xor,
)
from typing import Callable, Dict, List, Optional, Tuple

from repro.lang.types import BOOL, IntType, bit_width_of
from repro.ir import instructions as irin
from repro.ir.externs import ExternHost
from repro.ir.function import Function
from repro.ir.lowering import StateMember
from repro.ir.values import Const, Operand, Reg
from repro.net.fields import (
    LOAD_ROWS, STORE_ROWS, HeaderField, header_field,
)


class InterpreterError(Exception):
    """Raised on interpreter failures (bad IR, runaway loops...)."""


_MAX_STEPS = 1_000_000


# ---------------------------------------------------------------------------
# Packet adapter
# ---------------------------------------------------------------------------


class PacketView:
    """Adapter exposing (region, field) get/set over a RawPacket."""

    def __init__(self, raw):
        self.raw = raw
        self.verdict: Optional[str] = None
        self.egress_port: Optional[int] = None

    # -- header fields -----------------------------------------------------

    def get_field(self, region: str, field_name: str) -> int:
        try:
            row = LOAD_ROWS[region][field_name]
        except KeyError:
            row = header_field(region, field_name, InterpreterError)  # raises
        return self._read(row)

    def _read(self, row: HeaderField) -> int:
        """The value of ``row``'s field."""
        header = self._header(row)
        if header is None:
            return 0  # absent header: reads yield 0 (guarded by protocol checks)
        value = getattr(header, row.attr)
        return int(value) if row.wrapper else value

    def set_field(self, region: str, field_name: str, value: int) -> None:
        try:
            row = STORE_ROWS[region][field_name]
        except KeyError:
            row = header_field(region, field_name, InterpreterError,
                               store=True)  # raises
        header = self._header(row)
        if header is None:
            return  # writes to absent headers are dropped
        if row.masked:
            value &= row.mask
        if row.wrapper:
            value = row.wrapper(value)
        setattr(header, row.attr, value)

    def _header(self, row: HeaderField):
        """The record holding ``row``'s field, ``None`` when the packet
        has none (``meta`` lives on the packet itself)."""
        raw = self.raw
        if row.region == "meta":
            return raw
        header = getattr(raw, row.region)
        if header is None and row.alias:
            return getattr(raw, row.alias)
        return header

    def payload(self) -> bytes:
        return self.raw.payload

    # -- verdicts -----------------------------------------------------------

    def send(self, port: Optional[int] = None) -> None:
        self.verdict = "send"
        self.egress_port = port

    def drop(self) -> None:
        self.verdict = "drop"


# ---------------------------------------------------------------------------
# State store
# ---------------------------------------------------------------------------


class StateStore:
    """Runtime values of a middlebox's state members."""

    def __init__(self, members: Dict[str, StateMember]):
        self.members = members
        self.maps: Dict[str, Dict[tuple, int]] = {}
        self.vectors: Dict[str, List[int]] = {}
        self.scalars: Dict[str, int] = {}
        #: Scalar member -> value mask, resolved once from the declared
        #: member width.  Every scalar write path (store, RMW) masks with
        #: it, mirroring :class:`repro.switchsim.registers.Register`, which
        #: masks to ``width_bits`` on every write — the two sides must wrap
        #: identically or replication diverges.
        self._scalar_masks: Dict[str, int] = {}
        #: Map member -> its ``max_entries`` cap (``None``: unbounded),
        #: resolved once like the masks.
        self._map_caps: Dict[str, Optional[int]] = {}
        for name, member in members.items():
            if member.kind == "map":
                self.maps[name] = {}
                self._map_caps[name] = member.max_entries
            elif member.kind == "vector":
                self.vectors[name] = []
            else:
                self.scalars[name] = 0
                width = bit_width_of(member.member_type, 0)
                if width > 0:
                    self._scalar_masks[name] = (1 << width) - 1
        #: Mutation journal: (op, member, keys, value) tuples appended by
        #: every write; the Gallium runtime drains it to replicate updates to
        #: the switch (paper §4.3.3).
        self.journal: List[tuple] = []
        #: Optional read log (name, keys, found, value); enabled by the
        #: table-cache runtime to learn which entries to refill (§7).
        self.track_reads = False
        self.read_log: List[tuple] = []
        #: Optional :class:`repro.telemetry.PacketTracer`; ``None`` keeps
        #: every state operation on the zero-overhead fast path.
        self.tracer = None

    # -- maps ----------------------------------------------------------------

    def map_find(self, name: str, keys: tuple) -> Tuple[bool, int]:
        table = self.maps[name]
        found = keys in table
        value = table[keys] if found else 0
        if self.track_reads:
            self.read_log.append((name, keys, found, value))
        if self.tracer is not None:
            self.tracer.record("table_lookup", name=name, key=keys,
                               hit=found, value=value)
        return found, value

    def map_insert(self, name: str, keys: tuple, value: int) -> None:
        table = self.maps[name]
        cap = self._map_caps[name]
        if cap is not None and keys not in table and len(table) >= cap:
            # Full table: drop the update (same observable behaviour as a
            # switch table rejecting an insert); record it for diagnostics.
            self.journal.append(("insert_failed", name, keys, value))
            if self.tracer is not None:
                self.tracer.record("table_full", name=name, key=keys,
                                   value=value)
            return
        table[keys] = value
        self.journal.append(("insert", name, keys, value))
        if self.tracer is not None:
            self.tracer.record("map_insert", name=name, key=keys,
                               value=value)

    def map_erase(self, name: str, keys: tuple) -> None:
        self.maps[name].pop(keys, None)
        self.journal.append(("erase", name, keys, None))
        if self.tracer is not None:
            self.tracer.record("map_erase", name=name, key=keys)

    # -- vectors --------------------------------------------------------------

    def vector_get(self, name: str, index: int) -> int:
        vector = self.vectors[name]
        value = vector[index] if 0 <= index < len(vector) else 0
        if self.tracer is not None:
            self.tracer.record("vector_get", name=name, index=index,
                               value=value)
        return value

    def vector_len(self, name: str) -> int:
        length = len(self.vectors[name])
        if self.tracer is not None:
            self.tracer.record("vector_len", name=name, value=length)
        return length

    def vector_push(self, name: str, value: int) -> None:
        self.vectors[name].append(value)
        self.journal.append(("push", name, (len(self.vectors[name]) - 1,), value))
        if self.tracer is not None:
            self.tracer.record("vector_push", name=name,
                               index=len(self.vectors[name]) - 1, value=value)

    # -- scalars ---------------------------------------------------------------

    def load_scalar(self, name: str) -> int:
        value = self.scalars[name]
        if self.tracer is not None:
            self.tracer.record("register_read", name=name, value=value)
        return value

    def _scalar_mask(self, name: str) -> int:
        """The member's write mask; missing/zero widths are a hard error —
        never a silent 32-bit fallback."""
        mask = self._scalar_masks.get(name)
        if mask is None:
            raise InterpreterError(
                f"scalar {name!r} has no resolvable width;"
                " refusing an unmasked write"
            )
        return mask

    def store_scalar(self, name: str, value: int) -> None:
        # Mask to the member width, like Register.control_write: a stored
        # value >= 2**width must wrap the same way on the server as it
        # does in the replicated switch register.
        value &= self._scalar_mask(name)
        self.scalars[name] = value
        self.journal.append(("store", name, (), value))
        if self.tracer is not None:
            self.tracer.record("register_write", name=name, value=value)

    def rmw_scalar(self, name: str, op, operand: int,
                   width: Optional[int] = None) -> int:
        mask = self._scalar_mask(name)
        if width:
            member_width = mask.bit_length()
            if width != member_width:
                raise InterpreterError(
                    f"register {name!r}: RMW width {width} does not match"
                    f" the member width {member_width}"
                )
        old = self.scalars[name]
        new = _apply_binop(op, old, operand)
        self.scalars[name] = new & mask
        self.journal.append(("store", name, (), self.scalars[name]))
        if self.tracer is not None:
            self.tracer.record("register_rmw", name=name,
                               op=getattr(op, "name", str(op)).lower(),
                               old=old, new=self.scalars[name])
        return old

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "maps": {k: dict(v) for k, v in self.maps.items()},
            "vectors": {k: list(v) for k, v in self.vectors.items()},
            "scalars": dict(self.scalars),
        }

    def restore(self, snapshot: dict) -> None:
        """Roll back to a :meth:`snapshot` (used by the fault harness to
        undo a punted packet's server-side effects when its state updates
        could not be committed to the switch)."""
        self.maps = {k: dict(v) for k, v in snapshot["maps"].items()}
        self.vectors = {k: list(v) for k, v in snapshot["vectors"].items()}
        self.scalars = dict(snapshot["scalars"])

    def drain_journal(self) -> List[tuple]:
        entries = self.journal
        self.journal = []
        return entries


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class ExecutionResult:
    verdict: Optional[str]
    egress_port: Optional[int]
    instructions_executed: int
    executed_ids: List[int] = field(default_factory=list)
    env: Dict[str, int] = field(default_factory=dict)

    @property
    def sent(self) -> bool:
        return self.verdict == "send"

    @property
    def dropped(self) -> bool:
        return self.verdict == "drop"


def _div(a: int, b: int) -> int:
    return a // b if b else 0


def _mod(a: int, b: int) -> int:
    return a % b if b else 0


#: What each binary operator does to two ints — the one definition.
BINOPS: Dict[irin.BinOpKind, Callable[[int, int], int]] = {
    irin.BinOpKind.ADD: add,
    irin.BinOpKind.SUB: sub,
    irin.BinOpKind.MUL: mul,
    irin.BinOpKind.DIV: _div,
    irin.BinOpKind.MOD: _mod,
    irin.BinOpKind.AND: and_,
    irin.BinOpKind.OR: or_,
    irin.BinOpKind.XOR: xor,
    irin.BinOpKind.SHL: lambda a, b: a << (b & 63),
    irin.BinOpKind.SHR: lambda a, b: a >> (b & 63),
    irin.BinOpKind.EQ: lambda a, b: 1 if a == b else 0,
    irin.BinOpKind.NE: lambda a, b: 1 if a != b else 0,
    irin.BinOpKind.LT: lambda a, b: 1 if a < b else 0,
    irin.BinOpKind.LE: lambda a, b: 1 if a <= b else 0,
    irin.BinOpKind.GT: lambda a, b: 1 if a > b else 0,
    irin.BinOpKind.GE: lambda a, b: 1 if a >= b else 0,
    irin.BinOpKind.LAND: lambda a, b: 1 if a and b else 0,
    irin.BinOpKind.LOR: lambda a, b: 1 if a or b else 0,
}

#: What each unary operator does to an int.
UNOPS: Dict[irin.UnOpKind, Callable[[int], int]] = {
    irin.UnOpKind.NEG: neg,
    irin.UnOpKind.NOT: invert,
    irin.UnOpKind.LNOT: lambda a: 0 if a else 1,
}


def _apply_binop(op: irin.BinOpKind, a: int, b: int) -> int:
    try:
        apply = BINOPS[op]
    except KeyError:
        raise InterpreterError(f"unknown binop {op}") from None
    return apply(a, b)


def _apply_unop(op: irin.UnOpKind, a: int) -> int:
    return UNOPS[op](a)


#: Mask of the default (non-IntType, non-bool) register wrap.
MASK64 = 0xFFFFFFFFFFFFFFFF


class IntDomain:
    """The values :class:`Interpreter` computes with, as the operations its
    decoded instructions apply to them and the failures they raise.

    This is the concrete domain: a value is a Python int.  The translation
    validator runs the same decoded instructions over symbolic terms by
    supplying its own (:class:`repro.verify.symbolic.engine.TermDomain`).
    A decoder reads ``lift``, ``binops``, ``unops``, ``wrap`` and
    ``boolify`` from the domain's class, once per instruction; a branch
    reads ``decide`` from the instance it runs under.
    """

    #: constant -> value; ``None``: a constant is its own value
    lift = None
    #: value -> the side a branch takes; ``None``: a value is its own truth
    decide = None
    #: operator -> what it does to values
    binops = BINOPS
    unops = UNOPS
    #: ``wrap(mask, value)``: a result as a ``mask``-wide register holds
    #: it (the mask first, so a decoder binds it once)
    wrap = staticmethod(and_)

    @staticmethod
    def boolify(value: int) -> int:
        """A result as a ``bool`` register holds it."""
        return 1 if value else 0

    #: raised on bad IR (undefined register, packet access without one...)
    error = InterpreterError
    #: raised when one run exceeds ``max_steps`` instructions
    step_limit = InterpreterError
    max_steps = _MAX_STEPS


# ---------------------------------------------------------------------------
# Decoding: each instruction becomes one op, once per value domain
# ---------------------------------------------------------------------------

#: What a terminator's op returns when the run ends (a jump returns the
#: name of the block to go on in; any other op returns ``None``).
_END = object()


class _Run:
    """What a run's ops share besides its registers."""

    __slots__ = ("packet", "state", "externs", "tracer", "decide",
                 "verdict", "egress")

    def __init__(self, packet, state, externs, tracer, decide):
        self.packet = packet
        self.state = state
        self.externs = externs
        self.tracer = tracer
        self.decide = decide
        self.verdict: Optional[str] = None
        self.egress = None


#: ``op(env, run)``: one decoded instruction; ``env`` is the register file
Op = Callable[[Dict[str, object], _Run], object]

#: instruction class -> ``decoder(inst, domain class) -> op``
_DECODERS: Dict[type, Callable[..., Op]] = {}


def _decodes(*classes):
    def register(decoder):
        for cls in classes:
            _DECODERS[cls] = decoder
        return decoder
    return register


def _decode(inst: irin.Instruction, domain) -> Op:
    """``inst``'s op over ``domain``, decoded on its first run there and
    kept on the instruction with the domain it is for.  An instruction
    never changes after ``__init__``, so nothing invalidates it; an op
    holds names and constants, never the instruction, so keeping it makes
    no cycle.  One domain is kept: a run in another decodes again."""
    decoder = _DECODERS.get(type(inst), _unhandled)
    op = inst._decoded = decoder(inst, domain)
    inst._decoded_for = domain
    return op


# -- what an op keeps -------------------------------------------------------
#
# A decoder returns a bound method of one small slotted record per
# instruction family: it keeps a few machine words per instruction where a
# closure would keep a cell per name.


class _Record:
    """A record of ``__slots__``, filled in slot order.  A method reads
    only the slots its decoder filled, so trailing ones may be left out."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            setattr(self, name, value)


class _Constant(_Record):
    """``read(env)`` of a constant operand."""

    __slots__ = ("value",)

    def __call__(self, env):
        return self.value


def _operand(operand: Operand, domain) -> Tuple[Optional[str], object]:
    """``(register name, None)``, or ``(None, the constant's value)``."""
    if isinstance(operand, Reg):
        return operand.name, None
    if isinstance(operand, Const):
        lift = domain.lift
        return None, operand.value if lift is None else lift(operand.value)
    raise domain.error(f"bad operand {operand!r}")


def _reader(operand: Operand, domain) -> Callable[[dict], object]:
    """``read(env)``: the operand's value."""
    name, value = _operand(operand, domain)
    return _Constant(value) if name is None else itemgetter(name)


def _holder(reg: Reg, domain) -> Callable[[object], object]:
    """``hold(value)``: ``value`` as register ``reg`` holds it."""
    type_ = reg.type
    if type_ is BOOL:
        return domain.boolify
    return _masking(
        domain, type_.mask if isinstance(type_, IntType) else MASK64
    )


@lru_cache(maxsize=None)
def _masking(domain, mask: int) -> Callable[[object], object]:
    """``domain.wrap`` bound to ``mask``: one per width, shared by every
    op that writes a register of it."""
    return partial(domain.wrap, mask)


class _Compute(_Record):
    """``dst = hold(apply(lhs, rhs))``.  Which operand is a register name
    and which a constant is the method the decoder picked."""

    __slots__ = ("dst", "lhs", "hold", "apply", "rhs")

    def constant(self, env, run):  # lhs: the value, folded and held
        env[self.dst] = self.lhs

    def copy(self, env, run):
        env[self.dst] = self.hold(env[self.lhs])

    def unary(self, env, run):
        env[self.dst] = self.hold(self.apply(env[self.lhs]))

    def binary(self, env, run):
        env[self.dst] = self.hold(self.apply(env[self.lhs], env[self.rhs]))

    def binary_constant_rhs(self, env, run):
        env[self.dst] = self.hold(self.apply(env[self.lhs], self.rhs))

    def binary_constant_lhs(self, env, run):
        env[self.dst] = self.hold(self.apply(self.lhs, env[self.rhs]))


@_decodes(irin.Assign, irin.Cast)
def _assign(inst, domain) -> Op:
    hold = _holder(inst.dst, domain)
    src, value = _operand(inst.src, domain)
    if src is None:
        return _Compute(inst.dst.name, hold(value)).constant
    return _Compute(inst.dst.name, src, hold).copy


@_decodes(irin.UnOp)
def _unop(inst, domain) -> Op:
    hold = _holder(inst.dst, domain)
    apply = domain.unops[inst.op]
    src, value = _operand(inst.src, domain)
    if src is None:
        return _Compute(inst.dst.name, hold(apply(value))).constant
    return _Compute(inst.dst.name, src, hold, apply).unary


@_decodes(irin.BinOp)
def _binop(inst, domain) -> Op:
    hold = _holder(inst.dst, domain)
    apply = domain.binops[inst.op]
    lhs, left = _operand(inst.lhs, domain)
    rhs, right = _operand(inst.rhs, domain)
    dst = inst.dst.name
    if lhs is not None and rhs is not None:
        return _Compute(dst, lhs, hold, apply, rhs).binary
    if lhs is not None:
        return _Compute(dst, lhs, hold, apply, right).binary_constant_rhs
    if rhs is not None:
        return _Compute(dst, left, hold, apply, rhs).binary_constant_lhs
    return _Compute(dst, hold(apply(left, right))).constant


class _Packet(_Record):
    """A header field: ``packet.region.field = read(env)``, or
    ``dst = hold(packet.region.field)``."""

    __slots__ = ("region", "field", "error", "read", "dst", "hold")

    def load(self, env, run):
        packet = run.packet
        if packet is None:
            raise self.error("packet access without a packet")
        env[self.dst] = self.hold(packet.get_field(self.region, self.field))

    def store(self, env, run):
        packet = run.packet
        if packet is None:
            raise self.error("packet access without a packet")
        value = self.read(env)
        packet.set_field(self.region, self.field, value)
        if run.tracer is not None:
            run.tracer.record("packet_write", region=self.region,
                              field=self.field, value=value)


@_decodes(irin.LoadPacketField)
def _load_packet_field(inst, domain) -> Op:
    return _Packet(inst.region, inst.field, domain.error, None,
                   inst.dst.name, _holder(inst.dst, domain)).load


@_decodes(irin.StorePacketField)
def _store_packet_field(inst, domain) -> Op:
    return _Packet(inst.region, inst.field, domain.error,
                   _reader(inst.src, domain)).store


class _Member(_Record):
    """A scalar or vector member ``name`` of ``run.state``: the value
    ``read(env)`` in, the result into ``dst``."""

    __slots__ = ("name", "read", "dst", "hold", "kind", "width")

    def load_scalar(self, env, run):
        env[self.dst] = self.hold(run.state.load_scalar(self.name))

    def store_scalar(self, env, run):
        run.state.store_scalar(self.name, self.read(env))

    def rmw_scalar(self, env, run):
        env[self.dst] = self.hold(run.state.rmw_scalar(
            self.name, self.kind, self.read(env), self.width
        ))

    def vector_get(self, env, run):
        env[self.dst] = run.state.vector_get(self.name, self.read(env))

    def vector_len(self, env, run):
        env[self.dst] = run.state.vector_len(self.name)

    def vector_push(self, env, run):
        run.state.vector_push(self.name, self.read(env))


@_decodes(irin.LoadState)
def _load_state(inst, domain) -> Op:
    return _Member(inst.state, None, inst.dst.name,
                   _holder(inst.dst, domain)).load_scalar


@_decodes(irin.StoreState)
def _store_state(inst, domain) -> Op:
    return _Member(inst.state, _reader(inst.src, domain)).store_scalar


@_decodes(irin.RegisterRMW)
def _register_rmw(inst, domain) -> Op:
    return _Member(inst.state, _reader(inst.operand, domain), inst.dst.name,
                   _holder(inst.dst, domain), inst.op,
                   bit_width_of(inst.dst.type, 32)).rmw_scalar


@_decodes(irin.VectorGet)
def _vector_get(inst, domain) -> Op:
    return _Member(inst.state, _reader(inst.index, domain),
                   inst.dst.name).vector_get


@_decodes(irin.VectorLen)
def _vector_len(inst, domain) -> Op:
    return _Member(inst.state, None, inst.dst.name).vector_len


@_decodes(irin.VectorPush)
def _vector_push(inst, domain) -> Op:
    return _Member(inst.state, _reader(inst.value, domain)).vector_push


class _Map(_Record):
    """A map member ``name`` of ``run.state`` under the key ``keys`` reads:
    the value ``read(env)`` in; a lookup's value into ``dst`` and its hit
    into ``found`` (``founds`` is the hit register's value, indexed by the
    store's answer)."""

    __slots__ = ("name", "keys", "read", "dst", "found", "founds")

    def _key(self, env) -> tuple:
        return tuple([read(env) for read in self.keys])

    def find(self, env, run):
        found, value = run.state.map_find(self.name, self._key(env))
        env[self.found] = self.founds[found]
        if self.dst is not None:
            env[self.dst] = value

    def insert(self, env, run):
        run.state.map_insert(self.name, self._key(env), self.read(env))

    def erase(self, env, run):
        run.state.map_erase(self.name, self._key(env))


def _keys(inst, domain) -> tuple:
    return tuple(_reader(key, domain) for key in inst.keys)


@_decodes(irin.MapFind)
def _map_find(inst, domain) -> Op:
    lift = domain.lift
    return _Map(
        inst.state, _keys(inst, domain), None,
        None if inst.value is None else inst.value.name, inst.found.name,
        (0, 1) if lift is None else (lift(0), lift(1)),
    ).find


@_decodes(irin.MapInsert)
def _map_insert(inst, domain) -> Op:
    return _Map(inst.state, _keys(inst, domain),
                _reader(inst.value, domain)).insert


@_decodes(irin.MapErase)
def _map_erase(inst, domain) -> Op:
    return _Map(inst.state, _keys(inst, domain)).erase


class _Extern(_Record):
    """``dst = hold(externs.name(args...))``."""

    __slots__ = ("name", "args", "dst", "hold")

    def call(self, env, run):
        result = run.externs.call(
            self.name, [read(env) for read in self.args], run.packet
        )
        if self.dst is not None:
            env[self.dst] = self.hold(result)


@_decodes(irin.ExternCall)
def _extern_call(inst, domain) -> Op:
    args = tuple(_reader(arg, domain) for arg in inst.args)
    if inst.dst is None:
        return _Extern(inst.name, args, None).call
    return _Extern(inst.name, args, inst.dst.name,
                   _holder(inst.dst, domain)).call


class _Control(_Record):
    """Where control goes: ``if_true`` (a jump's target), or ``if_false``
    when ``read(env)`` decides against; a send's port is ``read(env)``."""

    __slots__ = ("read", "if_true", "if_false")

    def jump(self, env, run):
        return self.if_true

    def branch(self, env, run):
        taken = self.read(env)
        if run.decide is not None:
            taken = run.decide(taken)
        return self.if_true if taken else self.if_false

    def send_to(self, env, run):
        run.verdict = "send"
        run.egress = egress = self.read(env)
        if run.packet is not None:
            run.packet.send(egress)
        return _END


@_decodes(irin.Jump)
def _jump(inst, domain) -> Op:
    return _Control(None, inst.target).jump


@_decodes(irin.Branch)
def _branch(inst, domain) -> Op:
    return _Control(_reader(inst.cond, domain), inst.if_true,
                    inst.if_false).branch


@_decodes(irin.SendTo)
def _send_to(inst, domain) -> Op:
    return _Control(_reader(inst.port, domain)).send_to


def _send(env, run):
    run.verdict = "send"
    if run.packet is not None:
        run.packet.send()
    return _END


def _drop(env, run):
    run.verdict = "drop"
    if run.packet is not None:
        run.packet.drop()
    return _END


def _return(env, run):
    return _END


_decodes(irin.Send)(lambda inst, domain: _send)
_decodes(irin.Drop)(lambda inst, domain: _drop)
_decodes(irin.Return)(lambda inst, domain: _return)


def _unhandled(inst, domain) -> Op:
    error = domain.error
    message = f"unhandled instruction {type(inst).__name__}"

    def op(env, run):
        raise error(message)
    return op


def _undefined(error: KeyError, inst: irin.Instruction, env: dict):
    """The register whose read raised ``error``, or ``None`` when the key
    is no register ``inst`` reads.  An op reads its registers before it
    does anything else, so a register it reads that ``env`` lacks is the
    one the ``KeyError`` is about."""
    name = error.args[0] if len(error.args) == 1 else None
    if (
        isinstance(name, str) and name not in env
        and any(reg.name == name for reg in inst.uses())
    ):
        return name
    return None


class Interpreter:
    """Executes one IR function against a packet view and state store.

    This is the only evaluator of the IR: ``domain`` says what a value is
    (ints here; the prover passes terms), and ``state`` / ``packet`` /
    ``externs`` need only speak that domain's values.  Each instruction
    runs as the op :func:`_decode` made of it for the domain's class.
    """

    def __init__(
        self,
        function: Function,
        state: StateStore,
        externs: Optional[ExternHost] = None,
        domain=IntDomain,
    ):
        self.function = function
        self.state = state
        self.externs = externs or ExternHost()
        self.domain = domain

    def run(
        self,
        packet: Optional[PacketView] = None,
        initial_env: Optional[Dict[str, int]] = None,
        collect_ids: bool = False,
    ) -> ExecutionResult:
        function, domain, state = self.function, self.domain, self.state
        #: the class the ops are decoded for (the prover's domain is an
        #: instance: its ``decide`` is its world's)
        kind = domain if isinstance(domain, type) else type(domain)
        tracer = getattr(state, "tracer", None)
        deep = tracer is not None and tracer.deep
        watched = collect_ids or deep
        run = _Run(packet, state, self.externs, tracer, domain.decide)
        env: Dict[str, int] = dict(initial_env or {})
        executed: List[int] = []
        max_steps = domain.max_steps
        blocks = function.blocks
        block = blocks[function.entry]
        steps = 0
        while True:
            entered = steps
            for inst in block.instructions:
                steps += 1
                if steps > max_steps:
                    raise domain.step_limit(
                        f"{function.name}: step limit exceeded"
                        " (runaway loop?)"
                    )
                if watched:
                    if collect_ids:
                        executed.append(inst.id)
                    if deep:
                        # ``position`` (not ``inst.id``) keeps deep traces
                        # byte-identical across re-compiles: instruction
                        # ids come from a process-global counter.
                        tracer.record("exec", function=function.name,
                                      block=block.name,
                                      position=steps - entered - 1,
                                      op=type(inst).__name__)
                try:
                    decoded_for = inst._decoded_for
                except AttributeError:  # never run yet
                    decoded_for = None
                op = inst._decoded if decoded_for is kind else _decode(
                    inst, kind)
                try:
                    target = op(env, run)
                except KeyError as exc:
                    name = _undefined(exc, inst, env)
                    if name is None:
                        raise
                    raise domain.error(
                        f"{function.name}: read of undefined register"
                        f" %{name}"
                    ) from None
                if target is not None:
                    break
            else:
                break  # a block without a terminator ends the run too
            if target is _END:
                break
            block = blocks[target]
        return ExecutionResult(
            verdict=run.verdict,
            egress_port=run.egress,
            instructions_executed=steps,
            executed_ids=executed,
            env=env,
        )


def interpreted(function: Function):
    """``function`` on this engine as a *traversal entry* — the calling
    shape of a compiled function's ``entry`` (:mod:`repro.ir.compile`):
    ``entry(state, externs, tracer, ids, packet, initial_env) ->
    (verdict, egress_port, env, steps)``.  What a runtime holds when it
    was not asked for the fast path, and what a deep trace runs on (the
    state store is passed per call: crash recovery swaps it; the
    interpreter finds the tracer on it)."""
    def entry(state, externs, tracer, ids, packet, initial_env):
        result = Interpreter(function, state, externs).run(
            packet, initial_env, collect_ids=ids is not None
        )
        if ids is not None:
            ids.extend(result.executed_ids)
        return (result.verdict, result.egress_port, result.env,
                result.instructions_executed)
    return entry
