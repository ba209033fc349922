"""IR interpreter.

Gives the IR executable semantics.  Four consumers:

* the **baseline** (FastClick-style) runner executes the whole ``process``
  function per packet on the simulated middlebox server,
* the **Gallium server runtime** executes the projected non-offloaded
  partition, seeded with the shim-header values the switch forwarded,
* **differential tests** compare the unpartitioned interpretation against
  the deployed switch+server pipeline packet by packet (the paper's
  functional-equivalence goal),
* the **translation validator** runs this same instruction ladder over
  symbolic terms (a value domain, see :class:`IntDomain`) to prove that
  equivalence per compilation.

The interpreter also counts executed instructions, which the performance
model converts to CPU cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import and_
from typing import Dict, List, Optional, Tuple

from repro.lang.types import BOOL, IntType, bit_width_of
from repro.ir import instructions as irin
from repro.ir.externs import ExternHost
from repro.ir.function import Function
from repro.ir.lowering import StateMember
from repro.ir.values import Const, Operand, Reg
from repro.net.fields import HeaderField, header_field


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
        row = header_field(region, field_name, InterpreterError)
        header = self._header(row)
        if header is None:
            return 0  # absent header: reads yield 0 (guarded by protocol checks)
        value = getattr(header, row.attr)
        return int(value) if row.wrapper else value

    def set_field(self, region: str, field_name: str, value: int) -> None:
        row = header_field(region, field_name, InterpreterError, store=True)
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


def _apply_binop(op: irin.BinOpKind, a: int, b: int) -> int:
    kind = irin.BinOpKind
    if op is kind.ADD:
        return a + b
    if op is kind.SUB:
        return a - b
    if op is kind.MUL:
        return a * b
    if op is kind.DIV:
        return a // b if b else 0
    if op is kind.MOD:
        return a % b if b else 0
    if op is kind.AND:
        return a & b
    if op is kind.OR:
        return a | b
    if op is kind.XOR:
        return a ^ b
    if op is kind.SHL:
        return a << (b & 63)
    if op is kind.SHR:
        return a >> (b & 63)
    if op is kind.EQ:
        return int(a == b)
    if op is kind.NE:
        return int(a != b)
    if op is kind.LT:
        return int(a < b)
    if op is kind.LE:
        return int(a <= b)
    if op is kind.GT:
        return int(a > b)
    if op is kind.GE:
        return int(a >= b)
    if op is kind.LAND:
        return int(bool(a) and bool(b))
    if op is kind.LOR:
        return int(bool(a) or bool(b))
    raise InterpreterError(f"unknown binop {op}")


def _apply_unop(op: irin.UnOpKind, a: int) -> int:
    if op is irin.UnOpKind.NEG:
        return -a
    if op is irin.UnOpKind.NOT:
        return ~a
    return int(not a)  # LNOT


#: Mask of the default (non-IntType, non-bool) register wrap.
MASK64 = 0xFFFFFFFFFFFFFFFF


class IntDomain:
    """The values :class:`Interpreter` computes with, as the six operations
    its instruction ladder applies to them and the failures it raises.

    This is the concrete domain: a value is a Python int.  The translation
    validator runs the same ladder over symbolic terms by supplying its own
    (:class:`repro.verify.symbolic.engine.TermDomain`).
    """

    #: constant -> value; ``None``: a constant is its own value
    lift = None
    #: value -> the side a branch takes; ``None``: a value is its own truth
    decide = None
    binop = staticmethod(_apply_binop)
    unop = staticmethod(_apply_unop)
    #: ``wrap(value, mask)``: a result as a ``mask``-wide register holds it
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


class Interpreter:
    """Executes one IR function against a packet view and state store.

    This ladder is the only evaluator of the IR: ``domain`` says what a
    value is (ints here; the prover passes terms), and ``state`` /
    ``packet`` / ``externs`` need only speak that domain's values.
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
        env: Dict[str, int] = dict(initial_env or {})
        block = self.function.blocks[self.function.entry]
        steps = 0
        executed: List[int] = []
        verdict: Optional[str] = None
        egress: Optional[int] = None
        state = self.state
        tracer = getattr(state, "tracer", None)
        deep = tracer is not None and tracer.deep
        domain = self.domain
        lift, decide = domain.lift, domain.decide
        binop, unop = domain.binop, domain.unop
        wrap, boolify = domain.wrap, domain.boolify
        error, max_steps = domain.error, domain.max_steps

        def value_of(operand: Operand):
            if isinstance(operand, Const):
                return operand.value if lift is None else lift(operand.value)
            if isinstance(operand, Reg):
                try:
                    return env[operand.name]
                except KeyError:
                    raise error(
                        f"{self.function.name}: read of undefined register"
                        f" %{operand.name}"
                    ) from None
            raise error(f"bad operand {operand!r}")

        def wrapped(value, reg: Reg):
            """``value`` as register ``reg`` holds it."""
            type_ = reg.type
            if type_ is BOOL:
                return boolify(value)
            if isinstance(type_, IntType):
                return wrap(value, type_.mask)
            return wrap(value, MASK64)

        while True:
            next_block: Optional[str] = None
            for position, inst in enumerate(block.instructions):
                steps += 1
                if steps > max_steps:
                    raise domain.step_limit(
                        f"{self.function.name}: step limit exceeded"
                        " (runaway loop?)"
                    )
                if collect_ids:
                    executed.append(inst.id)
                if deep:
                    # ``position`` (not ``inst.id``) keeps deep traces
                    # byte-identical across re-compiles: instruction ids
                    # come from a process-global counter.
                    tracer.record("exec", function=self.function.name,
                                  block=block.name, position=position,
                                  op=type(inst).__name__)
                if isinstance(inst, irin.Assign):
                    env[inst.dst.name] = wrapped(value_of(inst.src), inst.dst)
                elif isinstance(inst, irin.BinOp):
                    result = binop(
                        inst.op, value_of(inst.lhs), value_of(inst.rhs)
                    )
                    env[inst.dst.name] = wrapped(result, inst.dst)
                elif isinstance(inst, irin.UnOp):
                    env[inst.dst.name] = wrapped(
                        unop(inst.op, value_of(inst.src)), inst.dst
                    )
                elif isinstance(inst, irin.Cast):
                    env[inst.dst.name] = wrapped(value_of(inst.src), inst.dst)
                elif isinstance(inst, irin.LoadPacketField):
                    if packet is None:
                        raise error("packet access without a packet")
                    env[inst.dst.name] = wrapped(
                        packet.get_field(inst.region, inst.field), inst.dst
                    )
                elif isinstance(inst, irin.StorePacketField):
                    if packet is None:
                        raise error("packet access without a packet")
                    value = value_of(inst.src)
                    packet.set_field(inst.region, inst.field, value)
                    if tracer is not None:
                        tracer.record("packet_write", region=inst.region,
                                      field=inst.field, value=value)
                elif isinstance(inst, irin.LoadState):
                    env[inst.dst.name] = wrapped(
                        state.load_scalar(inst.state), inst.dst
                    )
                elif isinstance(inst, irin.StoreState):
                    state.store_scalar(inst.state, value_of(inst.src))
                elif isinstance(inst, irin.RegisterRMW):
                    old = state.rmw_scalar(
                        inst.state,
                        inst.op,
                        value_of(inst.operand),
                        bit_width_of(inst.dst.type, 32),
                    )
                    env[inst.dst.name] = wrapped(old, inst.dst)
                elif isinstance(inst, irin.MapFind):
                    keys = tuple(value_of(k) for k in inst.keys)
                    found, value = state.map_find(inst.state, keys)
                    env[inst.found.name] = (
                        int(found) if lift is None else lift(int(found))
                    )
                    if inst.value is not None:
                        env[inst.value.name] = value
                elif isinstance(inst, irin.MapInsert):
                    keys = tuple(value_of(k) for k in inst.keys)
                    state.map_insert(inst.state, keys, value_of(inst.value))
                elif isinstance(inst, irin.MapErase):
                    keys = tuple(value_of(k) for k in inst.keys)
                    state.map_erase(inst.state, keys)
                elif isinstance(inst, irin.VectorGet):
                    env[inst.dst.name] = state.vector_get(
                        inst.state, value_of(inst.index)
                    )
                elif isinstance(inst, irin.VectorLen):
                    env[inst.dst.name] = state.vector_len(inst.state)
                elif isinstance(inst, irin.VectorPush):
                    state.vector_push(inst.state, value_of(inst.value))
                elif isinstance(inst, irin.ExternCall):
                    args = [value_of(a) for a in inst.args]
                    result = self.externs.call(inst.name, args, packet)
                    if inst.dst is not None:
                        env[inst.dst.name] = wrapped(result, inst.dst)
                elif isinstance(inst, irin.SendTo):
                    verdict = "send"
                    egress = value_of(inst.port)
                    if packet is not None:
                        packet.send(egress)
                    next_block = None
                    break
                elif isinstance(inst, irin.Send):
                    verdict = "send"
                    if packet is not None:
                        packet.send()
                    next_block = None
                    break
                elif isinstance(inst, irin.Drop):
                    verdict = "drop"
                    if packet is not None:
                        packet.drop()
                    next_block = None
                    break
                elif isinstance(inst, irin.Jump):
                    next_block = inst.target
                    break
                elif isinstance(inst, irin.Branch):
                    taken = value_of(inst.cond)
                    if decide is not None:
                        taken = decide(taken)
                    next_block = inst.if_true if taken else inst.if_false
                    break
                elif isinstance(inst, irin.Return):
                    next_block = None
                    break
                else:
                    raise error(
                        f"unhandled instruction {type(inst).__name__}"
                    )
            if next_block is None:
                return ExecutionResult(
                    verdict=verdict,
                    egress_port=egress,
                    instructions_executed=steps,
                    executed_ids=executed,
                    env=env,
                )
            block = self.function.blocks[next_block]


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
