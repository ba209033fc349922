"""IR instruction set.

Each instruction computes its read/write sets over abstract
:class:`~repro.ir.values.Location`\\ s — the exact inputs to the dependency
extraction of paper §4.1 — and answers :meth:`Instruction.p4_supported`,
which encodes the expressiveness conditions of §4.2.1:

1. only operations P4 supports (integer add/sub, bitwise ops, shifts,
   comparisons — *no* multiply/divide/modulo),
2. packet accesses limited to header fields (never the payload),
3. Click API calls only when a P4 implementation exists (a ``HashMap`` find
   maps to a table lookup; a ``HashMap`` insert does not — table writes go
   through the control plane).

Verdict instructions (``Send``/``SendTo``/``Drop``) read every packet header
region: releasing a packet externally observes its final bytes, which makes
"header write before send" a genuine data dependency.  Ordering against
*state* mutations is handled separately by the dependency graph's
output-commit edges (see :mod:`repro.analysis.depgraph`).
"""

from __future__ import annotations

import enum
import itertools
from functools import cached_property
from typing import FrozenSet, Iterable, NamedTuple, Optional, Sequence, Tuple

from repro.lang.diagnostics import SourceLocation
from repro.lang.types import Type
from repro.ir.values import HEADER_REGIONS, Location, Operand, Reg

_instruction_ids = itertools.count()


class BinOpKind(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    AND = "&"
    OR = "|"
    XOR = "^"
    SHL = "<<"
    SHR = ">>"
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    LAND = "&&"
    LOR = "||"

    @property
    def is_comparison(self) -> bool:
        return self in (
            BinOpKind.EQ,
            BinOpKind.NE,
            BinOpKind.LT,
            BinOpKind.LE,
            BinOpKind.GT,
            BinOpKind.GE,
        )


#: The ALU operations a programmable switch supports (paper §2.2).
P4_SUPPORTED_BINOPS = frozenset(
    {
        BinOpKind.ADD,
        BinOpKind.SUB,
        BinOpKind.AND,
        BinOpKind.OR,
        BinOpKind.XOR,
        BinOpKind.SHL,
        BinOpKind.SHR,
        BinOpKind.EQ,
        BinOpKind.NE,
        BinOpKind.LT,
        BinOpKind.LE,
        BinOpKind.GT,
        BinOpKind.GE,
        BinOpKind.LAND,
        BinOpKind.LOR,
    }
)


class UnOpKind(enum.Enum):
    NEG = "-"
    NOT = "~"
    LNOT = "!"


#: The one empty location set every instruction that reads, writes or
#: touches nothing shares.
_NOTHING: FrozenSet[Location] = frozenset()

def _shared(locations: Iterable[Location]) -> FrozenSet[Location]:
    """``locations`` as a set; the empty set and a set of one are each one
    object however many instructions hold them."""
    found = frozenset(locations)
    if not found:
        return _NOTHING
    if len(found) == 1:
        (only,) = found
        return only.alone
    return found


#: The non-register locations read and written (``Instruction._memory``).
Memory = Tuple[Iterable[Location], Iterable[Location]]


class Facts(NamedTuple):
    """What the analyses ask of one instruction, derived once (§4.1)."""

    reads: FrozenSet[Location]
    writes: FrozenSet[Location]
    #: the global-state locations among them
    global_state: FrozenSet[Location]
    uses: Tuple[Reg, ...]
    defs: Tuple[Reg, ...]


class Instruction:
    """Base class for all IR instructions.

    An instruction does not change after ``__init__``: a pass that wants
    another operand builds another instruction and puts it in the block
    (``tests/ir/test_computed_once.py`` scans ``src/`` and ``tests/`` for an
    assignment that would break this).  So what the analyses ask of it —
    :class:`Facts` — is derived on the first question and kept, and so is
    what the interpreter makes of it: ``_decoded``, the op for the value
    domain ``_decoded_for`` it last ran in, and, once it has run in a
    second domain, ``_ops``, every domain's op (see
    :func:`repro.ir.interp._decode`).
    """

    #: Source statement this instruction was lowered from (-1 = synthetic).
    stmt_id: int
    location: SourceLocation

    def __init__(self, stmt_id: int = -1, location: Optional[SourceLocation] = None):
        self.id = next(_instruction_ids)
        self.stmt_id = stmt_id
        self.location = location or SourceLocation.unknown()

    # -- what a subclass states --------------------------------------------

    def operands(self) -> Sequence[Operand]:
        """Value operands consumed (for liveness/codegen)."""
        return ()

    def result(self) -> Optional[Reg]:
        """The register the value lands in, if any."""
        return None

    def _defined(self) -> Tuple[Reg, ...]:
        result = self.result()
        return () if result is None else (result,)

    def _memory(self) -> Memory:
        """The packet regions and element state read and written; the
        registers follow from :meth:`operands` and :meth:`_defined`."""
        return (), ()

    # -- dependency interface ----------------------------------------------

    @cached_property
    def facts(self) -> Facts:
        uses = tuple(op for op in self.operands() if isinstance(op, Reg))
        defs = self._defined()
        memory_reads, memory_writes = self._memory()
        return Facts(
            _shared([reg.location for reg in uses] + list(memory_reads)),
            _shared([reg.location for reg in defs] + list(memory_writes)),
            # A register is never global state.
            _shared(
                loc for loc in (*memory_reads, *memory_writes) if loc.is_global
            ),
            uses, defs,
        )

    def reads(self) -> FrozenSet[Location]:
        """Abstract locations this instruction may read."""
        return self.facts.reads

    def writes(self) -> FrozenSet[Location]:
        """Abstract locations this instruction may write."""
        return self.facts.writes

    def global_state_accesses(self) -> FrozenSet[Location]:
        """Global-state locations touched *as data* (for constraint 3).

        Only real table/register accesses count; synthetic ordering reads do
        not (there are none in the base IR, but subclasses could add them).
        """
        return self.facts.global_state

    def defs(self) -> Tuple[Reg, ...]:
        """Every register defined, the result first (:class:`MapFind`
        defines two)."""
        return self.facts.defs

    def uses(self) -> Tuple[Reg, ...]:
        """Every register among the operands."""
        return self.facts.uses

    # -- classification ------------------------------------------------------

    def p4_supported(self) -> bool:
        """Whether a switch pipeline can execute this instruction (§4.2.1)."""
        return False

    @property
    def is_terminator(self) -> bool:
        return False

    @property
    def is_verdict(self) -> bool:
        """True for Send/SendTo/Drop — packet-release points."""
        return False

    def __repr__(self) -> str:
        from repro.ir.printer import format_instruction

        return f"<{format_instruction(self)}>"


# ---------------------------------------------------------------------------
# Pure data flow
# ---------------------------------------------------------------------------


class Assign(Instruction):
    """``dst = src``."""

    def __init__(self, dst: Reg, src: Operand, **kw):
        super().__init__(**kw)
        self.dst = dst
        self.src = src

    def operands(self):
        return (self.src,)

    def result(self):
        return self.dst

    def p4_supported(self):
        return True


class BinOp(Instruction):
    """``dst = lhs <op> rhs``."""

    def __init__(self, dst: Reg, op: BinOpKind, lhs: Operand, rhs: Operand, **kw):
        super().__init__(**kw)
        self.dst = dst
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def operands(self):
        return (self.lhs, self.rhs)

    def result(self):
        return self.dst

    def p4_supported(self):
        return self.op in P4_SUPPORTED_BINOPS


class UnOp(Instruction):
    """``dst = <op> src``."""

    def __init__(self, dst: Reg, op: UnOpKind, src: Operand, **kw):
        super().__init__(**kw)
        self.dst = dst
        self.op = op
        self.src = src

    def operands(self):
        return (self.src,)

    def result(self):
        return self.dst

    def p4_supported(self):
        return True


class Cast(Instruction):
    """``dst = (to_type) src`` — truncate or zero-extend."""

    def __init__(self, dst: Reg, src: Operand, to_type: Type, **kw):
        super().__init__(**kw)
        self.dst = dst
        self.src = src
        self.to_type = to_type

    def operands(self):
        return (self.src,)

    def result(self):
        return self.dst

    def p4_supported(self):
        return True


# ---------------------------------------------------------------------------
# Packet access
# ---------------------------------------------------------------------------


class LoadPacketField(Instruction):
    """``dst = packet.<region>.<field>``."""

    def __init__(self, dst: Reg, region: str, field: str, **kw):
        super().__init__(**kw)
        self.dst = dst
        self.region = region
        self.field = field

    def _memory(self):
        return (Location.packet(self.region),), ()

    def result(self):
        return self.dst

    def p4_supported(self):
        if self.region in HEADER_REGIONS:
            return True
        # The ingress interface is standard metadata in P4 (the combined
        # program's first table matches on it, §4.3.1).
        return self.region == "meta" and self.field == "ingress_port"


class StorePacketField(Instruction):
    """``packet.<region>.<field> = src``."""

    def __init__(self, region: str, field: str, src: Operand, **kw):
        super().__init__(**kw)
        self.region = region
        self.field = field
        self.src = src

    def _memory(self):
        region = Location.packet(self.region)
        return (region,), (region,)

    def operands(self):
        return (self.src,)

    def p4_supported(self):
        return self.region in HEADER_REGIONS


# ---------------------------------------------------------------------------
# Global (element) state
# ---------------------------------------------------------------------------


class LoadState(Instruction):
    """``dst = <scalar element member>`` — a P4 register read when offloaded."""

    def __init__(self, dst: Reg, state: str, **kw):
        super().__init__(**kw)
        self.dst = dst
        self.state = state

    def _memory(self):
        return (Location.state(self.state),), ()

    def result(self):
        return self.dst

    def p4_supported(self):
        return True


class StoreState(Instruction):
    """``<scalar element member> = src``.

    A bare global store has no switch implementation (writes to replicated
    state are made by the server, §4.3.3); the lowering peephole combines a
    load/modify/store of the same scalar into :class:`RegisterRMW`, which the
    switch *can* execute as a stateful-ALU operation.
    """

    def __init__(self, state: str, src: Operand, **kw):
        super().__init__(**kw)
        self.state = state
        self.src = src

    def _memory(self):
        return (), (Location.state(self.state),)

    def operands(self):
        return (self.src,)

    def p4_supported(self):
        return False


class RegisterRMW(Instruction):
    """``dst = state; state = state <op> operand`` as one stateful-ALU op.

    Matches the P4 register pattern used for e.g. MazuNAT's port-allocation
    counter (§6.2: "the counter used for port allocation is also offloaded to
    the switch as a P4 register").
    """

    def __init__(self, dst: Reg, state: str, op: BinOpKind, operand: Operand, **kw):
        super().__init__(**kw)
        self.dst = dst
        self.state = state
        self.op = op
        self.operand = operand

    def _memory(self):
        state = Location.state(self.state)
        return (state,), (state,)

    def operands(self):
        return (self.operand,)

    def result(self):
        return self.dst

    def p4_supported(self):
        return self.op in P4_SUPPORTED_BINOPS


# ---------------------------------------------------------------------------
# HashMap / Vector (annotated Click APIs)
# ---------------------------------------------------------------------------


class MapFind(Instruction):
    """``found, value = <map>.find(keys...)`` — a P4 table lookup."""

    def __init__(
        self,
        found: Reg,
        value: Optional[Reg],
        state: str,
        keys: Sequence[Operand],
        **kw,
    ):
        super().__init__(**kw)
        self.found = found
        self.value = value
        self.state = state
        self.keys = tuple(keys)

    def _memory(self):
        return (Location.state(self.state),), ()

    def operands(self):
        return self.keys

    def result(self):
        return self.value

    def _defined(self):
        return (self.found,) if self.value is None else (self.value, self.found)

    def p4_supported(self):
        return True


class MapInsert(Instruction):
    """``<map>.insert(keys..., value)`` — server-side, replicated to switch."""

    def __init__(self, state: str, keys: Sequence[Operand], value: Operand, **kw):
        super().__init__(**kw)
        self.state = state
        self.keys = tuple(keys)
        self.value = value

    def _memory(self):
        return (), (Location.state(self.state),)

    def operands(self):
        return self.keys + (self.value,)

    def p4_supported(self):
        return False


class MapErase(Instruction):
    """``<map>.erase(keys...)`` — server-side, replicated to switch."""

    def __init__(self, state: str, keys: Sequence[Operand], **kw):
        super().__init__(**kw)
        self.state = state
        self.keys = tuple(keys)

    def _memory(self):
        return (), (Location.state(self.state),)

    def operands(self):
        return self.keys

    def p4_supported(self):
        return False


class VectorGet(Instruction):
    """``dst = <vector>[index]`` — an exact-match table keyed by index."""

    def __init__(self, dst: Reg, state: str, index: Operand, **kw):
        super().__init__(**kw)
        self.dst = dst
        self.state = state
        self.index = index

    def _memory(self):
        return (Location.state(self.state),), ()

    def operands(self):
        return (self.index,)

    def result(self):
        return self.dst

    def p4_supported(self):
        return True


class VectorLen(Instruction):
    """``dst = <vector>.size()`` — no switch implementation in the paper's
    target (sizes change under control-plane writes), so server-only."""

    def __init__(self, dst: Reg, state: str, **kw):
        super().__init__(**kw)
        self.dst = dst
        self.state = state

    def _memory(self):
        return (Location.state(self.state),), ()

    def result(self):
        return self.dst

    def p4_supported(self):
        return False


class VectorPush(Instruction):
    """``<vector>.push_back(value)`` — server-side."""

    def __init__(self, state: str, value: Operand, **kw):
        super().__init__(**kw)
        self.state = state
        self.value = value

    def _memory(self):
        return (), (Location.state(self.state),)

    def operands(self):
        return (self.value,)

    def p4_supported(self):
        return False


# ---------------------------------------------------------------------------
# Extern calls (payload inspection, config reads, ...)
# ---------------------------------------------------------------------------


class ExternCall(Instruction):
    """A call to a host function with declared effects; never offloadable."""

    def __init__(
        self,
        dst: Optional[Reg],
        name: str,
        args: Sequence[Operand],
        extra_reads: Sequence[Location] = (),
        extra_writes: Sequence[Location] = (),
        **kw,
    ):
        super().__init__(**kw)
        self.dst = dst
        self.name = name
        self.args = tuple(args)
        self.extra_reads = frozenset(extra_reads)
        self.extra_writes = frozenset(extra_writes)

    def _memory(self):
        return self.extra_reads, self.extra_writes

    def operands(self):
        return self.args

    def result(self):
        return self.dst

    def p4_supported(self):
        return False


# ---------------------------------------------------------------------------
# Verdicts and terminators
# ---------------------------------------------------------------------------


class Terminator(Instruction):
    @property
    def is_terminator(self):
        return True

    def successors(self) -> Tuple[str, ...]:
        return ()


class _VerdictBase(Terminator):
    """Common behaviour for packet-release instructions."""

    # Releasing the packet observes its final header bytes, so a verdict
    # reads every header region (plus payload for transmission).
    _MEMORY = (
        tuple(
            Location.packet(region)
            for region in HEADER_REGIONS + ("payload", "meta")
        ),
        (Location.packet("meta"),),
    )

    @property
    def is_verdict(self):
        return True

    def _memory(self):
        return self._MEMORY

    def p4_supported(self):
        return True


class Send(_VerdictBase):
    """Forward the packet on the default output."""


class SendTo(_VerdictBase):
    """Forward the packet on an explicit output port."""

    def __init__(self, port: Operand, **kw):
        super().__init__(**kw)
        self.port = port

    def operands(self):
        return (self.port,)


class Drop(_VerdictBase):
    """Discard the packet.

    A drop does not transmit bytes, but we keep the conservative header reads
    so that a "rewrite then drop" sequence cannot be reordered; the cost is
    negligible (drops guard on match results, not header writes, in all five
    middleboxes).
    """


class Jump(Terminator):
    def __init__(self, target: str, **kw):
        super().__init__(**kw)
        self.target = target

    def successors(self):
        return (self.target,)

    def p4_supported(self):
        return True


class Branch(Terminator):
    """Two-way branch on a boolean operand."""

    def __init__(self, cond: Operand, if_true: str, if_false: str, **kw):
        super().__init__(**kw)
        self.cond = cond
        self.if_true = if_true
        self.if_false = if_false

    def operands(self):
        return (self.cond,)

    def successors(self):
        return (self.if_true, self.if_false)

    def p4_supported(self):
        return True


class Return(Terminator):
    """End of packet processing without an explicit verdict.

    Only legal in helper methods (inlined away) and in ``configure``.
    """

    def __init__(self, value: Optional[Operand] = None, **kw):
        super().__init__(**kw)
        self.value = value

    def operands(self):
        return () if self.value is None else (self.value,)

    def p4_supported(self):
        return True
