"""Pipeline execution: one traversal of the pre or post program.

:class:`PipelineExecutor` runs the staged program the P4 text prints
over either of the interpreter's value domains: ints for the interpreted
switch (the oracle), terms for the prover's, so the prover proves what
the switch runs.  Every state access goes through the one data-plane
adapter, :class:`SwitchStateAdapter`, which

* services ``MapFind``/``VectorGet`` from exact-match tables,
* services scalar loads/RMWs from registers,
* **rejects** any mutation a data plane cannot perform (map inserts, bare
  stores) — hitting one is a compiler bug, and
* counts accesses so a traversal touching a stateful element twice fails
  loudly (the run-time shadow of constraint 3).

The compiled engine (``SwitchModel(..., fast_path=True)``, the packet
fast path in :mod:`repro.switchsim.compiled`) is the one IR-order
traversal left: it raises the same violations, built by the functions
below, and ``difftest --compiled`` holds it to the staged run.
"""

from __future__ import annotations

import weakref
from itertools import groupby
from typing import Any, Callable, Dict, Mapping, NamedTuple, Optional, Tuple

from repro.analysis.reachability import compute_reachability
from repro.ir import instructions as irin
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.interp import _Run, _decode, _undefined
from repro.ir.values import Reg

#: what one traversal yields: verdict ("send" | "drop" | None when it fell
#: off the end), explicit egress port, final environment (the compiled
#: switch builds it only when there is no verdict: ``None`` otherwise),
#: instruction count
Traversal = Tuple[Optional[str], Optional[int], Optional[Dict[str, int]],
                  int]


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


def rmw_width_mismatch(name: str, width: int, register) -> DataPlaneViolation:
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
    """StateStore-compatible facade over one traversal's switch tables
    (``lookup(keys) -> (found, value)``, a miss answering its domain's
    zero) and registers (``read()``, ``rmw(op, operand)``): one access
    per stateful element, none to an element the switch lacks, an RMW
    only at the declared width, none of the five mutations."""

    def __init__(self, tables: Mapping[str, Any],
                 registers: Mapping[str, Any]):
        self.tables = tables
        self.registers = registers
        self.begin_traversal()
        #: Optional :class:`repro.telemetry.PacketTracer` (``None`` when
        #: tracing is off; the interpreter picks it up via ``state.tracer``).
        self.tracer = None

    def begin_traversal(self) -> None:
        self._accessed: set = set()

    def _count(self, state: str) -> None:
        if state in self._accessed:
            raise accessed_twice(state)
        self._accessed.add(state)

    def _table(self, name: str):
        """The table behind this traversal's one lookup on ``name``."""
        self._count(name)
        table = self.tables.get(name)
        if table is None:
            raise unknown_member("lookup on unknown table", name)
        return table

    def _register(self, name: str, access: str, width: Optional[int] = None):
        """The register behind this traversal's one ``access`` (``"read"``
        | ``"RMW"``) of ``name``."""
        self._count(name)
        register = self.registers.get(name)
        if register is None:
            raise unknown_member(f"{access} of unknown register", name)
        if width and width != register.width_bits:
            raise rmw_width_mismatch(name, width, register)
        return register

    # -- StateStore interface ------------------------------------------------

    def map_find(self, name: str, keys: tuple):
        found, value = self._table(name).lookup(keys)
        if self.tracer is not None:
            self.tracer.record("table_lookup", name=name, key=keys,
                               hit=found, value=value)
        return found, value

    def vector_get(self, name: str, index):
        _found, value = self._table(name).lookup((index,))
        if self.tracer is not None:
            self.tracer.record("vector_get", name=name, index=index,
                               value=value)
        return value

    def load_scalar(self, name: str):
        value = self._register(name, "read").read()
        if self.tracer is not None:
            self.tracer.record("register_read", name=name, value=value)
        return value

    def rmw_scalar(self, name: str, op, operand, width: Optional[int] = None):
        register = self._register(name, "RMW", width)
        old = register.rmw(op, operand)
        if self.tracer is not None:
            self.tracer.record("register_rmw", name=name,
                               op=getattr(op, "name", str(op)).lower(),
                               old=old, new=register.value)
        return old

    # -- operations the data plane cannot do -----------------------------------

    def map_insert(self, name: str, keys, value) -> None:
        raise forbidden("map_insert", name)

    def map_erase(self, name: str, keys) -> None:
        raise forbidden("map_erase", name)

    def store_scalar(self, name: str, value) -> None:
        raise forbidden("store_scalar", name)

    def vector_len(self, name: str):
        raise forbidden("vector_len", name)

    def vector_push(self, name: str, value) -> None:
        raise forbidden("vector_push", name)


class PipelineExecutor:
    """One pipeline of ``program`` run as the switch runs it: the staged
    ops of :meth:`SwitchProgram.stages`, in (stage, program position)
    order, the order the printed P4 reads them.

    * A run of ops in one stage under one guard tests the guard once, as
      the printed ``if`` does, left to right and no further than a false
      condition, and runs only where it holds.  Branches and jumps do
      nothing (their conditions are the guards) but count as the
      instructions they are, so the count is the one the IR walk made.
    * A verdict marks the packet and the pipeline goes on to its last
      stage, as the text has no exit: an op staged after a verdict on its
      path (a value computed for another path) still runs, and one of no
      path through the verdict sits under a guard that fails.
    * Registers live in the allocation's bytes: a write clobbers every
      register holding a value that shares a byte with it, and a later
      read of a clobbered one — by an op, a guard, or pre's punt copying
      out its shim — raises a :class:`DataPlaneViolation` naming both.
      A register the traversal has not written holds no value to lose:
      an op reading it fails as any undefined read, and pre's punt sends
      it as 0 (the codec's encoding of a name it lacks).  The printed
      punt copies that field out of its bytes, which a register written
      on the path may hold: there the text and this run send different
      values for a field the server reads on no such path (DESIGN.md,
      "The staged switch").

    It runs over ``domain`` (:class:`~repro.ir.interp.IntDomain`, or a
    prover world's ``TermDomain``, whose chooser decides each guard
    condition as it decides a branch), ``externs`` and the packet view
    ``view(packet)`` its caller supplies.

    A program is decoded once per domain class (kept by the function,
    per allocation): each op is the interpreter's decoded instruction
    (:func:`repro.ir.interp._decode`) with the registers each of its
    writes may clobber.  A clobbered register leaves ``env`` (so reading
    it fails where any undefined read does) until it is written again;
    one still clobbered at the end is put back, with the value it last
    held, in the ``env`` a traversal returns: the one the IR walk
    leaves.  A pipeline with a loop has no stage schedule:
    :class:`~repro.switchsim.switch_model.SwitchModel` refuses it.
    """

    def __init__(self, program, side: str, adapter: SwitchStateAdapter,
                 domain, externs, view: Callable[[Any], Any]):
        self.adapter = adapter
        self.externs = externs
        self.view = view
        self.decide = domain.decide  # None over ints
        self.error = domain.error
        function = getattr(program, side)
        self.name = function.name
        pre = side == "pre"
        self.punted = tuple(program.shim_to_server.carried() if pre else ())
        held = tuple(() if pre else program.shim_to_switch.carried())
        self.groups = function.once(
            _decode_stages,
            domain if isinstance(domain, type) else type(domain),
            held, self.punted, _Stages(program, side),
        )

    def run(self, packet: Any,
            initial_env: Optional[Dict[str, Any]] = None) -> Traversal:
        adapter = self.adapter
        adapter.begin_traversal()
        tracer = adapter.tracer
        deep = tracer is not None and tracer.deep
        decide = self.decide
        run = _Run(self.view(packet), adapter, self.externs, tracer, decide)
        env: Dict[str, Any] = dict(initial_env) if initial_env else {}
        #: register -> (the register whose write took its bytes, the
        #: value it held then)
        clobbered: Dict[str, Tuple[str, Any]] = {}
        steps = 0
        for guard, ops in self.groups:
            if guard is not None:
                try:
                    if decide is None:
                        for conjunction in guard:
                            for name, false_arm in conjunction:
                                if (not env[name]) is not false_arm:
                                    break
                            else:
                                break
                        else:
                            continue
                    else:  # the same test, each condition decided
                        for conjunction in guard:
                            for name, false_arm in conjunction:
                                if (not decide(env[name])) is not false_arm:
                                    break
                            else:
                                break
                        else:
                            continue
                except KeyError as exc:
                    raise self._unreadable(exc.args[0], clobbered,
                                           ops[0][2]) from None
            for op, writes, info in ops:
                if deep:
                    tracer.record("exec", function=self.name,
                                  block=info.block, position=info.position,
                                  op=type(info.inst).__name__,
                                  stage=info.stage)
                try:
                    op(env, run)
                except KeyError as exc:
                    name = _undefined(exc, info.inst, env)
                    if name is None:
                        raise
                    if name in clobbered:
                        raise self._unreadable(name, clobbered,
                                               info) from None
                    raise self.error(
                        f"{self.name}: read of undefined register %{name}"
                    ) from None
                if writes:
                    for name, shares in writes:
                        clobbered.pop(name, None)
                        for other in shares:
                            # One not written yet has no value to lose.
                            if other in env:
                                clobbered[other] = (name, env.pop(other))
            steps += len(ops)
        if clobbered:
            if run.verdict is None:
                for name in self.punted:
                    if name in clobbered:
                        raise self._unreadable(name, clobbered, None)
            for name, (_, value) in clobbered.items():
                env[name] = value
        return run.verdict, run.egress, env, steps

    def _unreadable(self, name: str, clobbered: Dict[str, Tuple[str, Any]],
                    info: Optional["_OpInfo"]) -> DataPlaneViolation:
        """What a read of register ``name`` at ``info`` raises when ``env``
        has no value for it that an op could have read."""
        stage = "the exit" if info is None else f"stage {info.stage}"
        if name in clobbered:
            return DataPlaneViolation(
                f"{self.name}: {stage} reads %{name}, whose bytes the"
                f" write of %{clobbered[name][0]} took"
            )
        return DataPlaneViolation(
            f"{self.name}: {stage} is guarded by %{name} before any op"
            " writes it"
        )


class _OpInfo(NamedTuple):
    """Where a staged op comes from: what its errors and trace name."""

    inst: Instruction
    stage: int
    #: its block, and its position there (a deep trace's ``exec`` event
    #: names an op by both: instruction ids differ across compiles)
    block: str
    position: int


#: A decoded staged op: the interpreter's op; ``(register, the registers
#: sharing its bytes)`` per one it writes that shares any; where it comes
#: from.
_StagedOp = Tuple[Any, Tuple[Tuple[str, Tuple[str, ...]], ...], _OpInfo]
#: A guard as tested: conjunctions of ``(register, holds where it is
#: false)`` pairs; ``None`` when it always holds.
_Test = Optional[Tuple[Tuple[Tuple[str, bool], ...], ...]]


def _nothing(env, run):
    """A branch or a jump: what it decides, the guards test."""
    return None


class _Stages:
    """``program.stages(side)`` for a memo that misses, and no part of its
    key (a shape and its held and punted names have one staged program);
    held weakly, as the key stays in the function's memo."""

    __slots__ = ("program", "side")

    def __init__(self, program, side: str):
        self.program: Callable[[], Any] = weakref.ref(program)
        self.side = side

    def __hash__(self) -> int:
        return 0

    def __eq__(self, other) -> bool:
        return isinstance(other, _Stages)


def _decode_stages(
    function: Function,
    kind: type,
    held: Tuple[str, ...],
    punted: Tuple[str, ...],
    stages: _Stages,
) -> Tuple[Tuple[_Test, Tuple[_StagedOp, ...]], ...]:
    """The staged ops as runs that share a stage and a guard, each op
    decoded for the domain class ``kind`` with the registers its writes
    can clobber in the scratch bytes the allocation gives them: one that
    shares a byte with the write, may hold a value there (written
    earlier in stage order, or ``held`` from the entry) and is read
    later (by an op, a guard, or pre's punt, a Return, copying out the
    ``punted`` registers).  An allocation gives no two such registers a
    byte, so over a correct one no write clobbers anything."""
    staged, allocation = stages.program().stages(stages.side)
    offsets = allocation.offsets
    first_write = dict.fromkeys(held, -1)
    last_read: Dict[str, int] = {}
    for at, (inst, _, guard) in enumerate(staged):
        for reg in inst.defs():
            first_write.setdefault(reg.name, at)
        for reg in inst.uses():
            last_read[reg.name] = at
        for conjunction in guard:
            for cond, _ in conjunction:
                if isinstance(cond, Reg):
                    last_read[cond.name] = at
        if isinstance(inst, irin.Return):
            last_read.update(dict.fromkeys(punted, at))
    holders: Dict[int, list] = {}
    for name, (offset, size) in offsets.items():
        for byte in range(offset, offset + size):
            holders.setdefault(byte, []).append(name)

    def clobbers(name: str, at: int) -> Tuple[str, ...]:
        offset, size = offsets.get(name, (0, 0))
        return tuple(
            other for other in dict.fromkeys(
                other for byte in range(offset, offset + size)
                for other in holders[byte]
            ) if other != name
            and first_write.get(other, at) < at < last_read.get(other, at)
        )

    shared = {
        (at, reg.name): clobbers(reg.name, at)
        for at, (inst, _, _) in enumerate(staged) for reg in inst.defs()
    }
    # A register one write may clobber gets its bytes back at each of its
    # own writes, even one that clobbers nothing.
    targets = {name for names in shared.values() for name in names}
    info = compute_reachability(function)
    groups = []
    at = 0
    for (stage, guard), run in groupby(staged, key=lambda op: op[1:]):
        ops = []
        for inst, _, _ in run:
            writes = tuple(
                (reg.name, shared[at, reg.name]) for reg in inst.defs()
                if shared[at, reg.name] or reg.name in targets
            )
            at += 1
            if isinstance(inst, (irin.Branch, irin.Jump)):
                op = _nothing
            elif getattr(inst, "_decoded_for", None) is kind:
                op = inst._decoded
            else:
                op = _decode(inst, kind)
            ops.append((
                op,
                writes,
                _OpInfo(inst, stage, info.inst_block[inst.id],
                        info.inst_index[inst.id]),
            ))
        groups.append((_test(guard), tuple(ops)))
    return tuple(groups)


def _test(guard) -> _Test:
    """``guard`` as :meth:`PipelineExecutor.run` tests it: each
    conjunction's conditions left to right, no further than the first
    false one, as the printed predicate reads them.  A constant condition
    is decided here; ``None`` is a guard that always holds."""
    conjunctions = []
    for conjunction in guard:
        pairs = []
        for cond, polarity in conjunction:
            if isinstance(cond, Reg):
                pairs.append((cond.name, not polarity))
            elif bool(cond.value) is not bool(polarity):
                break
        else:
            if not pairs:
                return None
            conjunctions.append(tuple(pairs))
    return tuple(conjunctions)
