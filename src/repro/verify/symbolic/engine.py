"""The translation validator's symbolic deployment model.

One **world** is a single control-flow path through a function (or a
composed switch⊕server journey), identified by the sequence of boolean
decisions its :class:`Chooser` made — branch outcomes, table-entry
matches, vector-index cases.  The prover explores worlds with the
standard script-DFS: run with a decision prefix, then enqueue every
one-bit flip of the fresh suffix, until no unexplored flip remains or
the world budget is exhausted.

What the model never needs a value for is not modelled here — the prover
runs the deployment's own definition of it:

==============================  ======================================
shared                          the one definition
==============================  ======================================
the decoded evaluator           ``repro.ir.interp.Interpreter.run``
                                over :class:`TermDomain`
replication rule                ``repro.runtime.server``:
                                ``replicated_members``,
                                ``updates_from_journal``, ``verdict_flag``
which members are compared      ``repro.runtime.state_image``:
                                ``authoritative``, ``replicated``
data-plane access rules         ``repro.switchsim.pipeline.AccessRules``
member and RMW bit widths       ``repro.lang.types.bit_width_of``
==============================  ======================================

What does look at a value is mirrored over
:class:`~repro.verify.symbolic.terms.Term`:

==============================  ======================================
mirror                          concrete twin
==============================  ======================================
``terms`` (the algebra)         ``repro.ir.interp.IntDomain``
``SymPacketView``               ``repro.ir.interp.PacketView``
``SymStateStore``               ``repro.ir.interp.StateStore``
``SymTable`` / ``SymRegister``  ``ExactMatchTable`` / ``Register`` and a
and ``apply_updates``           fault-free ``ControlPlane.apply_batch``
``SymExternHost``               ``repro.ir.externs.ExternHost``
``prover._shim_pack``           ``ShimLayout.encode`` then ``decode``
``prover._resolve_egress_sym``  ``explicit or bypass_port(ingress)``
==============================  ======================================

A divergence between a mirror and its twin is a soundness hole;
``tests/verify/test_mirror_lockstep.py`` runs every row against its twin,
concolically, on generated programs and the bundled middleboxes.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.ir import instructions as irin
from repro.ir.lowering import StateMember
from repro.lang.types import bit_width_of
from repro.net.fields import BY_KEY, header_field
from repro.switchsim.pipeline import AccessRules
from repro.verify.symbolic.terms import (
    Term,
    binop,
    boolify,
    const,
    unop,
    wrap,
)


class SymExecError(Exception):
    """A failure both the source and the composition would hit identically
    (undefined register, unresolvable scalar width, RMW width mismatch on
    the server store) — mirrors :class:`repro.ir.interp.InterpreterError`."""


class CompositionViolation(Exception):
    """The composed switch pipeline attempted something the data plane
    cannot do — mirrors :class:`repro.switchsim.pipeline.DataPlaneViolation`
    and the control plane's :class:`TableEntryLimit`."""


class BudgetExhausted(Exception):
    """A symbolic budget (steps, decisions, worlds) ran out."""


# ---------------------------------------------------------------------------
# Decisions
# ---------------------------------------------------------------------------


#: One stored map / table entry.  Never written to: an update replaces
#: the entry in its list, so any number of lists may hold one.
Entry = Tuple[Tuple[Term, ...], Term]

#: lookup key -> stored entry's keys -> the test that the two are equal.
#: Terms are interned, so a lookup key is one object in every scenario of
#: a proof and one memo serves them all; it goes when the proof does.
KeyTests = Dict[Tuple[Term, ...], Dict[Tuple[Term, ...], Term]]


class Chooser:
    """Resolves undecided boolean terms along one world.

    A decision already implied by the term's interval (or constancy) is
    free.  A structurally identical term asked twice in one world gets
    the same answer — this is what keeps the source run and the
    composition run on *corresponding* paths, since both ask about the
    same header-field terms.  Fresh decisions consume the ``script``
    (the DFS prefix); beyond it the default is True, and every fresh
    decision is recorded in ``trace`` so the driver can enqueue flips.
    A map's or a table's scan is one call (:meth:`find`) deciding its
    entries' key tests by that same rule.
    """

    def __init__(self, key_tests: KeyTests, script: Tuple[bool, ...] = (),
                 max_decisions: int = 192):
        self.key_tests = key_tests
        self.script = script
        self.max_decisions = max_decisions
        self.decided: Dict[Term, bool] = {}
        self.trace: List[bool] = []
        #: (term, outcome) pairs for every fresh decision — the world's
        #: path condition, used by the counterexample search.
        self.conditions: List[Tuple[Term, bool]] = []

    def decide(self, term: Term) -> bool:
        return self._first((term,)) == 0

    def find(self, entries: Iterable[Entry],
             keys: Tuple[Term, ...]) -> Optional[int]:
        """The index of the first entry whose keys this world makes equal
        to ``keys``, or None: a map's or a table's scan, as one call."""
        tests = self.key_tests.get(keys)
        if tests is None:
            tests = self.key_tests[keys] = {}
        return self._first(_key_tests(tests, entries, keys))

    def _first(self, tests: Iterable[Term]) -> Optional[int]:
        """The position of the first of ``tests`` that holds, deciding
        each in order until one does: by its interval, else by this
        world's earlier answer, else by the script (then True), within
        the decision budget."""
        decided = self.decided
        for position, term in enumerate(tests):
            choice = term.known  # the interval's verdict, terms.truth
            if choice is None:
                choice = decided.get(term)
            if choice is None:
                index = len(self.trace)
                if index >= self.max_decisions:
                    raise BudgetExhausted(
                        f"decision budget exhausted ({self.max_decisions})"
                    )
                choice = (self.script[index] if index < len(self.script)
                          else True)
                self.trace.append(choice)
                decided[term] = choice
                self.conditions.append((term, choice))
            if choice:
                return position
        return None


def _key_tests(tests: Dict[Tuple[Term, ...], Term], entries: Iterable[Entry],
               keys: Tuple[Term, ...]) -> Iterator[Term]:
    """Each entry's key test against ``keys``, from ``tests`` (the memo
    row of ``keys``) or built into it."""
    for entry_keys, _value in entries:
        test = tests.get(entry_keys)
        if test is None:
            test = tests[entry_keys] = _keys_equal(entry_keys, keys)
        yield test


def _keys_equal(entry_keys: Tuple[Term, ...], keys: Tuple[Term, ...]) -> Term:
    if len(entry_keys) != len(keys):
        return const(0)
    cond = const(1)
    for have, want in zip(entry_keys, keys):
        cond = binop(irin.BinOpKind.LAND, cond,
                     binop(irin.BinOpKind.EQ, want, have))
    return cond


class TermDomain:
    """What a value is when :class:`repro.ir.interp.Interpreter` runs a
    function symbolically: the term algebra's constructors, branches
    decided by the world's chooser, the budget's step bound."""

    lift = staticmethod(const)
    binops = {kind: partial(binop, kind) for kind in irin.BinOpKind}
    unops = {kind: partial(unop, kind) for kind in irin.UnOpKind}
    #: the mask first, as :class:`repro.ir.interp.IntDomain` takes it
    wrap = staticmethod(lambda mask, value: wrap(value, mask))
    boolify = staticmethod(boolify)
    error = SymExecError
    step_limit = BudgetExhausted

    def __init__(self, chooser: Chooser, max_steps: int):
        self.chooser = chooser
        self.decide = chooser.decide
        self.max_steps = max_steps


# ---------------------------------------------------------------------------
# Packet adapter
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _storage_keys(has_ip: bool, has_tcp: bool, has_udp: bool
                  ) -> Dict[Tuple[str, str], Optional[Tuple[str, str]]]:
    """Where each header field of one packet shape is stored: its own
    header's key, the aliased header's (TCP→UDP ports), or None when
    neither header is present.  ``meta`` is not a header.  One table per
    shape, shared by every view of it and written by none."""
    present = {"eth": True, "ip": has_ip, "tcp": has_tcp, "udp": has_udp}
    keys: Dict[Tuple[str, str], Optional[Tuple[str, str]]] = {}
    for (region, name), row in BY_KEY.items():
        if region == "meta":
            continue
        if present[region]:
            keys[region, name] = (region, name)
        elif row.alias and present[row.alias]:
            keys[region, name] = (row.alias, name)
        else:
            keys[region, name] = None
    return keys


class SymPacketView:
    """Symbolic mirror of :class:`PacketView` over a packet *shape*.

    The shape (which headers exist, the concrete payload) is fixed per
    scenario; header fields are terms.  Reads of absent headers yield 0
    and writes to them are dropped, with the same TCP→UDP port aliasing
    the concrete view applies.
    """

    def __init__(self, fields: Dict[Tuple[str, str], Term],
                 has_ip: bool, has_tcp: bool, has_udp: bool,
                 payload: bytes, ingress_port: Term):
        self.fields = fields
        self.has_ip = has_ip
        self.has_tcp = has_tcp
        self.has_udp = has_udp
        self.payload_bytes = payload
        self.ingress_port = ingress_port
        self.verdict: Optional[str] = None
        self.egress_port: Optional[Term] = None
        self._keys = _storage_keys(has_ip, has_tcp, has_udp)

    def copy(self) -> "SymPacketView":
        return SymPacketView(dict(self.fields), self.has_ip, self.has_tcp,
                             self.has_udp, self.payload_bytes,
                             self.ingress_port)

    def get_field(self, region: str, field_name: str) -> Term:
        header_field(region, field_name, SymExecError)
        if region == "meta":
            return self.ingress_port
        # An absent header's key is None, which no field is stored under.
        term = self.fields.get(self._keys[region, field_name])
        return const(0) if term is None else term

    def set_field(self, region: str, field_name: str, value: Term) -> None:
        row = header_field(region, field_name, SymExecError, store=True)
        key = self._keys[region, field_name]
        if key is None:
            return  # writes to absent headers are dropped
        # Unmasked fields store the raw value, exactly like the concrete
        # view's bare setattr.
        self.fields[key] = wrap(value, row.mask) if row.masked else value

    def payload(self) -> bytes:
        return self.payload_bytes

    def send(self, port: Optional[Term] = None) -> None:
        self.verdict = "send"
        self.egress_port = port

    def drop(self) -> None:
        self.verdict = "drop"


# ---------------------------------------------------------------------------
# Server-side state
# ---------------------------------------------------------------------------


def _entries(table: dict) -> Tuple[Entry, ...]:
    return tuple(
        (tuple(const(k) for k in keys), const(value))
        for keys, value in table.items()
    )


class SymPrestate:
    """One concrete pre-state in term form: what every world of a
    scenario starts from, built once.

    Terms are immutable and so are the ``(keys, value)`` entries made of
    them; a store enters a world with a copy of the entry *lists*, so
    worlds share terms and nothing they can write to.  The switch's copy
    (derived the way ``sync_all_state`` installs it) holds the very entry
    objects of the server maps it mirrors: an entry no world touched is
    one object on every side of the final comparison.
    """

    def __init__(self, members: Dict[str, StateMember], snapshot: dict,
                 on_switch: Iterable[str]):
        self.members = members
        self.maps: Dict[str, Tuple[Entry, ...]] = {}
        self.vectors: Dict[str, Tuple[Term, ...]] = {}
        self.scalars: Dict[str, Term] = {}
        self.scalar_masks: Dict[str, int] = {}
        for name, member in members.items():
            if member.kind == "map":
                self.maps[name] = _entries(
                    snapshot.get("maps", {}).get(name, {})
                )
            elif member.kind == "vector":
                self.vectors[name] = tuple(
                    const(value)
                    for value in snapshot.get("vectors", {}).get(name, [])
                )
            else:
                self.scalars[name] = const(
                    snapshot.get("scalars", {}).get(name, 0)
                )
                width = bit_width_of(member.member_type, 0)
                if width > 0:
                    self.scalar_masks[name] = (1 << width) - 1
        self.tables: Dict[str, Tuple[Entry, ...]] = {}
        self.registers: Dict[str, Term] = {}
        for name in on_switch:
            kind = members[name].kind
            if kind == "map":
                self.tables[name] = self.maps[name]
            elif kind == "vector":
                self.tables[name] = tuple(
                    ((const(index),), value)
                    for index, value in enumerate(self.vectors[name])
                )
            else:
                self.registers[name] = self.scalars[name]


class SymStateStore:
    """Symbolic mirror of :class:`StateStore`, entered at a scenario's
    pre-state.  Maps are ordered entry lists because keys may become
    symbolic mid-run (an insert under a symbolic header field)."""

    def __init__(self, prestate: SymPrestate, chooser: Chooser):
        self.members = prestate.members
        self.chooser = chooser
        self.maps: Dict[str, List[Entry]] = {
            name: list(entries) for name, entries in prestate.maps.items()
        }
        self.vectors: Dict[str, List[Term]] = {
            name: list(values) for name, values in prestate.vectors.items()
        }
        self.scalars: Dict[str, Term] = dict(prestate.scalars)
        self._scalar_masks = prestate.scalar_masks
        self.journal: List[tuple] = []

    # -- maps ----------------------------------------------------------------

    def map_find(self, name: str, keys: Tuple[Term, ...]) -> Tuple[bool, Term]:
        index = self.chooser.find(self.maps[name], keys)
        if index is None:
            return False, const(0)
        return True, self.maps[name][index][1]

    def map_insert(self, name: str, keys: Tuple[Term, ...], value: Term) -> None:
        member = self.members[name]
        table = self.maps[name]
        index = self.chooser.find(table, keys)
        if (
            member.max_entries is not None
            and index is None
            and len(table) >= member.max_entries
        ):
            self.journal.append(("insert_failed", name, keys, value))
            return
        if index is None:
            table.append((keys, value))
        else:
            table[index] = (table[index][0], value)
        self.journal.append(("insert", name, keys, value))

    def map_erase(self, name: str, keys: Tuple[Term, ...]) -> None:
        index = self.chooser.find(self.maps[name], keys)
        if index is not None:
            del self.maps[name][index]
        self.journal.append(("erase", name, keys, None))

    # -- vectors --------------------------------------------------------------

    def vector_get(self, name: str, index: Term) -> Term:
        vector = self.vectors[name]
        if index.is_const:
            i = index.value
            return vector[i] if 0 <= i < len(vector) else const(0)
        for i in range(max(0, index.lo), min(len(vector) - 1, index.hi) + 1):
            if self.chooser.decide(binop(irin.BinOpKind.EQ, index, const(i))):
                return vector[i]
        return const(0)

    def vector_len(self, name: str) -> Term:
        return const(len(self.vectors[name]))

    def vector_push(self, name: str, value: Term) -> None:
        self.vectors[name].append(value)
        self.journal.append(
            ("push", name, (const(len(self.vectors[name]) - 1),), value)
        )

    # -- scalars ---------------------------------------------------------------

    def load_scalar(self, name: str) -> Term:
        return self.scalars[name]

    def _scalar_mask(self, name: str) -> int:
        mask = self._scalar_masks.get(name)
        if mask is None:
            raise SymExecError(
                f"scalar {name!r} has no resolvable width;"
                " refusing an unmasked write"
            )
        return mask

    def store_scalar(self, name: str, value: Term) -> None:
        value = wrap(value, self._scalar_mask(name))
        self.scalars[name] = value
        self.journal.append(("store", name, (), value))

    def rmw_scalar(self, name: str, op, operand: Term,
                   width: Optional[int] = None) -> Term:
        mask = self._scalar_mask(name)
        if width:
            member_width = mask.bit_length()
            if width != member_width:
                raise SymExecError(
                    f"register {name!r}: RMW width {width} does not match"
                    f" the member width {member_width}"
                )
        old = self.scalars[name]
        self.scalars[name] = wrap(binop(op, old, operand), mask)
        self.journal.append(("store", name, (), self.scalars[name]))
        return old

    # -- snapshots ---------------------------------------------------------------

    def drain_journal(self) -> List[tuple]:
        entries = self.journal
        self.journal = []
        return entries


# ---------------------------------------------------------------------------
# Switch-side state
# ---------------------------------------------------------------------------


class SymTable:
    """One exact-match table's committed contents (fault-free, so the
    write-back stage is always folded — a plain ordered entry list)."""

    def __init__(self, name: str, size: int, prestate: SymPrestate):
        self.name = name
        self.size = size
        self.entries: List[Entry] = list(prestate.tables.get(name, ()))

    def lookup(self, keys: Tuple[Term, ...], chooser: Chooser) -> Tuple[bool, Term]:
        index = chooser.find(self.entries, keys)
        if index is None:
            return False, const(0)
        return True, self.entries[index][1]


class SymRegister:
    """One P4 register cell; every write wraps at the declared width,
    mirroring :class:`repro.switchsim.registers.Register`."""

    def __init__(self, name: str, width_bits: int, value: Term):
        self.name = name
        self.width_bits = width_bits
        self.mask = (1 << width_bits) - 1
        self.value = wrap(value, self.mask)


class SymSwitchState(AccessRules):
    """The switch's tables and registers over terms: the data plane's
    :class:`AccessRules` (the run-time shadow of constraint 3) with
    symbolic lookups, plus the fault-free control-plane update path."""

    violation = CompositionViolation

    def __init__(self, program, prestate: SymPrestate, chooser: Chooser):
        self.chooser = chooser
        self.tables: Dict[str, SymTable] = {
            name: SymTable(name, spec.size, prestate)
            for name, spec in program.tables.items()
        }
        self.registers: Dict[str, SymRegister] = {
            name: SymRegister(
                name, spec.width_bits, prestate.registers.get(name, const(0))
            )
            for name, spec in program.registers.items()
        }
        self.begin_traversal()

    # -- StateStore interface (data plane) ------------------------------------

    def map_find(self, name: str, keys: Tuple[Term, ...]) -> Tuple[bool, Term]:
        return self._table(name).lookup(keys, self.chooser)

    def vector_get(self, name: str, index: Term) -> Term:
        found, value = self._table(name).lookup((index,), self.chooser)
        return value if found else const(0)

    def load_scalar(self, name: str) -> Term:
        return self._register(name, "read").value

    def rmw_scalar(self, name: str, op, operand: Term,
                   width: Optional[int] = None) -> Term:
        register = self._register(name, "RMW", width)
        old = register.value
        register.value = wrap(binop(op, old, operand), register.mask)
        return old

    # -- control plane (replication batch, fault-free) --------------------------

    def apply_updates(self, updates) -> None:
        """Apply one punt's replication batch (``StateUpdate``s over
        terms) the way a fault-free ``apply_batch`` commit does."""
        for update in updates:
            kind, member, keys, value = (
                update.op, update.target, update.key, update.value
            )
            if kind == "register":
                register = self.registers.get(member)
                if register is None:
                    raise CompositionViolation(
                        f"register update for unknown register {member!r}"
                    )
                register.value = wrap(value, register.mask)
                continue
            table = self.tables.get(member)
            if table is None:
                raise CompositionViolation(
                    f"table update for unknown table {member!r}"
                )
            index = self.chooser.find(table.entries, keys)
            if kind == "insert":
                if index is None:
                    if len(table.entries) >= table.size:
                        raise CompositionViolation(
                            f"table {member!r} full ({table.size} entries)"
                        )
                    table.entries.append((keys, value))
                else:
                    table.entries[index] = (table.entries[index][0], value)
            elif kind == "delete":
                if index is not None:
                    del table.entries[index]
            else:
                raise CompositionViolation(f"unknown update kind {kind!r}")


# ---------------------------------------------------------------------------
# Externs
# ---------------------------------------------------------------------------


class SymExternHost:
    """Symbolic mirror of :class:`ExternHost` with the oracle runtimes'
    defaults: frozen clock (``lambda: 0``), concrete config sections,
    concrete payload read through the packet view."""

    def __init__(self, config: Optional[Dict[int, list]] = None,
                 chooser: Optional[Chooser] = None):
        self.config: Dict[int, list] = dict(config or {})
        self.chooser = chooser

    def call(self, name: str, args: List[Term], packet) -> Term:
        if name == "payload_len":
            return const(len(packet.payload()) if packet is not None else 0)
        if name == "payload_byte":
            payload = packet.payload() if packet is not None else b""
            return self._index_bytes(payload, args[0])
        if name == "now_sec":
            return const(0)  # ExternHost's default clock is `lambda: 0`
        if name == "config_len":
            return self._over_sections(args[0], lambda s: const(len(s)))
        if name == "config_u32":
            return self._over_sections(
                args[0], lambda s: self._index_seq(s, args[1])
            )
        if name == "log_event":
            return const(0)
        raise SymExecError(f"unknown extern {name!r}")

    def _over_sections(self, section: Term, fn) -> Term:
        if section.is_const:
            return fn(self.config.get(section.value, ()))
        for key in self.config:
            cond = binop(irin.BinOpKind.EQ, section, const(key))
            if self.chooser.decide(cond):
                return fn(self.config[key])
        return fn(())

    def _index_seq(self, seq, index: Term) -> Term:
        if index.is_const:
            i = index.value
            return const(seq[i] if 0 <= i < len(seq) else 0)
        for i in range(max(0, index.lo), min(len(seq) - 1, index.hi) + 1):
            if self.chooser.decide(binop(irin.BinOpKind.EQ, index, const(i))):
                return const(seq[i])
        return const(0)

    def _index_bytes(self, payload: bytes, index: Term) -> Term:
        return self._index_seq(payload, index)
