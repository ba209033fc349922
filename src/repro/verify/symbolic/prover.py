"""Translation validation: the per-compilation symbolic equivalence prover.

For one compiled artifact this module proves (or disproves with a
concrete, interpreter-confirmed counterexample) that

    switch pre-pipeline  ⊕  punt-path server partition  ⊕  post-pipeline

composed through the §4.3.3 replication shim is observably equivalent to
the *source* lowered function, on a bounded symbolic packet space:

* symbolic IP/TCP/UDP header fields (every field the difftest oracle
  observes), one packet shape per scenario (TCP or UDP headers present,
  ``ip.protocol`` concrete per shape),
* concrete Ethernet header, payload, and ingress port per scenario,
* concrete table/register pre-states enumerated by a seeded sampler
  (the post-``configure()`` state plus randomized variants).

Within one scenario the prover runs the standard script-DFS over worlds
(decision vectors — see :class:`~repro.verify.symbolic.engine.Chooser`),
executing the source function and the full composition under one shared
chooser so corresponding branches take corresponding sides.  Observables
are compared exactly the way ``repro.difftest.oracle`` compares runtimes:
verdict, resolved egress port, the observed header fields, the end state
and convergence, over the members ``repro.runtime.state_image`` names
(DESIGN.md, "Translation validation", lists what is compared).

A symbolic mismatch is never reported directly: the prover first searches
the path condition for a concrete witness packet + pre-state, replays it
through the real interpreter deployments, and only a replay that actually
diverges becomes a ``SYM00x`` error (and a minimized reproducer appended
to the difftest corpus).  A witness whose replay *agrees* is path-condition
unsoundness (``SYM007``) — a prover bug, reported loudly.  Worlds the
budgets cut off make the whole proof inconclusive (``SYM008``) rather
than silently passing.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.codegen.headers import (
    EGRESS_PORT_FIELD,
    FLAG_VERDICT_DROP,
    FLAG_VERDICT_SEND,
    INGRESS_PORT_FIELD,
    VERDICT_FIELD,
)
from repro.difftest.kernel import OBSERVED_FIELDS, SERVER_SECTIONS
from repro.ir import instructions as irin
from repro.ir.externs import ExternHost
from repro.ir.interp import Interpreter, PacketView, StateStore
from repro.lang.types import bit_width_of
from repro.net.fields import BY_KEY
from repro.net.packet import RawPacket
from repro.runtime import state_image
from repro.runtime.server import (
    replicated_members,
    updates_from_journal,
    verdict_flag,
)
from repro.switchsim.pipeline import (
    DataPlaneViolation,
    PipelineExecutor,
    SwitchStateAdapter,
)
from repro.switchsim.program import bypass_port
from repro.verify.diagnostics import (
    STAGE_SYMBOLIC,
    Diagnostic,
    error,
)
from repro.verify.symbolic.engine import (
    BudgetExhausted,
    Chooser,
    CompositionViolation,
    KeyTests,
    SymExecError,
    SymExternHost,
    SymPacketView,
    SymPrestate,
    SymRegister,
    SymStateStore,
    SymTable,
    TermDomain,
    apply_updates,
    read_only_maps,
)
from repro.verify.symbolic.terms import (
    Term,
    atom,
    atoms_of,
    binop,
    const,
    constants_of,
    evaluate,
    truth,
    wrap,
)
from repro.workloads.packets import make_tcp_packet, make_udp_packet

#: divergence kind (oracle vocabulary) -> symbolic diagnostic code
KIND_TO_CODE = {
    "verdict": "SYM001",
    "egress": "SYM002",
    "field": "SYM003",
    "state": "SYM004",
    "switch_state": "SYM005",
}


#: fresh boolean decisions per world (source + composition combined)
MAX_DECISIONS = 192
#: symbolic interpreter steps per function run
MAX_STEPS = 200_000
#: witnesses replayed per mismatch before giving up
CONFIRM_ATTEMPTS = 8
#: seed for the pre-state sampler and the random witness draws
BUDGET_SEED = 0


@dataclass(frozen=True)
class SymbolicBudget:
    """Deterministic exploration bounds (no wall-clock cutoffs)."""

    #: worlds (decision vectors) explored per scenario
    max_worlds: int = 4096
    #: exhaustive witness search cap (product of candidate pool sizes)
    witness_limit: int = 20_000
    #: random witness draws when the pool product exceeds the cap
    random_tries: int = 4_000
    #: randomized pre-state variants beyond the post-configure base
    prestate_variants: int = 2


#: Small bounds for per-test and difftest cross-check use.
SMOKE_BUDGET = SymbolicBudget(
    max_worlds=512, witness_limit=4_000, random_tries=1_000,
    prestate_variants=1,
)


@dataclass
class Counterexample:
    """One confirmed disproof: packet + pre-state the interpreter
    confirms diverges between the baseline and the deployment."""

    code: str
    detail: str
    packet: dict  # serialized packet spec (see packet_from_spec)
    prestate: dict  # concrete server StateStore snapshot
    scenario: str
    confirmed: bool
    replay_detail: str = ""
    corpus_path: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "detail": self.detail,
            "packet": self.packet,
            "prestate": serialize_prestate(self.prestate),
            "scenario": self.scenario,
            "confirmed": self.confirmed,
            "replay_detail": self.replay_detail,
            "corpus_path": self.corpus_path,
        }


@dataclass
class SymbolicReport:
    """Outcome of one translation-validation run."""

    program: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    counterexamples: List[Counterexample] = field(default_factory=list)
    inconclusive: List[str] = field(default_factory=list)
    scenarios: int = 0
    worlds: int = 0
    decisions: int = 0
    source_crash_worlds: int = 0
    elapsed_s: float = 0.0
    #: where the time went: label, worlds, decisions, elapsed_s of each
    #: scenario entered, in order
    per_scenario: List[dict] = field(default_factory=list)
    #: what "proved" is qualified by (:meth:`Bound.to_dict`)
    bound: dict = field(default_factory=dict)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def proved(self) -> bool:
        return not self.errors and not self.inconclusive

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "program": self.program,
            "proved": self.proved,
            "scenarios": self.scenarios,
            "worlds": self.worlds,
            "decisions": self.decisions,
            "source_crash_worlds": self.source_crash_worlds,
            "elapsed_s": round(self.elapsed_s, 3),
            "per_scenario": list(self.per_scenario),
            "bound": self.bound,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "counterexamples": [c.to_dict() for c in self.counterexamples],
            "inconclusive": list(self.inconclusive),
        }


# ---------------------------------------------------------------------------
# Packet specs (shared with the difftest corpus)
# ---------------------------------------------------------------------------


def _template_packet(kind: Optional[str], payload: bytes = b"",
                     ingress: int = 1) -> RawPacket:
    """The packet of shape ``kind`` every field the prover keeps concrete
    is read from."""
    make = make_udp_packet if kind == "udp" else make_tcp_packet
    return make("10.0.0.1", "10.9.0.1", 1, 1, payload=payload,
                ingress_port=ingress)


def packet_from_spec(spec: dict):
    """Materialize a serialized counterexample packet.

    The spec pins every symbolic header field; unspecified fields keep the
    template defaults (which is exactly what the symbolic run assumed —
    absent atoms evaluate to their concrete template value or 0)."""
    packet = _template_packet(
        spec.get("kind"), bytes.fromhex(spec.get("payload", "")),
        int(spec.get("ingress", 1)),
    )
    view = PacketView(packet)
    for key, value in spec.get("fields", {}).items():
        region, field_name = key.split(".", 1)
        view.set_field(region, field_name, int(value))
    return packet


def serialize_prestate(prestate: dict) -> dict:
    """JSON-safe form of a StateStore snapshot (tuple keys -> lists)."""
    return {
        "maps": {
            name: [[list(keys), value] for keys, value in entries.items()]
            for name, entries in prestate.get("maps", {}).items()
        },
        "vectors": {
            name: list(values)
            for name, values in prestate.get("vectors", {}).items()
        },
        "scalars": dict(prestate.get("scalars", {})),
    }


def deserialize_prestate(data: dict) -> dict:
    """Inverse of :func:`serialize_prestate`."""
    return {
        "maps": {
            name: {tuple(keys): value for keys, value in entries}
            for name, entries in data.get("maps", {}).items()
        },
        "vectors": {
            name: list(values)
            for name, values in data.get("vectors", {}).items()
        },
        "scalars": dict(data.get("scalars", {})),
    }


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


PACKET_SHAPES = ("tcp", "udp")


class Scenario:
    """One concrete slice of the bounded packet/state space, and what
    every world of it starts from: the pre-state in term form (built once
    per proof and shared by the scenarios that start from it) and the
    base packet view.  A world copies both on entry (terms are immutable,
    so a copy is pointers) and writes to neither.  The key tests its
    worlds' lookups ask are the proof's (``key_tests``, shared by every
    scenario of it), and so are the maps no function writes
    (``read_only``), whose lookups a world may merge."""

    def __init__(self, label: str, kind: str, ingress: int, payload: bytes,
                 state: SymPrestate,
                 packet: Tuple[SymPacketView, Dict[str, Tuple[str, str, int]]],
                 key_tests: KeyTests, read_only: FrozenSet[str]):
        self.label = label
        self.kind = kind  # one of PACKET_SHAPES
        self.ingress = ingress
        self.payload = payload
        #: concrete server StateStore snapshot, what a witness replays on
        self.prestate = state.snapshot
        #: the same in term form, with the switch's copy of what it holds
        self.state = state
        #: the base view and its atoms, one per shape, ingress and payload
        self.packet, self.atoms = packet
        self.key_tests = key_tests
        self.read_only = read_only


def _base_prestate(plan, config) -> dict:
    state = StateStore(plan.middlebox.state)
    externs = ExternHost(config=config)
    if plan.middlebox.configure is not None:
        Interpreter(plan.middlebox.configure, state, externs).run()
    state.drain_journal()
    return state.snapshot()


def _sample_prestates(plan, base: dict, variants: int,
                      rng: random.Random) -> List[dict]:
    """The base post-configure state plus seeded randomized variants.

    Variants perturb scalars and add a couple of map entries (within the
    declared key/value widths and ``max_entries`` caps) so lookups can
    both hit and miss; configure-built vectors are left alone (their
    contents are config-determined and the oracle never compares them)."""
    prestates = [base]
    members = plan.middlebox.state
    if not members:
        return prestates
    for _ in range(max(0, variants)):
        snap = {
            "maps": {k: dict(v) for k, v in base["maps"].items()},
            "vectors": {k: list(v) for k, v in base["vectors"].items()},
            "scalars": dict(base["scalars"]),
        }
        changed = False
        for name, member in members.items():
            if member.kind == "map":
                key_masks = [
                    (1 << bit_width_of(t, 32)) - 1 for t in member.key_types()
                ]
                value_mask = (1 << bit_width_of(member.value_type(), 32)) - 1
                table = snap["maps"][name]
                cap = member.max_entries
                for _entry in range(2):
                    if cap is not None and len(table) >= cap:
                        break
                    keys = tuple(
                        rng.choice([0, 1, 2, rng.randrange(1 << 16)]) & mask
                        for mask in key_masks
                    )
                    table[keys] = rng.randrange(1 << 16) & value_mask
                    changed = True
            elif member.kind == "scalar":
                mask = (1 << bit_width_of(member.member_type, 32)) - 1
                snap["scalars"][name] = rng.randrange(1 << 16) & mask
                changed = True
        if changed:
            prestates.append(snap)
    return prestates


def _function_traits(function) -> Tuple[bool, bool]:
    """(reads meta.ingress_port, calls payload externs) for ``function``."""
    reads_ingress = False
    reads_payload = False
    for block in function.blocks.values():
        for inst in block.instructions:
            if isinstance(inst, irin.LoadPacketField):
                if inst.region == "meta" and inst.field == "ingress_port":
                    reads_ingress = True
            elif isinstance(inst, irin.ExternCall):
                if inst.name in ("payload_len", "payload_byte"):
                    reads_payload = True
    return reads_ingress, reads_payload


#: The symbolic header fields: every oracle-observed field except
#: ``ip.protocol``, which stays concrete per packet shape (the two shapes
#: cover both protocol branches; a protocol value contradicting the
#: header shape is not a packet the workloads can build).
_SYMBOLIC_FIELDS = [
    key for key in OBSERVED_FIELDS if key != ("ip", "protocol")
]


@dataclass
class Bound:
    """The space one proof covers — what "proved" is qualified by: both
    packet shapes times these ingress ports, payloads and pre-states,
    every other observed header field symbolic, the clock frozen at 0."""

    #: ``[0]`` is the post-``configure()`` state, the rest seeded variants
    prestates: List[dict]
    ingresses: List[int]
    payloads: List[bytes]

    def __len__(self) -> int:
        return (len(PACKET_SHAPES) * len(self.ingresses) * len(self.payloads)
                * len(self.prestates))

    def scenarios(self, plan) -> Iterator[Scenario]:
        """Each scenario as the prover reaches it.  What they share goes
        with the proof: the key tests, the read-only maps, each
        pre-state's term form and each base packet."""
        members = plan.middlebox.state
        on_switch = [
            name for name, placement in plan.placements.items()
            if placement.on_switch
        ]
        read_only = read_only_maps(members, (
            plan.middlebox.process, plan.pre, plan.non_offloaded, plan.post,
        ))
        key_tests = KeyTests()
        states: Dict[int, SymPrestate] = {}
        for kind, ingress, payload in itertools.product(
                PACKET_SHAPES, self.ingresses, self.payloads):
            packet = make_symbolic_packet(kind, payload, ingress)
            for index, prestate in enumerate(self.prestates):
                state = states.get(index)
                if state is None:
                    state = states[index] = SymPrestate(
                        members, prestate, on_switch
                    )
                yield Scenario(
                    f"{kind}/in{ingress}/pay{len(payload)}/state{index}",
                    kind, ingress, payload, state, packet, key_tests,
                    read_only,
                )

    def to_dict(self) -> dict:
        return {
            "prestate_variants": len(self.prestates) - 1,
            "ingress_ports": list(self.ingresses),
            "payloads": [payload.hex() for payload in self.payloads],
            "symbolic_fields": {
                kind: len(make_symbolic_packet(kind, b"", 1)[1])
                for kind in PACKET_SHAPES
            },
            "frozen_clock_s": 0,
        }


def proof_bound(plan, config, budget: SymbolicBudget) -> Bound:
    rng = random.Random(BUDGET_SEED)
    base = _base_prestate(plan, config)
    variants = budget.prestate_variants if plan.middlebox.state else 0
    reads_ingress, reads_payload = _function_traits(plan.middlebox.process)
    return Bound(
        prestates=_sample_prestates(plan, base, variants, rng),
        ingresses=[1, 2] if reads_ingress else [1],
        payloads=[b"", b"AB\x00\x07"] if reads_payload else [b""],
    )


def make_symbolic_packet(
    kind: str, payload: bytes, ingress: int,
) -> Tuple[SymPacketView, Dict[str, Tuple[str, str, int]]]:
    """The base :class:`SymPacketView` of one packet shape and its atom
    registry (atom name -> (region, field, width)).

    Atoms are shared by name across the source and composition runs (both
    copy the same base view), which is what makes structural term identity
    meaningful."""
    template = PacketView(_template_packet(kind))
    raw = template.raw
    fields: Dict[Tuple[str, str], Term] = {}
    atoms: Dict[str, Tuple[str, str, int]] = {}
    for region, name in sorted(BY_KEY):
        if region == "meta" or getattr(raw, region) is None:
            continue
        if (region, name) in _SYMBOLIC_FIELDS:
            width = BY_KEY[(region, name)].width
            atom_name = f"{region}.{name}"
            fields[(region, name)] = atom(atom_name, width)
            atoms[atom_name] = (region, name, width)
        else:
            # Concrete: the frame, ``ip.protocol``, and the structural
            # fields the subset can read but the oracle does not observe
            # (writes to them are raw stores, faithfully mirrored).
            fields[(region, name)] = const(template.get_field(region, name))
    view = SymPacketView(
        fields, has_ip=True, has_tcp=raw.tcp is not None,
        has_udp=raw.udp is not None,
        payload=payload, ingress_port=const(ingress),
    )
    return view, atoms


# ---------------------------------------------------------------------------
# One world: source vs composition
# ---------------------------------------------------------------------------


@dataclass
class Mismatch:
    kind: str  # oracle divergence vocabulary, see KIND_TO_CODE
    detail: str
    #: term pair to drive apart (None: the mismatch is path-definite)
    obligation: Optional[Tuple[Term, Term]] = None


@dataclass
class WorldResult:
    status: str  # "ok" | "mismatch" | "composition" | "source_error"
    chooser: Chooser
    mismatch: Optional[Mismatch] = None
    detail: str = ""


def _resolve_egress_sym(egress: Optional[Term], ingress: int,
                        chooser: Chooser) -> Term:
    """Mirror of the switch's and the baseline's ``explicit or
    bypass_port(ingress)``: a port of 0 falls through to the wire pair."""
    fallback = const(bypass_port(ingress))
    if egress is None:
        return fallback
    if chooser.decide(binop(irin.BinOpKind.NE, egress, const(0))):
        return egress
    return fallback


def _shim_pack(layout, values: Dict[str, Term]) -> Dict[str, Term]:
    """encode ∘ decode through a shim layout: wrap each field to width
    (the masks are the codec's own)."""
    return {
        name: wrap(values.get(name, const(0)), mask)
        for name, _, mask in layout.slots
    }


@dataclass
class CompOutcome:
    verdict: str  # "send" | "drop"
    egress: Optional[Term]
    packet: SymPacketView
    server: SymStateStore
    switch: SwitchStateAdapter  # over SymTable / SymRegister


def _run_composition(plan, program, scenario: Scenario,
                     base_packet: SymPacketView, domain: TermDomain,
                     config) -> CompOutcome:
    chooser = domain.chooser
    packet = base_packet.copy()
    # The switch's tables and registers over terms, as the world enters them.
    switch = SwitchStateAdapter(
        {name: SymTable(name, spec.size, scenario.state, chooser)
         for name, spec in program.tables.items()},
        {name: SymRegister(name, spec.width_bits,
                           scenario.state.registers.get(name, const(0)))
         for name, spec in program.registers.items()},
    )
    server = SymStateStore(scenario.state, chooser)
    # The switch pipelines run with a bare ExternHost (no deployment
    # config); only the server's interpreter sees the config sections.
    switch_externs = SymExternHost(None, chooser)
    server_externs = SymExternHost(config, chooser)

    def ends(verdict: Optional[str], egress: Optional[Term]) -> CompOutcome:
        """A send, or else a drop (no verdict anywhere is one too)."""
        if verdict == "send":
            egress = _resolve_egress_sym(egress, scenario.ingress, chooser)
            return CompOutcome("send", egress, packet, server, switch)
        return CompOutcome("drop", None, packet, server, switch)

    # The switch runs the staged program the P4 prints, as the
    # interpreted switch does: its stage order, guards and bytes.
    verdict, egress, pre_env, _ = PipelineExecutor(
        program, "pre", switch, domain, switch_externs, lambda view: view,
    ).run(packet)
    if verdict is not None:
        return ends(verdict, egress)

    # Punt: shim to the server (encode ∘ decode wraps to field widths).
    # As on the switch, the reserved field joins the finished traversal's
    # environment; as on the server, what is left of the decoded fields
    # after it is the partition's environment.
    pre_env[INGRESS_PORT_FIELD] = const(scenario.ingress)
    env = _shim_pack(program.shim_to_server, pre_env)
    env.pop(INGRESS_PORT_FIELD, None)
    server.drain_journal()
    server_result = Interpreter(
        plan.non_offloaded, server, server_externs, domain
    ).run(packet, initial_env=env)
    # The deployment's own replication rule, over term-valued entries.
    updates = updates_from_journal(
        replicated_members(plan), server.drain_journal()
    )

    out_values = server_result.env
    out_values[VERDICT_FIELD] = const(verdict_flag(server_result.verdict))
    out_values[EGRESS_PORT_FIELD] = (
        server_result.egress_port
        if server_result.egress_port is not None else const(0)
    )
    out_values[INGRESS_PORT_FIELD] = const(scenario.ingress)
    values2 = _shim_pack(program.shim_to_switch, out_values)

    # Replication batch commits before the return leg (output commit).
    if updates:
        apply_updates(switch, updates)

    # What is left of the decoded fields after the three reserved ones is
    # the post pipeline's environment.
    flag = values2.pop(VERDICT_FIELD, const(0))
    values2.pop(INGRESS_PORT_FIELD, None)
    explicit_egress = values2.pop(EGRESS_PORT_FIELD, None)
    assert flag.is_const  # verdicts are path-concrete by construction
    if flag.value in (FLAG_VERDICT_DROP, FLAG_VERDICT_SEND):
        send = flag.value == FLAG_VERDICT_SEND
        return ends("send" if send else "drop", explicit_egress)

    # No server verdict: the post-processing pipeline decides.
    verdict, egress, _, _ = PipelineExecutor(
        program, "post", switch, domain, switch_externs, lambda view: view,
    ).run(packet, values2)
    return ends(verdict, egress)


def _entry_pairs(what: str, ours, theirs) -> Iterator[Tuple[str, Term, Term]]:
    """Key and value term pairs of two equally long entry lists (cell
    pairs of two vectors).  An entry no run touched is the scenario's own
    object on both sides and contributes nothing, so a comparison costs
    what the world wrote."""
    for index, (mine, yours) in enumerate(zip(ours, theirs)):
        if mine is yours:
            continue
        if isinstance(mine, Term):
            yield f"{what}[{index}]", mine, yours
            continue
        for position, (key, other) in enumerate(zip(mine[0], yours[0])):
            yield f"{what}[{index}].key{position}", key, other
        yield f"{what}[{index}].value", mine[1], yours[1]


def _first_unequal(pairs: Sequence[Tuple[str, Term, Term]],
                   kind: str) -> Optional[Mismatch]:
    """Compare term pairs; constant-fold equalities, return the first
    that is definitely or possibly unequal."""
    candidate: Optional[Mismatch] = None
    for label, lhs, rhs in pairs:
        if lhs is rhs:
            continue  # one term, whatever it evaluates to
        eq = binop(irin.BinOpKind.EQ, lhs, rhs)
        decided = truth(eq)
        if decided is True:
            continue
        if decided is False:
            return Mismatch(kind, f"{label}: {lhs!r} != {rhs!r}")
        if candidate is None:
            candidate = Mismatch(
                kind, f"{label}: {lhs!r} may differ from {rhs!r}",
                obligation=(lhs, rhs),
            )
    return candidate


def _compare_world(plan, source, src_packet: SymPacketView,
                   src_store: SymStateStore,
                   comp: CompOutcome, chooser: Chooser) -> Optional[Mismatch]:
    """Oracle-faithful comparison of the two symbolic runs."""
    src_verdict = "send" if source.verdict == "send" else "drop"
    if src_verdict != comp.verdict:
        return Mismatch(
            "verdict",
            f"source={src_verdict!r} composition={comp.verdict!r}",
        )
    if src_verdict == "send":
        src_egress = _resolve_egress_sym(
            source.egress_port, _ingress_of(src_packet), chooser,
        )
        mismatch = _first_unequal(
            [("egress port", src_egress, comp.egress)], "egress"
        )
        if mismatch is not None:
            return mismatch
        # Both views are copies of the scenario's one packet shape, so
        # views that hold the same terms read the same observed fields.
        if src_packet.fields != comp.packet.fields:
            field_pairs = []
            for region, name in OBSERVED_FIELDS:
                field_pairs.append((
                    f"{region}->{name}",
                    src_packet.get_field(region, name),
                    comp.packet.get_field(region, name),
                ))
            mismatch = _first_unequal(field_pairs, "field")
            if mismatch is not None:
                return mismatch

    # Final state, compared where the concrete oracle compares it: the
    # server sections of `kernel.end_state`, a register the switch holds
    # the authority for read from the switch; then every replicated
    # member's switch copy against the server's (`kernel.check_convergence`).
    owned = {
        p.member.name: comp.switch.registers[p.member.name].value
        for p in state_image.authoritative(plan)
    }
    for section in SERVER_SECTIONS:
        theirs = getattr(comp.server, section)
        mismatch = _copies_unequal("state", ("source", "composition"), [
            (section[:-1], name, value, owned.get(name, theirs[name]))
            for name, value in getattr(src_store, section).items()
        ])
        if mismatch is not None:
            return mismatch
    copies = []
    for placement in state_image.replicated(plan):
        name, kind = placement.member.name, placement.member.kind
        if kind == "scalar":
            copies.append(("replicated register", name,
                           comp.switch.registers[name].value,
                           comp.server.scalars[name]))
            continue
        server_copy = comp.server.maps[name] if kind == "map" else [
            ((const(index),), value)
            for index, value in enumerate(comp.server.vectors[name])
        ]
        copies.append(("replicated table", name,
                       comp.switch.tables[name].entries, server_copy))
    return _copies_unequal("switch_state", ("switch", "server"), copies)


def _copies_unequal(kind: str, sides: Tuple[str, str],
                    copies) -> Optional[Mismatch]:
    """Compare members' two copies, ``(what, name, ours, theirs)`` each:
    a term, a vector or an entry list.  Copies of unequal length differ
    outright; the rest are compared term by term."""
    pairs = []
    for what, name, ours, theirs in copies:
        if isinstance(ours, Term):
            pairs.append((f"{what} {name}", ours, theirs))
            continue
        if ours == theirs:
            continue  # the same terms, entry by entry (terms are interned)
        if len(ours) != len(theirs):
            return Mismatch(
                kind,
                f"{what} {name!r}: {sides[0]} has {len(ours)} entries,"
                f" {sides[1]} has {len(theirs)}",
            )
        pairs.extend(_entry_pairs(f"{what} {name}", ours, theirs))
    return _first_unequal(pairs, kind)


def _ingress_of(packet: SymPacketView) -> int:
    assert packet.ingress_port.is_const
    return packet.ingress_port.value


def _run_world(plan, program, scenario: Scenario, script: Tuple[bool, ...],
               config, budget: SymbolicBudget,
               merged: FrozenSet[str]) -> WorldResult:
    chooser = Chooser(scenario.key_tests, script, MAX_DECISIONS, merged)
    domain = TermDomain(chooser, MAX_STEPS)
    src_packet = scenario.packet.copy()
    src_store = SymStateStore(scenario.state, chooser)
    try:
        source = Interpreter(
            plan.middlebox.process, src_store,
            SymExternHost(config, chooser), domain,
        ).run(src_packet)
    except SymExecError as exc:
        # The *source program* fails on this path: the oracle would
        # classify the run as CRASH, not a compiler divergence.
        return WorldResult("source_error", chooser, detail=str(exc))
    try:
        comp = _run_composition(
            plan, program, scenario, scenario.packet, domain, config
        )
    except (CompositionViolation, DataPlaneViolation, SymExecError) as exc:
        # Only the composition fails: a deployment-side crash candidate.
        return WorldResult("composition", chooser, detail=str(exc))
    mismatch = _compare_world(
        plan, source, src_packet, src_store, comp, chooser
    )
    if mismatch is None:
        return WorldResult("ok", chooser)
    return WorldResult("mismatch", chooser, mismatch=mismatch)


# ---------------------------------------------------------------------------
# Witness search + interpreter replay
# ---------------------------------------------------------------------------


def _witness_candidates(scenario: Scenario, chooser: Chooser,
                        obligation: Optional[Tuple[Term, Term]],
                        budget: SymbolicBudget, rng: random.Random):
    """Yield concrete atom assignments satisfying the world's path
    condition (and the disequality, when one is required)."""
    terms = [term for term, _choice in chooser.conditions]
    if obligation is not None:
        terms.extend(obligation)
    atom_widths = atoms_of(terms)
    names = sorted(atom_widths)
    consts = constants_of(terms)

    pools: Dict[str, List[int]] = {}
    for name in names:
        mask = (1 << atom_widths[name]) - 1
        pool = {0, 1, mask}
        for value in consts:
            for probe in (value - 1, value, value + 1):
                pool.add(probe & mask)
        pools[name] = sorted(pool)

    def satisfies(assignment: Dict[str, int]) -> bool:
        memo: dict = {}
        for term, choice in chooser.conditions:
            if bool(evaluate(term, assignment, memo)) != choice:
                return False
        if obligation is not None:
            lhs, rhs = obligation
            return (evaluate(lhs, assignment, memo)
                    != evaluate(rhs, assignment, memo))
        return True

    total = 1
    for name in names:
        total *= len(pools[name])
    if total <= budget.witness_limit:
        for combo in itertools.product(*(pools[name] for name in names)):
            assignment = dict(zip(names, combo))
            if satisfies(assignment):
                yield assignment
    else:
        # Too many to try them all: first the one assignment the path
        # condition spells out, if it has one, then random draws.
        pinned = _pinned(chooser.conditions)
        if pinned:
            assignment = {name: pinned.get(name, 0) for name in names}
            if satisfies(assignment):
                yield assignment
        for _ in range(budget.random_tries):
            assignment = {
                name: (rng.choice(pools[name]) if rng.random() < 0.7
                       else rng.randrange(1 << atom_widths[name]))
                for name in names
            }
            if satisfies(assignment):
                yield assignment


def _pinned(conditions: Sequence[Tuple[Term, bool]]) -> Dict[str, int]:
    """Atom values a path condition fixes: each ``eq`` of an atom and a
    constant among the ``land`` conjuncts of a condition that holds (a
    key test that matched fixes every field it compares)."""
    pinned: Dict[str, int] = {}
    stack = [term for term, choice in conditions if choice]
    while stack:
        term = stack.pop()
        if term.op is irin.BinOpKind.LAND:
            stack.extend(term.args)
        elif term.op is irin.BinOpKind.EQ:
            lhs, rhs = term.args
            if lhs.kind == "atom" and rhs.is_const:
                pinned[lhs.name] = rhs.value
            elif rhs.kind == "atom" and lhs.is_const:
                pinned[rhs.name] = lhs.value
    return pinned


def _packet_spec(scenario: Scenario, assignment: Dict[str, int]) -> dict:
    fields = {}
    for name, (_region, _field, width) in sorted(scenario.atoms.items()):
        fields[name] = assignment.get(name, 0) & ((1 << width) - 1)
    return {
        "kind": scenario.kind,
        "ingress": scenario.ingress,
        "payload": scenario.payload.hex(),
        "fields": fields,
    }


def replay_counterexample(plan, program, config, prestate: dict,
                          spec: dict) -> Tuple[bool, str]:
    """Ground truth: replay one packet + pre-state through the real
    interpreter deployments — the differential oracle's one-packet,
    ``prestate=`` case; returns ``(diverged, detail)``."""
    from repro.difftest.oracle import Outcome, StreamSpec, check_artifacts

    result = check_artifacts(
        plan, program, StreamSpec(seed=0, packets=[spec]),
        provenance=False, config=config, prestate=prestate,
    )
    if result.outcome is Outcome.DIVERGE:
        return True, str(result.divergence)
    if result.outcome is Outcome.CRASH:
        # The baseline accepts this packet and pre-state but the
        # deployment cannot even run them: a real divergence of the
        # compiled artifact.
        return True, f"deployment crash: {_last_line(result.error)}"
    if result.outcome is Outcome.REFERENCE_CRASH:
        return False, f"baseline crash: {_last_line(result.error)}"
    return False, "replay agrees"


def _last_line(error: Optional[str]) -> str:
    """``Type: message`` of a guard's ``phase:\\n<traceback>`` text."""
    return (error or "?").rstrip().splitlines()[-1]


def _minimize_spec(plan, program, config, prestate: dict, spec: dict,
                   base_prestate: dict) -> Tuple[dict, dict]:
    """Greedy counterexample minimization against the concrete replay:
    prefer the post-configure pre-state and zero out every header field
    that is not needed to keep the divergence."""
    diverged, _ = replay_counterexample(
        plan, program, config, base_prestate, spec
    )
    if diverged:
        prestate = base_prestate
    fields = dict(spec["fields"])
    for name in sorted(fields):
        if fields[name] == 0:
            continue
        trial = dict(spec, fields=dict(fields, **{name: 0}))
        diverged, _ = replay_counterexample(
            plan, program, config, prestate, trial
        )
        if diverged:
            fields[name] = 0
    return dict(spec, fields=fields), prestate


# ---------------------------------------------------------------------------
# The prover
# ---------------------------------------------------------------------------


def verify_symbolic(
    plan,
    program,
    source: Optional[str] = None,
    config: Optional[Dict[int, list]] = None,
    budget: Optional[SymbolicBudget] = None,
    corpus_dir=None,
) -> SymbolicReport:
    """Prove one compilation equivalent, or disprove it with a confirmed
    counterexample.

    ``source`` (the middlebox source text) is only needed to append
    disproofs to the difftest corpus; ``corpus_dir`` overrides the
    corpus location (tests point it at a tmp dir).  Returns a
    :class:`SymbolicReport`; callers decide whether errors abort."""
    budget = budget or SymbolicBudget()
    report = SymbolicReport(program=plan.middlebox.name)
    rng = random.Random(BUDGET_SEED ^ 0xC0FFEE)
    started = time.perf_counter()
    bound = proof_bound(plan, config, budget)
    report.bound = bound.to_dict()
    report.scenarios = len(bound)

    entered = time.perf_counter()
    for scenario in bound.scenarios(plan):
        worlds, decisions = report.worlds, report.decisions
        # A map no function writes is one decision per lookup.  Should
        # any world of that pass be a suspect, the scenario is explored
        # again with every lookup split per entry, so witnesses, codes and
        # counterexamples are those of the per-entry rule.
        split = False
        if scenario.read_only:
            noted = len(report.inconclusive)
            split = _explore(plan, program, scenario, scenario.read_only,
                             config, budget, report, lambda world: True)
            if split:
                del report.inconclusive[noted:]
        if split or not scenario.read_only:
            _explore(
                plan, program, scenario, frozenset(), config, budget, report,
                lambda world: _handle_suspect(
                    plan, program, source, config, scenario, world,
                    budget, rng, report, corpus_dir, bound.prestates[0],
                ),
            )
        left = time.perf_counter()
        report.per_scenario.append({
            "label": scenario.label,
            "worlds": report.worlds - worlds,
            "decisions": report.decisions - decisions,
            "elapsed_s": round(left - entered, 4),
            "split": split,
        })
        entered = left
        if report.counterexamples:
            break  # first confirmed disproof ends the run

    report.elapsed_s = time.perf_counter() - started
    if report.inconclusive and not report.counterexamples:
        report.diagnostics.append(error(
            "SYM008", STAGE_SYMBOLIC,
            "equivalence inconclusive: "
            + "; ".join(report.inconclusive[:3])
            + (f" (+{len(report.inconclusive) - 3} more)"
               if len(report.inconclusive) > 3 else ""),
            function=plan.middlebox.process.name,
        ))
    return report


def _explore(plan, program, scenario: Scenario, merged: FrozenSet[str],
             config, budget: SymbolicBudget, report: SymbolicReport,
             suspect: Callable[[WorldResult], bool]) -> bool:
    """The script-DFS over the worlds of ``scenario``, lookups in
    ``merged`` one decision each.  Each world that is neither ok nor a
    source crash goes to ``suspect``, and when that returns True the
    exploration ends; returns whether it did."""
    pending: List[Tuple[bool, ...]] = [()]
    explored = 0
    while pending:
        if explored >= budget.max_worlds:
            report.inconclusive.append(
                f"{scenario.label}: world budget exhausted"
                f" ({budget.max_worlds} worlds,"
                f" {len(pending)} paths unexplored)"
            )
            return False
        script = pending.pop()
        explored += 1
        report.worlds += 1
        try:
            world = _run_world(
                plan, program, scenario, script, config, budget, merged
            )
        except BudgetExhausted as exc:
            report.inconclusive.append(f"{scenario.label}: {exc}")
            continue
        report.decisions += len(world.chooser.trace)
        for index in range(len(script), len(world.chooser.trace)):
            flipped = tuple(world.chooser.trace[:index]) + (
                not world.chooser.trace[index],
            )
            pending.append(flipped)
        if world.status == "ok":
            continue
        if world.status == "source_error":
            report.source_crash_worlds += 1
            continue
        if suspect(world):
            return True  # a confirmed disproof, or a merged pass to redo
    return False


def _handle_suspect(plan, program, source, config, scenario: Scenario,
                    world: WorldResult, budget: SymbolicBudget,
                    rng: random.Random, report: SymbolicReport,
                    corpus_dir, base_prestate: dict) -> bool:
    """Search a witness for one suspicious world, confirm it by replay,
    and record the resulting diagnostic.  Returns True when a confirmed
    counterexample was produced (the scenario can stop)."""
    if world.status == "composition":
        code = "SYM006"
        detail = f"composition violation: {world.detail}"
        obligation = None
    else:
        code = KIND_TO_CODE[world.mismatch.kind]
        detail = world.mismatch.detail
        obligation = world.mismatch.obligation

    attempts = 0
    unsound = 0
    for assignment in _witness_candidates(
            scenario, world.chooser, obligation, budget, rng):
        attempts += 1
        if attempts > CONFIRM_ATTEMPTS:
            break
        spec = _packet_spec(scenario, assignment)
        diverged, replay_detail = replay_counterexample(
            plan, program, config, scenario.prestate, spec
        )
        if not diverged:
            unsound += 1
            continue
        spec, prestate = _minimize_spec(
            plan, program, config, scenario.prestate, spec, base_prestate
        )
        counterexample = Counterexample(
            code=code, detail=detail, packet=spec, prestate=prestate,
            scenario=scenario.label, confirmed=True,
            replay_detail=replay_detail,
        )
        if source is not None:
            counterexample.corpus_path = _append_to_corpus(
                plan.middlebox.name, source, config, code, spec, prestate,
                replay_detail, corpus_dir,
            )
        report.counterexamples.append(counterexample)
        report.diagnostics.append(error(
            code, STAGE_SYMBOLIC,
            f"{detail} [scenario {scenario.label};"
            f" counterexample confirmed: {replay_detail}]",
            function=plan.middlebox.process.name,
        ))
        return True

    if unsound:
        # A symbolic mismatch whose witnesses all replay as equivalent:
        # the prover's path condition missed a constraint — a prover bug,
        # never silently swallowed.
        report.diagnostics.append(error(
            "SYM007", STAGE_SYMBOLIC,
            f"path-condition unsoundness: {detail} [scenario"
            f" {scenario.label}; {unsound} witnesses replayed equivalent]",
            function=plan.middlebox.process.name,
        ))
        return True
    # No witness at all: the path may simply be infeasible (case splits
    # are not mutually consistent by construction), but equivalence on
    # this world is then unproven — surface it as inconclusive.
    report.inconclusive.append(
        f"{scenario.label}: unwitnessed symbolic mismatch ({detail})"
    )
    return False


def _append_to_corpus(name: str, source: str, config, code: str, spec: dict,
                      prestate: dict, replay_detail: str,
                      corpus_dir) -> Optional[str]:
    from repro.difftest.corpus import (
        CORPUS_DIR,
        CorpusEntry,
        replay_entry,
        save_entry,
    )
    from repro.difftest.oracle import StreamSpec

    directory = corpus_dir if corpus_dir is not None else CORPUS_DIR
    entry = CorpusEntry(
        name=f"symbolic_{name}_{code.lower()}",
        source=source,
        stream=StreamSpec(seed=0, count=1, packets=[spec]),
        description=(
            f"translation-validation counterexample ({code}):"
            f" {replay_detail}"
        ),
        check_cached=False,
        config=({str(k): list(v) for k, v in config.items()}
                if config else None),
        prestate=serialize_prestate(prestate),
    )
    # The recorded expectation is whatever a fresh compile of the *source*
    # does on this packet: a compiler-bug disproof replays DIVERGE, while
    # a disproof of a mutated artifact pins AGREE on the clean compile.
    entry.expect = replay_entry(entry).outcome.value
    try:
        return str(save_entry(entry, directory))
    except OSError:
        return None
