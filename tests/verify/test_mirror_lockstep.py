"""Every symbolic mirror runs in lockstep with its concrete twin.

The prover shares with the runtime whatever never looks at a value (the
decoded evaluator, the staged switch and its data-plane access rules,
the replication rule, bit widths).  What does — the term algebra and its intervals,
``SymStateStore`` / ``SymTable`` / ``SymRegister``, ``SymPacketView``,
``SymExternHost``, ``apply_updates``, the shim wrap, the egress rule — is
a mirror of a concrete twin, and ``engine.py`` says a divergence between
the two is a soundness hole.  This file is what holds them together.

The probe is concolic.  For one concrete packet and pre-state the same
function runs twice: concretely, and symbolically with every header field
an atom and a chooser whose fresh decisions follow the concrete packet
(a decision the *interval* implies against the concrete truth is itself a
failure).  Every term the symbolic run produced is then evaluated under
the packet's assignment and must equal what the twin computed:

* **source side** — ``Interpreter.run`` over ``TermDomain`` against
  ``Interpreter.run`` over ints on the lowered ``process``: verdict,
  egress port, step count, the whole ``env``, the journal, maps / vectors
  / scalars, the view's verdict, every ``OBSERVED_FIELDS`` value — or the
  same error text;
* **composition side** — ``prover._run_composition`` against one
  ``GalliumMiddlebox.process_packet``: verdict, resolved egress port,
  emitted header fields, server state, switch tables and registers;
* **merged lookup** — on both sides, each lookup in a map no function
  writes (``Chooser.lookup``: one decision, a first-match ``ite`` chain)
  as ``(found, value)`` against ``StateStore.map_find`` on the server and
  ``ExactMatchTable.lookup`` on the switch.

Tier-1 runs 100 generated programs (source side; the 40 the prover pins
compile, composition side too) on their 25-packet ``StreamSpec`` and the
six bundled middleboxes on an iperf stream; the wide slice is
``python -m tests.verify.test_mirror_lockstep --wide`` (200, both sides).
Two seeded mirror bugs must make it fail, and two more the merged
lookup's row: a chain that ignores its tests, and a merge of a map some
function writes.

The generator never names ``eth.*``, ``ip.version``, ``ip.ihl`` or
``tcp.doff``, so none of the above reaches them.  The last section takes
the three packet views — ``PacketView``, the accessors ``FunctionEmitter``
generates, ``SymPacketView`` over constants — through every row of the
field table (``repro.net.fields``) instead: a store of an in-range and an
over-wide value and a load of every field, on a TCP, a UDP and a non-IP
packet.
"""

from __future__ import annotations

import copy
import sys
from functools import lru_cache, partial
from typing import Callable, Dict, List, Optional, Tuple

import pytest

from repro.difftest.generator import generate_program
from repro.difftest.kernel import (
    OBSERVED_FIELDS,
    STREAM_SALT,
    derive_seeds,
    observe,
)
from repro.difftest.oracle import StreamSpec
from repro.ir import instructions as irin
from repro.ir import lower_program
from repro.ir.builder import FunctionBuilder
from repro.ir.compile import compile_function
from repro.ir.externs import ExternHost
from repro.ir.interp import (
    IntDomain,
    Interpreter,
    InterpreterError,
    PacketView,
    StateStore,
)
from repro.ir.values import Reg
from repro.lang import parse_program
from repro.lang.types import UINT64, bit_width_of
from repro.middleboxes import MIDDLEBOX_NAMES, load
from repro.net.headers import ETHERTYPE_ARP, EthernetHeader
from repro.net.packet import RawPacket
from repro.net.fields import FIELDS
from repro.runtime.deployment import GalliumMiddlebox, compile_middlebox
from repro.switchsim.control_plane import UpdateBatchError
from repro.switchsim.pipeline import DataPlaneViolation
from repro.verify.symbolic import engine, prover, terms
from repro.verify.symbolic.engine import (
    Chooser,
    CompositionViolation,
    KeyTests,
    SymExecError,
    SymExternHost,
    SymPacketView,
    SymStateStore,
    TermDomain,
)
from repro.verify.symbolic.terms import Term, const, evaluate, truth
from repro.workloads.iperf import IperfWorkload, middlebox_stream
from repro.workloads.packets import make_tcp_packet, make_udp_packet
from tests.verify.prover_pins import PIN_SEED, compiled_generated

Packets = List[Tuple[object, int]]

NARROW, WIDE = 100, 200
PACKETS = 25
IPERF = IperfWorkload(connections=4, packets_per_connection=6, packet_size=96)


class Disagreement(AssertionError):
    """A mirror and its twin computed different things."""


class Counts:
    def __init__(self) -> None:
        self.programs = self.packets = self.forced = 0
        #: ``(member, found)`` of every merged lookup held to its twin
        self.merged: List[Tuple[str, bool]] = []

    def __str__(self) -> str:
        return (f"{self.programs} programs, {self.packets} packets,"
                f" {self.forced} decisions forced,"
                f" {len(self.merged)} merged lookups")


class ConcolicChooser(Chooser):
    """Decides every undecided term the way the concrete packet does —
    each test of a table scan too, so a scan stops where the twin's
    lookup finds its key, and a merged lookup's one test of all of them.
    Each merged lookup is kept, ``(entries, keys, found, value)``."""

    def __init__(self, assignment: Dict[str, int],
                 merged: frozenset = frozenset()):
        super().__init__(KeyTests(), merged=merged)
        self.assignment = assignment
        self._memo: dict = {}
        self.lookups: List[tuple] = []

    def lookup(self, entries, keys):
        found, value = super().lookup(entries, keys)
        self.lookups.append((entries, keys, found, value))
        return found, value

    def value(self, term: Optional[Term]) -> Optional[int]:
        return None if term is None else evaluate(
            term, self.assignment, self._memo
        )

    def values(self, keys) -> tuple:
        return tuple(self.value(key) for key in keys)

    def _first(self, tests) -> Optional[int]:
        for position, term in enumerate(tests):
            if self._concrete_truth(term):
                return position
        return None

    def _concrete_truth(self, term: Term) -> bool:
        concrete = bool(self.value(term))
        implied = truth(term)
        if implied is None:
            self.trace.append(concrete)
            return concrete
        if implied != concrete:
            raise Disagreement(
                f"interval [{term.lo}, {term.hi}] of {term!r} implies"
                f" {implied}, the packet makes it {concrete}"
            )
        return implied


def symbolic_world(packet, ingress: int, prestate: dict, members,
                   switch_prestate: dict, merged: frozenset = frozenset()):
    """The prover's scenario, view and chooser for one concrete packet:
    atoms where the prover has atoms, this packet's values elsewhere, and
    the switch holding what its twin holds (not what a fresh install of
    ``prestate`` would give it).  Lookups in ``merged`` are merged."""
    kind = "udp" if packet.udp is not None else "tcp"
    scenario = prover.Scenario(
        "lockstep", kind, ingress, packet.payload,
        engine.SymPrestate(members, prestate, on_switch=()),
        prover.make_symbolic_packet(kind, packet.payload, ingress),
        KeyTests(), merged,
    )
    scenario.state.tables = {
        name: engine._entries(entries)
        for name, entries in switch_prestate.get("tables", {}).items()
    }
    scenario.state.registers = {
        name: const(value)
        for name, value in switch_prestate.get("registers", {}).items()
    }
    view = scenario.packet.copy()
    concrete = PacketView(packet)
    for key, term in view.fields.items():
        if term.is_const:
            view.fields[key] = const(concrete.get_field(*key))
    chooser = ConcolicChooser({
        name: concrete.get_field(region, field)
        for name, (region, field, _width) in scenario.atoms.items()
    }, merged)
    return scenario, view, chooser


def attempt(run: Callable, errors: tuple):
    """``(result, None)`` or ``(None, error text)``."""
    try:
        return run(), None
    except errors as exc:
        return None, str(exc)


def require_equal(what: str, symbolic, concrete) -> None:
    if symbolic != concrete:
        raise Disagreement(f"{what}: mirror {symbolic!r}, twin {concrete!r}")


def entries_as_map(what: str, entries, chooser: ConcolicChooser) -> dict:
    """An ordered symbolic entry list as the dict its twin keeps."""
    table = {
        chooser.values(keys): chooser.value(value) for keys, value in entries
    }
    require_equal(f"{what} distinct keys", len(table), len(entries))
    return table


def require_same_store(store: SymStateStore, state: StateStore,
                       chooser: ConcolicChooser) -> None:
    for name, entries in store.maps.items():
        require_equal(f"map {name}",
                      entries_as_map(f"map {name}", entries, chooser),
                      state.maps[name])
    for name, vector in store.vectors.items():
        require_equal(f"vector {name}", list(chooser.values(vector)),
                      state.vectors[name])
    for name, value in store.scalars.items():
        require_equal(f"scalar {name}", chooser.value(value),
                      state.scalars[name])


def require_merged_twins(chooser: ConcolicChooser, twins: list,
                         counts: Counts) -> None:
    """Each merged lookup of the run, ``(found, value)`` under the
    packet's assignment, against its twin on the same concrete key.
    ``twins`` holds ``(member, entry tuple, the twin's lookup)``: a lookup
    answers for the member(s) whose tuple it read (an empty tuple is one
    object, so it may be several)."""
    for entries, keys, found, value in chooser.lookups:
        answered = [
            (member, twin) for member, held, twin in twins if held is entries
        ]
        assert answered, f"a merged lookup of no member: {keys!r}"
        for member, twin in answered:
            require_equal(f"merged lookup {member}",
                          (found, chooser.value(value)),
                          twin(chooser.values(keys)))
        counts.merged.append((answered[0][0], found))


def store_twins(store: StateStore, prestate: engine.SymPrestate,
                merged: frozenset) -> list:
    """``StateStore.map_find`` as the twin of each merged server map."""
    return [(name, prestate.maps[name], partial(store.map_find, name))
            for name in merged]


def fields_of(view, value=lambda field: field) -> dict:
    return {
        f"{region}->{name}": value(view.get_field(region, name))
        for region, name in OBSERVED_FIELDS
    }


# ---------------------------------------------------------------------------
# Source side: the evaluator over terms against the evaluator over ints
# ---------------------------------------------------------------------------


def source_lockstep(lowered, config, packets: Packets, counts: Counts,
                    seed: Optional[dict] = None) -> None:
    """``seed`` (map -> entries) joins the post-configure state."""
    merged = engine.read_only_maps(lowered.state, [lowered.process])
    state = StateStore(lowered.state)
    externs = ExternHost(config=config)
    if lowered.configure is not None:
        Interpreter(lowered.configure, state, externs).run()
    state.drain_journal()
    for name, entries in (seed or {}).items():
        state.maps[name].update(entries)
    counts.programs += 1
    for packet, ingress in packets:
        packet = packet.copy()
        packet.ingress_port = ingress
        scenario, sym_view, chooser = symbolic_world(
            packet, ingress, state.snapshot(), lowered.state, {}, merged
        )
        store = SymStateStore(scenario.state, chooser)
        mirror, mirror_error = attempt(
            lambda: Interpreter(
                lowered.process, store, SymExternHost(config, chooser),
                TermDomain(chooser, IntDomain.max_steps),
            ).run(sym_view),
            (SymExecError,),
        )
        view = PacketView(packet)
        twin, twin_error = attempt(
            lambda: Interpreter(lowered.process, state, externs).run(view),
            (InterpreterError,),
        )
        counts.packets += 1
        counts.forced += len(chooser.trace)
        require_equal("error", mirror_error, twin_error)
        require_merged_twins(
            chooser, store_twins(state, scenario.state, merged), counts
        )
        journal = state.drain_journal()
        if twin is None:
            continue
        require_equal("verdict", mirror.verdict, twin.verdict)
        require_equal("egress port", chooser.value(mirror.egress_port),
                      twin.egress_port)
        require_equal("step count", mirror.instructions_executed,
                      twin.instructions_executed)
        require_equal(
            "env", {k: chooser.value(v) for k, v in mirror.env.items()},
            twin.env,
        )
        require_equal("journal", [
            (op, member, chooser.values(keys), chooser.value(value))
            for op, member, keys, value in store.journal
        ], journal)
        require_same_store(store, state, chooser)
        require_equal(
            "view verdict",
            (sym_view.verdict, chooser.value(sym_view.egress_port)),
            (view.verdict, view.egress_port),
        )
        require_equal("fields", fields_of(sym_view, chooser.value),
                      fields_of(view))


# ---------------------------------------------------------------------------
# Composition side: _run_composition against one deployed packet
# ---------------------------------------------------------------------------


def switch_lookup(table, keys: tuple) -> Tuple[bool, int]:
    """``ExactMatchTable.lookup`` on a copy: the twin's hit counters are
    the deployment's, not this probe's."""
    return copy.copy(table).lookup(keys)


def switch_state(box: GalliumMiddlebox) -> dict:
    return {
        "tables": {n: t.snapshot() for n, t in box.switch.tables.items()},
        "registers": {n: r.value for n, r in box.switch.registers.items()},
    }


def composition_lockstep(plan, program, config, packets: Packets,
                         counts: Counts, seed: Optional[dict] = None) -> None:
    box = GalliumMiddlebox(plan, program, config=config)
    box.install()
    if seed:
        for name, entries in seed.items():
            box.state.maps[name].update(entries)
        box.sync_all_state()
    # The prover's derivation of the switch pre-state is install()'s,
    # out of the server's own entries where a table mirrors a map.
    members = plan.middlebox.state
    derived = engine.SymPrestate(members, box.state.snapshot(), [
        name for name, placement in plan.placements.items()
        if placement.on_switch
    ])
    require_equal("switch pre-state", {
        "tables": {name: {tuple(key.value for key in keys): value.value
                          for keys, value in entries}
                   for name, entries in derived.tables.items()},
        "registers": {name: term.value
                      for name, term in derived.registers.items()},
    }, switch_state(box))
    for name, entries in derived.tables.items():
        if members[name].kind == "map":
            assert entries is derived.maps[name], name
    # What a proof of the plan merges (``prover.Bound.scenarios``).
    merged = engine.read_only_maps(members, [
        plan.middlebox.process, plan.pre, plan.non_offloaded, plan.post,
    ])
    counts.programs += 1
    for packet, ingress in packets:
        scenario, sym_view, chooser = symbolic_world(
            packet, ingress, box.state.snapshot(), members, switch_state(box),
            merged,
        )
        twins = store_twins(box.state, scenario.state, merged) + [
            (f"{name} (switch)", scenario.state.tables[name],
             partial(switch_lookup, box.switch.tables[name]))
            for name in merged if name in scenario.state.tables
        ]
        mirror, mirror_error = attempt(
            lambda: prover._run_composition(
                plan, program, scenario, sym_view,
                TermDomain(chooser, IntDomain.max_steps), config,
            ),
            (CompositionViolation, DataPlaneViolation, SymExecError),
        )
        journey, twin_error = attempt(
            lambda: box.process_packet(packet.copy(), ingress),
            (DataPlaneViolation, InterpreterError, UpdateBatchError),
        )
        counts.packets += 1
        counts.forced += len(chooser.trace)
        require_equal("crashes", mirror is None, journey is None)
        require_merged_twins(chooser, twins, counts)
        if journey is None:
            if not isinstance(twin_error, UpdateBatchError):
                require_equal("error", mirror_error, twin_error)
            return  # the deployment is no longer in a state to compare
        want = observe(journey.verdict, journey.emitted)
        require_equal("verdict", mirror.verdict, want[0])
        if mirror.verdict == "send":
            require_equal("egress port", chooser.value(mirror.egress), want[1])
            require_equal("fields", fields_of(mirror.packet, chooser.value),
                          want[2])
        require_same_store(mirror.server, box.state, chooser)
        after = switch_state(box)
        for name, table in mirror.switch.tables.items():
            require_equal(
                f"switch table {name}",
                entries_as_map(f"switch table {name}", table.entries, chooser),
                after["tables"][name],
            )
        require_equal("switch registers", {
            name: chooser.value(register.value)
            for name, register in mirror.switch.registers.items()
        }, after["registers"])


# ---------------------------------------------------------------------------
# What runs
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def generated(index: int):
    """``(lowered, packets)`` of generated program ``index`` (the prover
    pins' numbering and the gauntlet's stream for it); neither is written
    to, every run copies the packet it sends."""
    program_seed, _ = derive_seeds(PIN_SEED, index)
    lowered = lower_program(parse_program(
        generate_program(program_seed).source()
    ))
    stream = StreamSpec(seed=program_seed ^ STREAM_SALT, count=PACKETS)
    return lowered, stream.build()


def run_source_side(programs: range) -> Counts:
    counts = Counts()
    for index in programs:
        lowered, packets = generated(index)
        try:
            source_lockstep(lowered, None, packets, counts)
        except Disagreement as exc:
            raise Disagreement(f"gen{index:03d}: {exc}") from None
    return counts


def run_composition_side(programs: range) -> Counts:
    counts = Counts()
    for index in programs:
        compiled = compiled_generated(index)
        if isinstance(compiled, str):
            continue  # refused by the compiler: nothing was deployed
        try:
            composition_lockstep(*compiled, None, generated(index)[1], counts)
        except Disagreement as exc:
            raise Disagreement(f"gen{index:03d}: {exc}") from None
    return counts


def run_bundled() -> Tuple[Counts, Counts]:
    source, composition = Counts(), Counts()
    for name in MIDDLEBOX_NAMES:
        middlebox = load(name)
        packets = list(middlebox_stream(name, IPERF))
        try:
            source_lockstep(middlebox.lowered, middlebox.config, packets,
                            source)
            composition_lockstep(*compile_middlebox(middlebox.source),
                                 middlebox.config, packets, composition)
        except Disagreement as exc:
            raise Disagreement(f"{name}: {exc}") from None
    return source, composition


@pytest.fixture
def report(request, capsys):
    """Print a line under ``-v`` (the counts EXPERIMENTS.md records)."""
    def line(text: str) -> None:
        if request.config.getoption("verbose") > 0:
            with capsys.disabled():
                print(f"\n    {text}", end="")
    return line


def test_source_side_on_generated_programs(report):
    counts = run_source_side(range(NARROW))
    assert counts.packets == NARROW * PACKETS and counts.forced > 2_500
    report(f"source side, generated: {counts}")


def test_composition_side_on_generated_programs(report):
    counts = run_composition_side(range(40))
    assert counts.programs >= 30 and counts.forced > 500
    report(f"composition side, generated: {counts}")


def test_both_sides_on_the_bundled_middleboxes(report):
    source, composition = run_bundled()
    assert source.programs == composition.programs == len(MIDDLEBOX_NAMES)
    assert source.packets == composition.packets
    report(f"source side, bundled: {source}")
    report(f"composition side, bundled: {composition}")


# -- the merged lookup, hit and missed -------------------------------------------


def flipped(packet, ports_only: bool = False):
    """``packet`` with its ports swapped (and its addresses, unless
    ``ports_only``): the answer of a flow, or a flow nobody allowed."""
    packet = packet.copy()
    view = PacketView(packet)
    pairs = [("tcp", "sport", "dport")]
    if not ports_only:
        pairs.append(("ip", "saddr", "daddr"))
    for region, one, other in pairs:
        first, second = view.get_field(region, one), view.get_field(
            region, other)
        view.set_field(region, one, second)
        view.set_field(region, other, first)
    return packet


def half_seeded(lowered, config, packets: Packets) -> dict:
    """Entries for ``lowered``'s read-only maps: every other key its
    ``process`` looks up on ``packets`` (as many as the map's
    ``max_entries`` leaves room for), so a stream both hits and misses a
    map that nothing fills."""
    merged = engine.read_only_maps(lowered.state, [lowered.process])
    state = StateStore(lowered.state)
    externs = ExternHost(config=config)
    if lowered.configure is not None:
        Interpreter(lowered.configure, state, externs).run()
    state.track_reads = True
    for packet, ingress in packets:
        packet = packet.copy()
        packet.ingress_port = ingress
        try:
            Interpreter(lowered.process, state, externs).run(
                PacketView(packet))
        except InterpreterError:
            pass
    keys = sorted({(name, keys) for name, keys, _found, _value
                   in state.read_log if name in merged})
    seed: Dict[str, dict] = {}
    for number, (name, key) in enumerate(keys[::2]):
        member = lowered.state[name]
        entries = seed.setdefault(name, {})
        room = member.max_entries
        if room is not None and len(state.maps[name]) + len(entries) >= room:
            continue
        mask = (1 << bit_width_of(member.value_type(), 32)) - 1
        entries[key] = (0x5A5A + 97 * number) & mask
    return seed


def run_merged(source_side: range = range(NARROW),
               composition_side: range = range(40)
               ) -> Tuple[Counts, Counts, int]:
    """Each lookup in a map no function writes, against its twins:
    firewall's two whitelists (the stream, its answers on port 2, and
    flows neither allows), proxy's port set, and every generated program
    of the two slices with a read-only map, seeded with every other key
    its stream looks up.  The source and composition counts, and how many
    generated programs ran."""
    source, composition = Counts(), Counts()
    for name in ("firewall", "proxy"):
        middlebox = load(name)
        stream = list(middlebox_stream(name, IPERF))
        packets = stream + [(flipped(packet), 2) for packet, _ in stream]
        packets += [(flipped(packet, ports_only=True), ingress)
                    for packet, ingress in packets]
        try:
            source_lockstep(middlebox.lowered, middlebox.config, packets,
                            source)
            composition_lockstep(*compile_middlebox(middlebox.source),
                                 middlebox.config, packets, composition)
        except Disagreement as exc:
            raise Disagreement(f"{name}: {exc}") from None
    seeded = 0
    for index in source_side:
        lowered, packets = generated(index)
        if not engine.read_only_maps(lowered.state, [lowered.process]):
            continue
        seed = half_seeded(lowered, None, packets)
        compiled = (compiled_generated(index) if index in composition_side
                    else "not swept")
        try:
            source_lockstep(lowered, None, packets, source, seed)
            if not isinstance(compiled, str):
                composition_lockstep(*compiled, None, packets, composition,
                                     seed)
        except Disagreement as exc:
            raise Disagreement(f"gen{index:03d}: {exc}") from None
        seeded += 1
    return source, composition, seeded


def test_a_merged_lookup_answers_as_its_twins(report):
    source, composition, seeded = run_merged()
    for member in ("wl_out", "wl_in", "proxy_ports"):
        assert {(member, True), (member, False)} <= set(source.merged)
        switch = f"{member} (switch)"
        assert {(switch, True), (switch, False)} <= set(composition.merged)
    generated_hits = [member for member, found
                      in source.merged + composition.merged
                      if found and member.startswith("m")]
    assert seeded >= 20 and len(generated_hits) > 100
    report(f"merged lookups, source side: {source}")
    report(f"merged lookups, composition side: {composition}")


def test_a_chain_that_ignores_its_tests_is_caught(monkeypatch):
    """A hit that returns the last entry's value, whichever matched."""
    monkeypatch.setattr(engine, "ite", lambda cond, then, other: other)
    with pytest.raises(Disagreement, match="merged lookup"):
        run_merged()


def test_merging_a_written_map_is_caught(monkeypatch):
    """Merge every map, written or not: a lookup after an insert or an
    erase then reads the entries the run started from."""
    every_map = lambda members, functions: frozenset(  # noqa: E731
        name for name, member in members.items() if member.kind == "map"
    )
    monkeypatch.setattr(engine, "read_only_maps", every_map)
    monkeypatch.setattr(prover, "read_only_maps", every_map)
    with pytest.raises(Disagreement):
        run_source_side(range(NARROW))
    with pytest.raises(Disagreement):
        run_bundled()


# -- the probe can fail -----------------------------------------------------------


def test_a_wrong_sub_interval_is_caught(monkeypatch):
    """``hi - hi`` for the upper bound of a difference: the folded wraps
    and interval-decided branches it causes must surface."""
    real = terms._mk_op

    def wrong(op, args, lo, hi, value=None):
        if op is irin.BinOpKind.SUB:
            lo, hi = args[0].lo - args[1].lo, args[0].hi - args[1].hi
        return real(op, args, lo, hi, value)

    monkeypatch.setattr(terms, "_mk_op", wrong)
    with pytest.raises(Disagreement):
        run_source_side(range(NARROW))


def test_a_narrow_address_mask_is_caught(monkeypatch):
    """``SymPacketView.set_field`` masking addresses to 16 bits."""
    real = SymPacketView.set_field

    def narrow(self, region, field_name, value):
        real(self, region, field_name, value)
        if field_name in ("saddr", "daddr"):
            key = self._keys[region, field_name]
            self.fields[key] = engine.wrap(self.fields[key], 0xFFFF)

    monkeypatch.setattr(SymPacketView, "set_field", narrow)
    with pytest.raises(Disagreement):
        run_source_side(range(NARROW))
    with pytest.raises(Disagreement):
        run_composition_side(range(40))


# ---------------------------------------------------------------------------
# Every row of the field table through all three packet views
# ---------------------------------------------------------------------------

SHAPES = {
    "tcp": lambda: make_tcp_packet("10.0.0.1", "10.9.0.1", 1111, 2222),
    "udp": lambda: make_udp_packet("10.0.0.1", "10.9.0.1", 3333, 4444),
    "non-ip": lambda: RawPacket(EthernetHeader(ethertype=ETHERTYPE_ARP)),
}


def field_probe(store=None, load=None):
    """``store`` (a ``(region, field)``) written from ``%v``, then ``load``
    — or, without one, every row of the table — read into a register
    wide enough to wrap nothing."""
    builder = FunctionBuilder("probe")
    if store is not None:
        builder.emit(irin.StorePacketField(*store, Reg("v", UINT64)))
    for region, name in [load] if load else [row.key for row in FIELDS]:
        builder.emit(irin.LoadPacketField(
            Reg(f"{region}.{name}", UINT64), region, name
        ))
    builder.emit(irin.Return())
    return builder.function


def constant_view(packet) -> SymPacketView:
    """The prover's view of exactly ``packet``: every field a constant."""
    concrete = PacketView(packet)
    return SymPacketView(
        {
            row.key: const(concrete.get_field(*row.key)) for row in FIELDS
            if row.region != "meta" and getattr(packet, row.region) is not None
        },
        has_ip=packet.ip is not None, has_tcp=packet.tcp is not None,
        has_udp=packet.udp is not None, payload=packet.payload,
        ingress_port=const(packet.ingress_port),
    )


def through_all_three_views(function, packet, value: int = 0):
    """``(env, None)`` or ``(None, error text)`` of ``function`` with
    ``%v = value`` on ``packet`` — from the interpreter over
    ``PacketView``, demanded equal from the generated code and from the
    evaluator over ``SymPacketView``."""
    chooser = Chooser(KeyTests())
    twin = attempt(
        lambda: Interpreter(function, StateStore({})).run(
            PacketView(packet.copy()), {"v": value}
        ).env,
        (InterpreterError,),
    )
    generated = attempt(
        lambda: compile_function(function).run(
            StateStore({}), packet=PacketView(packet.copy()),
            initial_env={"v": value},
        ).env,
        (InterpreterError,),
    )
    mirror = attempt(
        lambda: {
            name: evaluate(term, {})
            for name, term in Interpreter(
                function,
                SymStateStore(engine.SymPrestate({}, {}, ()), chooser),
                SymExternHost(None, chooser),
                TermDomain(chooser, IntDomain.max_steps),
            ).run(constant_view(packet), {"v": const(value)}).env.items()
        },
        (SymExecError,),
    )
    require_equal("generated accessor", generated, twin)
    require_equal("symbolic view", mirror, twin)
    return twin


def holder(row, packet) -> Optional[str]:
    """The header of ``packet`` that holds ``row``'s field, if any
    (``meta`` is not one)."""
    return next((
        region for region in (row.region, row.alias)
        if region and getattr(packet, region, None) is not None
    ), None)


@pytest.mark.parametrize(
    "row", [row for row in FIELDS if row.region != "meta"],
    ids=lambda row: f"{row.region}.{row.name}",
)
def test_every_field_through_all_three_views(row):
    read_all = field_probe()
    for shape, make in SHAPES.items():
        packet = make()
        before, error = through_all_three_views(read_all, packet)
        assert error is None
        held_by = holder(row, packet)
        if held_by is None:
            assert before[f"{row.region}.{row.name}"] == 0, shape
        for value in (row.mask >> 1, row.mask + 2):  # in range, over-wide
            after, error = through_all_three_views(
                field_probe(store=row.key), packet, value
            )
            assert error is None
            # Read back from every name the bytes go by (``tcp->sport``
            # of a UDP packet is its ``udp->sport``), masked where the
            # row says so; nothing else moved, and nothing at all when
            # the packet has no such header.
            kept = value & row.mask if row.masked else value
            want = {"v": value, **{
                f"{other.region}.{other.name}": kept
                if held_by and (holder(other, packet), other.name)
                == (held_by, row.name)
                else before[f"{other.region}.{other.name}"]
                for other in FIELDS
            }}
            assert after == want, (shape, value)


def test_no_view_knows_a_field_the_table_does_not_have():
    """One error text, whichever view is asked — also for a store to
    ``meta``, which is readable only."""
    packet = SHAPES["tcp"]()
    for store, load in [
        (None, ("ip", "nope")), (("ip", "nope"), None),
        (None, ("eth", "nope")), (("eth", "nope"), None),
        (None, ("meta", "nope")), (("meta", "ingress_port"), None),
        (None, ("payload", "byte")), (("payload", "byte"), None),
    ]:
        env, error = through_all_three_views(
            field_probe(store, load or ("ip", "ttl")), packet
        )
        region, name = store or load
        assert env is None and error.startswith("unknown ")
        assert region in error and name in error


def main(argv: List[str]) -> int:
    programs = range(WIDE if "--wide" in argv else NARROW)
    print(f"source side, generated: {run_source_side(programs)}")
    print(f"composition side, generated: {run_composition_side(programs)}")
    source, composition = run_bundled()
    print(f"source side, bundled: {source}")
    print(f"composition side, bundled: {composition}")
    source, composition, seeded = run_merged(programs, programs)
    print(f"merged lookups, {seeded} seeded generated programs and"
          f" firewall, proxy: source side {source};"
          f" composition side {composition}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
