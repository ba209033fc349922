"""What a proof builds once, every world of it may read and none may
change — and a proof pays per decision, not per stored entry.

The prover keeps each pre-state in term form once per proof, shared by
the scenarios that start from it, and a scenario's base packet once, and
starts each world from a pointer copy (``engine.SymPrestate``,
``prover.Scenario``).  That is sound only while no world writes to what
it was handed; the pins show most leaks as moved worlds, this file names
every one.  The second half is the reason the sharing exists, as a count:
a table scan, however long, is one call to the chooser; a lookup in a map
no function writes is one decision, whose ``ite`` chain is built once per
proof; and the terms the six proofs construct do not grow.
"""

import json
from unittest import mock

import pytest

from repro.middleboxes import MIDDLEBOX_NAMES, load
from repro.runtime.deployment import compile_middlebox
from repro.verify.symbolic import engine, prover, terms, verify_symbolic
from repro.verify.symbolic.engine import Chooser, SymStateStore, SymTable
from tests.verify import prover_pins

#: the bundled middleboxes whose ``process`` inserts and erases
WRITERS = ["trojan", "mazunat", "lb"]


def shared_terms(scenario: prover.Scenario) -> tuple:
    """Everything the worlds of ``scenario`` share, copied out (terms are
    interned, so comparing the copies compares structure)."""
    state = scenario.state
    return (
        {name: list(table) for name, table in state.maps.items()},
        {name: list(vector) for name, vector in state.vectors.items()},
        dict(state.scalars),
        {name: list(table) for name, table in state.tables.items()},
        dict(state.registers),
        dict(scenario.packet.fields),
        (scenario.packet.verdict, scenario.packet.egress_port),
    )


def prove_watching_the_shared_terms(name: str):
    """``verify_symbolic`` on bundled ``name``; after every world its
    scenario must still hold what it held before its first."""
    middlebox = load(name)
    plan, program = compile_middlebox(middlebox.source)
    before = {}
    run_world = prover._run_world

    def watched(plan, program, scenario, *rest):
        before.setdefault(scenario.label, shared_terms(scenario))
        try:
            return run_world(plan, program, scenario, *rest)
        finally:
            assert shared_terms(scenario) == before[scenario.label], (
                f"{name} {scenario.label}: a world wrote to what its"
                " scenario shares"
            )

    with mock.patch.object(prover, "_run_world", watched):
        report = verify_symbolic(plan, program, config=middlebox.config)
    assert len(before) == report.scenarios
    return report


@pytest.mark.parametrize("name", WRITERS)
def test_no_world_changes_what_its_scenario_shares(name):
    assert prove_watching_the_shared_terms(name).proved


@pytest.fixture
def aliasing_store(monkeypatch):
    """The seeded bug: a store that takes the scenario's entry lists as
    its own instead of copying them."""
    real = SymStateStore.__init__

    def aliasing(self, prestate, chooser):
        real(self, prestate, chooser)
        for name in self.maps:
            if not isinstance(prestate.maps[name], list):
                prestate.maps[name] = list(prestate.maps[name])
            self.maps[name] = prestate.maps[name]

    monkeypatch.setattr(SymStateStore, "__init__", aliasing)


@pytest.mark.parametrize("name", WRITERS)
def test_an_aliasing_store_is_caught(name, aliasing_store):
    with pytest.raises(AssertionError, match="a world wrote"):
        prove_watching_the_shared_terms(name)


def test_an_aliasing_store_moves_the_pins(aliasing_store):
    """... of all three.  ``mazunat``'s once held: a mapping leaked from an
    earlier world is found by a key test that folds to true (the key is
    the same term), at no decision, and both sides of the comparison alias
    the one list.  Since a pre-state's term form is the proof's, the leak
    also reaches the scenarios after it, and its pins move too."""
    recorded = json.loads(prover_pins.GOLDEN.read_text())["narrow"]["bundled"]
    moved = []
    for name in WRITERS:
        middlebox = load(name)
        pin = prover_pins.proof_pin(
            *compile_middlebox(middlebox.source), middlebox.config, None
        )
        if pin != recorded[f"{name}@default"]:
            moved.append(name)
    assert moved == WRITERS


def test_scenarios_of_one_packet_share_one_view(monkeypatch):
    """A base packet is built once per shape, ingress and payload of a
    proof, as a pre-state's term form is once per pre-state: scenarios
    that differ only in their pre-state start from one view object.  Over
    the six bundled proofs: 54 scenarios, 18 views."""
    built = []
    real = prover.make_symbolic_packet

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(prover, "make_symbolic_packet", counted)
    scenarios = views = 0
    for name in MIDDLEBOX_NAMES:
        middlebox = load(name)
        plan, _program = compile_middlebox(middlebox.source)
        bound = prover.proof_bound(plan, middlebox.config,
                                   prover.SymbolicBudget())
        built.clear()
        shared: dict = {}
        listed = list(bound.scenarios(plan))
        for scenario in listed:
            key = (scenario.kind, scenario.ingress, scenario.payload)
            shared.setdefault(key, set()).add(id(scenario.packet))
        assert len(listed) == len(bound), name
        assert all(len(ids) == 1 for ids in shared.values()), name
        assert len(built) == len(set(built)) == len(shared), name
        scenarios += len(listed)
        views += len(shared)
    assert scenarios > 2 * views > 10, (scenarios, views)


def prove_the_six() -> int:
    """All six bundled proofs at the default budget; their decisions.
    No scenario of them is explored again entry by entry."""
    decisions = 0
    for name in MIDDLEBOX_NAMES:
        middlebox = load(name)
        report = verify_symbolic(
            *compile_middlebox(middlebox.source), config=middlebox.config
        )
        assert report.proved, name
        assert not any(s["split"] for s in report.per_scenario), name
        decisions += report.decisions
    return decisions


def test_a_proof_pays_per_decision_not_per_stored_entry(monkeypatch):
    """``Term`` constructions and decisions over the six bundled proofs at
    the default budget.  While every world rebuilt its tables, key tests
    and comparisons: 560 520 terms for 13 354 decisions.  Since a scenario
    built them once, and terms are interned and a key test is built once
    per proof: 3 093 terms, still 13 354 decisions, 12 864 of them
    firewall's scans of its two 64-entry whitelists.  Since a lookup in a
    map no function writes is one decision: 480 decisions, and 2 124
    terms (a key test an interval refutes builds none, and a merged
    lookup's ``lor`` and ``ite`` chain are built once per proof)."""
    built = 0
    real = terms.Term.__init__

    def counting(self, *args):
        nonlocal built
        built += 1
        real(self, *args)

    monkeypatch.setattr(terms.Term, "__init__", counting)
    decisions = prove_the_six()
    assert decisions < 600, decisions
    assert built < 2_500, built


def test_a_table_scan_is_one_chooser_call(monkeypatch):
    """Each lookup a map or a table answers — ``map_find`` /
    ``map_insert`` / ``map_erase`` on the server, ``SymTable.lookup`` on
    the switch — asks the chooser once, however many entries it scans:
    770 lookups over the six proofs, 770 calls.  48 of them are in a map
    no function writes (firewall's whitelists, proxy's ports) and scan
    nothing: one ``lor`` of the 2 388 stored entries' key tests is their
    one question.  The other 722 scan 1 148 entries."""
    lookups = chooser_calls = scanned = merged = behind = 0
    depth = 0

    def lookup(method):
        def counted(*args):
            nonlocal lookups, depth
            lookups += 1
            depth += 1
            try:
                return method(*args)
            finally:
                depth -= 1
        return counted

    def asks(method):
        def counted(self, *args):
            nonlocal chooser_calls
            chooser_calls += depth
            return method(self, *args)
        return counted

    def scans(method):
        def counted(self, entries, keys):
            nonlocal scanned
            scanned += depth * len(entries)
            return method(self, entries, keys)
        return counted

    def merges(method):
        def counted(self, entries, keys):
            nonlocal merged, behind, scanned
            merged += depth
            behind += depth * len(entries)
            before = scanned
            try:
                return method(self, entries, keys)
            finally:
                assert scanned == before, "a merged lookup scanned"
        return counted

    for cls, name in [(SymStateStore, "map_find"),
                      (SymStateStore, "map_insert"),
                      (SymStateStore, "map_erase"), (SymTable, "lookup")]:
        monkeypatch.setattr(cls, name, lookup(getattr(cls, name)))
    monkeypatch.setattr(Chooser, "_first", asks(Chooser._first))
    monkeypatch.setattr(Chooser, "find", scans(Chooser.find))
    monkeypatch.setattr(Chooser, "lookup", merges(Chooser.lookup))
    prove_the_six()
    assert lookups > 500
    assert chooser_calls == lookups, (chooser_calls, lookups)
    assert merged > 40 and behind > 40 * merged, (merged, behind)


def test_a_chain_is_built_once_per_proof(monkeypatch):
    """A merged lookup's ``lor`` and ``ite`` chain are built on the first
    lookup of its entries and key in a proof, and read from the proof's
    memo by every later one — in later worlds, later scenarios (the
    pre-state's entries are one tuple per proof) and on the switch (its
    copy of a map is the server's tuple).  Over the six: 48 merged
    lookups, 15 chains."""
    built: list = []
    asked: list = []
    real_build, real_lookup = engine._first_match, Chooser.lookup

    def build(tests, entries, keys):
        built.append((id(entries), keys))
        return real_build(tests, entries, keys)

    def lookup(self, entries, keys):
        asked.append((id(entries), keys))
        return real_lookup(self, entries, keys)

    monkeypatch.setattr(engine, "_first_match", build)
    monkeypatch.setattr(Chooser, "lookup", lookup)
    run_proof = verify_symbolic

    def one_proof(*args, **kwargs):
        built.clear()
        asked.clear()
        report = run_proof(*args, **kwargs)
        assert len(built) == len(set(built)) == len(set(asked)), (
            len(built), len(set(asked)))
        proofs.append((len(asked), len(built)))
        return report

    proofs: list = []
    monkeypatch.setattr(
        "tests.verify.test_scenario_sharing.verify_symbolic", one_proof
    )
    prove_the_six()
    lookups = sum(asked for asked, _ in proofs)
    chains = sum(built for _, built in proofs)
    assert lookups > 2 * chains > 20, (lookups, chains)
