"""What a scenario builds once, every world of it may read and none may
change — and a proof pays per decision, not per stored entry.

The prover keeps a scenario's pre-state and base packet in term form and
starts each world from a pointer copy (``engine.SymPrestate``,
``prover.Scenario``).  That is sound only while no world writes to what
it was handed; the pins show most leaks as moved worlds, this file names
every one.  The second half is the reason the sharing exists, as a count: a proof
that again re-derived its tables per world would construct tens of terms
per decision where it now constructs a quarter of one — and a table scan,
however long, is one call to the chooser.
"""

import json
from unittest import mock

import pytest

from repro.middleboxes import MIDDLEBOX_NAMES, load
from repro.runtime.deployment import compile_middlebox
from repro.verify.symbolic import prover, terms, verify_symbolic
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
    """... of ``trojan`` and ``lb``.  ``mazunat``'s hold: a mapping leaked
    from an earlier world is found by a key test that folds to true (the
    key is the same term), at no decision, and both sides of the
    comparison alias the one list — the leak only the check above sees."""
    recorded = json.loads(prover_pins.GOLDEN.read_text())["narrow"]["bundled"]
    moved = []
    for name in WRITERS:
        middlebox = load(name)
        pin = prover_pins.proof_pin(
            *compile_middlebox(middlebox.source), middlebox.config, None
        )
        if pin != recorded[f"{name}@default"]:
            moved.append(name)
    assert moved == ["trojan", "lb"]


def prove_the_six() -> int:
    """All six bundled proofs at the default budget; their decisions."""
    decisions = 0
    for name in MIDDLEBOX_NAMES:
        middlebox = load(name)
        report = verify_symbolic(
            *compile_middlebox(middlebox.source), config=middlebox.config
        )
        assert report.proved, name
        decisions += report.decisions
    return decisions


def test_a_proof_pays_per_decision_not_per_stored_entry(monkeypatch):
    """``Term`` constructions over the six bundled proofs at the default
    budget: 560 520 for 13 354 decisions (42 each) while every world
    rebuilt its tables, key tests and comparisons; ~13 000 (≈1 each) once
    a scenario built them once; 3 093 (0.23 each) since terms are
    interned and a key test is built once per proof."""
    built = 0
    real = terms.Term.__init__

    def counting(self, *args):
        nonlocal built
        built += 1
        real(self, *args)

    monkeypatch.setattr(terms.Term, "__init__", counting)
    decisions = prove_the_six()
    assert decisions > 10_000
    assert built * 4 <= decisions, (built, decisions)


def test_a_table_scan_is_one_chooser_call(monkeypatch):
    """Each lookup a map or a table answers — ``map_find`` /
    ``map_insert`` / ``map_erase`` on the server, ``SymTable.lookup`` on
    the switch — asks the chooser once, however many entries it scans:
    1 538 lookups over the six proofs, 1 538 calls, 52 968 stored entries
    in the lists they scan (one ``decide`` per entry tested, before)."""
    lookups = chooser_calls = scanned = 0
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

    for cls, name in [(SymStateStore, "map_find"),
                      (SymStateStore, "map_insert"),
                      (SymStateStore, "map_erase"), (SymTable, "lookup")]:
        monkeypatch.setattr(cls, name, lookup(getattr(cls, name)))
    monkeypatch.setattr(Chooser, "_first", asks(Chooser._first))
    monkeypatch.setattr(Chooser, "find", scans(Chooser.find))
    prove_the_six()
    assert lookups > 1_000
    assert chooser_calls == lookups, (chooser_calls, lookups)
    assert scanned > 20 * lookups, (scanned, lookups)
