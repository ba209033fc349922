"""The prover still explores the worlds pinned for it, in their order.

See :mod:`tests.verify.prover_pins` for what a pin covers and how to
regenerate one.
"""

import json

import pytest

from tests.verify import prover_pins


@pytest.fixture(scope="module")
def recorded():
    return json.loads(prover_pins.GOLDEN.read_text())["narrow"]


@pytest.mark.parametrize("group", sorted(prover_pins.GROUPS))
def test_group_matches_golden_pins(group, recorded):
    computed = json.loads(json.dumps(prover_pins.GROUPS[group](False)))
    assert prover_pins.moved({group: computed}, {group: recorded[group]}) == []


def test_every_mutation_pin_names_its_own_code(recorded):
    """The pins themselves must show each mutation being disproved."""
    for code, pin in recorded["mutations"].items():
        assert pin["codes"] == [code], code
        assert pin["counterexample"]["code"] == code
        assert pin["counterexample"]["confirmed"], code


def test_the_pinned_proofs_explore_something(recorded):
    """A pin set of one-world proofs would hold whatever the evaluator did.
    The bundled group is counted against its scenarios: since a lookup in
    a map no function writes is one decision, firewall's two proofs
    explore 18 and 12 worlds where they explored 396 and 264."""
    bundled = recorded["bundled"].values()
    assert all(pin["proved"] for pin in bundled)
    assert sum(pin["worlds"] for pin in bundled) > 2 * sum(
        pin["scenarios"] for pin in bundled
    )
    assert sum(pin["worlds"] for pin in recorded["generated"].values()) > 1000
