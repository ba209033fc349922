"""Every oracle still reaches the verdict pinned for it.

See :mod:`tests.difftest.oracle_pins` for what a pin covers and how to
regenerate one.
"""

import json

import pytest

from tests.difftest import oracle_pins


@pytest.fixture(scope="module")
def recorded():
    return json.loads(oracle_pins.GOLDEN.read_text())["narrow"]


@pytest.mark.parametrize("group", sorted(oracle_pins.GROUPS))
def test_group_matches_golden_pins(group, recorded):
    # json round-trip: the golden file knows lists, not tuples
    computed = json.loads(json.dumps(oracle_pins.GROUPS[group](False)))
    assert oracle_pins.moved({group: computed}, {group: recorded[group]}) == []


def test_every_sensitivity_pin_is_a_finding(recorded):
    """The pins themselves must show the injected bugs being caught."""
    for name, (outcome, _where, kind, _index) in recorded["sensitivity"].items():
        assert outcome in ("violation", "diverge"), name
        assert kind is not None, name
