"""Every compile still decides what the golden file pinned for it.

See :mod:`tests.partition.compile_pins` for what a pin covers and how to
regenerate one.
"""

import json

import pytest

from tests.partition import compile_pins


@pytest.fixture(scope="module")
def recorded():
    return json.loads(compile_pins.GOLDEN.read_text())


@pytest.mark.parametrize("group", sorted(compile_pins.GROUPS))
def test_group_matches_golden_pins(group, recorded):
    computed = json.loads(json.dumps(compile_pins.GROUPS[group]()))
    assert compile_pins.moved({group: computed}, {group: recorded[group]}) == []


def test_every_sensitivity_pin_names_its_own_code(recorded):
    """The pins themselves must show each fixture being caught."""
    for code, yielded in recorded["sensitivity"].items():
        assert code in yielded, code


def test_refusals_are_pinned_too(recorded):
    """The starved limits must pin at least one refusal, or a checker that
    stopped refusing would pass."""
    outcomes = {row["outcome"] for row in recorded["tiny"].values()}
    assert "SwitchProgramError" in outcomes and "compiled" in outcomes
