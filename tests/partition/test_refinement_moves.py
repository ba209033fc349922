"""Every partitioning still pins the same instructions in the same order.

See :mod:`tests.partition.refinement_moves` for what a pin covers and how
to regenerate one.
"""

import json

import pytest

from tests.partition import compile_pins, refinement_moves


@pytest.fixture(scope="module")
def recorded():
    return json.loads(refinement_moves.GOLDEN.read_text())


@pytest.mark.parametrize("group", sorted(refinement_moves.GROUPS))
def test_group_makes_the_recorded_moves(group, recorded):
    computed = refinement_moves.GROUPS[group]()
    assert compile_pins.moved({group: computed}, {group: recorded[group]}) == []


def test_every_refinement_pass_is_pinned(recorded):
    """A pass that never moved anything in the recorded set would pass
    this file whatever it did."""
    phases = {
        move.split()[0]
        for group in recorded.values()
        for row in group.values()
        for move in row["moves"]
    }
    assert phases == set(refinement_moves.PHASES) | {"driver"}
