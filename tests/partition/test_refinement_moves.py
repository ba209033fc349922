"""Every partitioning still pins the same instructions in the same order.

See :mod:`tests.partition.refinement_moves` for what a pin covers and how
to regenerate one.
"""

import json

import pytest

from tests.partition import compile_pins, refinement_moves


@pytest.fixture(scope="module")
def recorded():
    return json.loads(refinement_moves.GOLDEN.read_text())["narrow"]


@pytest.mark.parametrize("group", sorted(refinement_moves.GROUPS))
def test_group_makes_the_recorded_moves(group, recorded):
    computed = refinement_moves.GROUPS[group](False)
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


def test_an_unrecorded_group_is_one_line_not_a_traceback(tmp_path, capsys):
    golden = tmp_path / "pins.json"
    golden.write_text(json.dumps({"narrow": {}}))
    status = refinement_moves.run(
        ["--wide"], golden, lambda wide: {}, compile_pins.moved, "pins"
    )
    assert status == 1
    assert capsys.readouterr().out.splitlines() == [
        "pins.json has no wide group recorded (record one with --write)"
    ]
