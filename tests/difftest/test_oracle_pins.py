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


def test_an_unrecorded_group_is_one_line_not_a_traceback(tmp_path, capsys):
    golden = tmp_path / "pins.json"
    golden.write_text(json.dumps({"narrow": {}}))
    status = oracle_pins.run(
        ["--wide"], golden, lambda wide: {}, oracle_pins.moved, "pins"
    )
    assert status == 1
    assert capsys.readouterr().out.splitlines() == [
        "pins.json has no wide group recorded (record one with --write)"
    ]
