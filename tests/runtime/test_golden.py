"""Every deployment flavour still behaves bit-for-bit as pinned.

See :mod:`tests.runtime.golden_pins` for what a pin covers and how to
regenerate one.
"""

import json

import pytest

from tests.runtime import golden_pins


@pytest.mark.parametrize(
    "flavour", (*golden_pins.FLAVOURS, *golden_pins.EXTRA_CELLS)
)
def test_flavour_matches_golden_pins(flavour):
    recorded = json.loads(golden_pins.golden_path(flavour).read_text())
    assert golden_pins.compute(flavour) == recorded


@pytest.mark.parametrize("flavour", golden_pins.PUNT_PATH_FLAVOURS)
def test_punt_path_matches_golden_pins(flavour):
    """Shim bytes, update batches, batch results, server journals and
    whole journeys of every punt — the inside of the round trip."""
    recorded = json.loads(
        golden_pins.golden_path(golden_pins.PUNT_PATH).read_text()
    )[flavour]
    assert golden_pins.compute_punt_path(flavour) == recorded
