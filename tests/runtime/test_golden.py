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
