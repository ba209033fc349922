"""Every deployment flavour still behaves bit-for-bit as pinned.

See :mod:`tests.runtime.golden_pins` for what a pin covers and how to
regenerate one.
"""

import inspect
import json
import re
import textwrap

import pytest

from repro.switchsim import control_plane
from repro.switchsim.control_plane import ControlPlane
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


# -- the pins catch a seeded bug in the update batch ---------------------------

#: ``ControlPlane.apply_batch`` source rewrites: pattern -> replacement
BATCH_MUTANTS = {
    "skipped jitter draw": (
        r"_batch_latency_us\(tables, op, self\._rng\)",
        "expected_batch_latency_us(tables, op)",
    ),
    "dropped zero-wait queue-wait booking": (
        r"\n\s+else:\n\s+# observe\(0\.0\)'s .*?_zero_wait_bucket\] \+= 1",
        "",
    ),
}


def batch_mutant(pattern: str, replacement: str):
    """``ControlPlane.apply_batch`` with one piece of its source
    rewritten."""
    source = textwrap.dedent(inspect.getsource(ControlPlane.apply_batch))
    mutated, hits = re.subn(pattern, replacement, source, flags=re.DOTALL)
    assert hits == 1, pattern
    namespace = dict(vars(control_plane))
    exec(mutated, namespace)
    return namespace["apply_batch"]


@pytest.mark.parametrize("mutant", sorted(BATCH_MUTANTS))
def test_a_seeded_batch_bug_moves_a_clean_pin(mutant, monkeypatch):
    """A fault-free batch is the attempt loop's first pass; a bug there
    moves the clean pin of the base flavour."""
    recorded = json.loads(golden_pins.golden_path("base").read_text())
    monkeypatch.setattr(
        ControlPlane, "apply_batch", batch_mutant(*BATCH_MUTANTS[mutant])
    )
    assert golden_pins.pin("base", "lb", False) != recorded["lb"]["clean"]
