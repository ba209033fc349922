"""A fault-free batch's one pass runs in lockstep with the retry loop.

``ControlPlane.apply_batch`` makes a batch no fault hook or tracer can
see in one straight pass; every other batch goes through the general
retry loop.  The two must be indistinguishable on a batch nothing
faults.  The probe runs one golden churn stream through two deployments
of the same flavour: one as is, one whose every batch — the cache's
local eviction batches and a standby's replays included — is forced
into the loop by an armed hook that never faults.  After every packet
the two must agree, batch by batch, on the result or the error (all
fields and ``undo.to_dict()``), the jitter RNG's state, the channel's
in-flight list, the simulated clock and the whole metrics registry; and
on every journey.  At the end the switches' tables and registers must
be equal too.

Tier-1 runs base, cached and pooled over the golden middleboxes; the
wide slice (``make punt-lockstep``) adds every other golden flavour, a
two-entry cache that evicts on almost every punt, and a pool behind a
bounded cache::

    PYTHONPATH=src python -m tests.runtime.test_punt_lockstep [--wide]

Two seeded bugs in the one pass — a skipped jitter draw, a skipped
queue-wait observation — must each make it fail.
"""

from __future__ import annotations

import inspect
import re
import sys
import textwrap
from typing import Callable, Dict, List, Tuple

import pytest

from repro.runtime.cache import CacheConfigurationError
from repro.runtime.spec import DeploymentSpec
from repro.switchsim import control_plane
from repro.switchsim.control_plane import ControlPlane, UpdateBatchError
from tests.runtime.golden_pins import (
    FLAVOURS,
    MIDDLEBOXES,
    _BATCH_FIELDS,
    _full_journey_row,
    build,
    churn_stream,
)

NARROW: Dict[str, DeploymentSpec] = {
    name: FLAVOURS[name] for name in ("base", "cached", "pooled")
}
WIDE: Dict[str, DeploymentSpec] = {
    **FLAVOURS,
    "cached-2": DeploymentSpec(cache_entries=2),
    "pooled+cached": DeploymentSpec(cache_entries=8, pool_servers=3),
}


class Disagreement(AssertionError):
    """The one pass and the retry loop did something different."""


def _never(attempt: int) -> None:
    """A fault hook that is armed and never faults."""
    return None


def watch(box, general: bool) -> List[list]:
    """Record, per batch any control plane of ``box`` applies, what it
    returned or raised and the state it left; with ``general`` every
    batch is forced through the retry loop."""
    log: List[list] = []
    planes = [box.switch.control_plane]
    standby = getattr(box.redundancy, "standby", None)
    if standby is not None:
        planes.append(standby.control_plane)
    telemetry = box.telemetry
    for control in planes:
        def watched(updates, control=control, apply_batch=control.apply_batch):
            hook = control.fault_hook
            if general:
                control.fault_hook = _never
            try:
                result = apply_batch(updates)
            except UpdateBatchError as exc:
                row = ["error", str(exc), exc.kind, exc.attempts,
                       exc.retry_wait_us, exc.undo.to_dict()]
                raise
            else:
                row = [getattr(result, name) for name in _BATCH_FIELDS]
                row.append(result.undo.to_dict())
                return result
            finally:
                control.fault_hook = hook
                log.append([
                    ("outcome", row),
                    ("rng", control._rng.getstate()),
                    ("channel", list(control.channel.inflight)),
                    ("clock", telemetry.clock.now_us),
                    ("metrics", telemetry.metrics.to_dict()),
                ])

        control.apply_batch = watched
    return log


def _switch_state(box) -> Tuple[dict, dict]:
    switch = box.switch
    return (
        {name: table.snapshot() for name, table in switch.tables.items()},
        {name: reg.value for name, reg in switch.registers.items()},
    )


def lockstep(flavour: DeploymentSpec, name: str) -> int:
    """One stream through both deployments; returns the batches compared.
    Raises :class:`Disagreement` at the first difference."""
    one_pass, general = build(flavour, name, None), build(flavour, name, None)
    logs = watch(one_pass, general=False), watch(general, general=True)
    batches = 0
    for index, (packet, port) in enumerate(churn_stream(name)):
        journeys = [
            _full_journey_row(box.process_packet(packet.copy(), port))
            for box in (one_pass, general)
        ]
        if len(logs[0]) != len(logs[1]):
            raise Disagreement(f"packet {index}: batch counts differ")
        for ours, theirs in zip(*logs):
            for (field, value), (_, expected) in zip(ours, theirs):
                if value != expected:
                    raise Disagreement(
                        f"packet {index}, batch {batches}: {field} differs"
                    )
            batches += 1
        for log in logs:
            log.clear()
        if journeys[0] != journeys[1]:
            raise Disagreement(f"packet {index}: journeys differ")
    if _switch_state(one_pass) != _switch_state(general):
        raise Disagreement("final switch state differs")
    return batches


def run(flavours: Dict[str, DeploymentSpec]) -> Dict[str, int]:
    """Batches compared per flavour, over every golden middlebox it
    admits."""
    counts: Dict[str, int] = {}
    for label, flavour in flavours.items():
        counts[label] = 0
        for name in MIDDLEBOXES:
            try:
                counts[label] += lockstep(flavour, name)
            except CacheConfigurationError:
                continue  # not admitted in cache mode
            except Disagreement as exc:
                raise Disagreement(f"{label}/{name}: {exc}") from None
    return counts


def test_one_pass_equals_the_retry_loop():
    counts = run(NARROW)
    # Every flavour batches; the cache's refills and evictions add more.
    assert all(counts.values()), counts
    assert counts["cached"] > counts["base"]


# -- the probe can fail -----------------------------------------------------------


def one_pass_mutant(pattern: str, replacement: str) -> Callable:
    """``ControlPlane.apply_batch`` with one piece of its source — the
    one pass, the retry loop is another method — rewritten."""
    source = textwrap.dedent(inspect.getsource(ControlPlane.apply_batch))
    mutated, hits = re.subn(pattern, replacement, source, flags=re.DOTALL)
    assert hits == 1, pattern
    namespace = dict(vars(control_plane))
    exec(mutated, namespace)
    return namespace["apply_batch"]


def test_a_skipped_jitter_draw_is_caught(monkeypatch):
    mutant = one_pass_mutant(
        r"_batch_latency_us\(tables, op, self\._rng\)",
        "expected_batch_latency_us(tables, op)",
    )
    monkeypatch.setattr(ControlPlane, "apply_batch", mutant)
    with pytest.raises(Disagreement, match="outcome differs"):
        lockstep(FLAVOURS["base"], "lb")


def test_a_skipped_queue_wait_observation_is_caught(monkeypatch):
    mutant = one_pass_mutant(
        r"histogram = self\._h_queue_wait\n.*?\n\s+try:", "try:"
    )
    monkeypatch.setattr(ControlPlane, "apply_batch", mutant)
    with pytest.raises(Disagreement, match="metrics differs"):
        lockstep(FLAVOURS["base"], "lb")


def main(argv: List[str]) -> int:
    for label, batches in run(WIDE if "--wide" in argv else NARROW).items():
        print(f"{label}: {batches} batches in lockstep")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
