"""What a punt leaves behind at every packet boundary.

Two pieces of role state follow the switch and the store by moving with
each committed punt rather than by being recopied:

* a server pool's checkpoint of the members the switch holds no
  complete copy of moves by the punt's write journal — it must equal a
  fresh ``state_image.from_store`` over those members;
* a bounded cache's FIFOs take the punt's moves when its batch lands —
  each must hold exactly the keys its switch table holds, and a punt
  whose batch is rolled back must leave every FIFO in the order it
  found it.

Both are checked clean and under faults; a checkpoint that ignores
``erase`` must fail the first.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import BatchFault, FaultPlan, WritebackOverflow
from repro.runtime import state_image
from repro.runtime.spec import DeploymentSpec
from tests.runtime.golden_pins import (
    CACHE_ENTRIES,
    FAULT_PLANS,
    build,
    churn_stream,
)

POOLED = {
    "pooled": DeploymentSpec(pool_servers=3),
    "pooled+cached": DeploymentSpec(cache_entries=CACHE_ENTRIES, pool_servers=3),
}
#: the batch faults that roll a punt back: vetoed RPCs, some of them
#: for every attempt, and write-back overflow
ABORTING = FaultPlan((
    BatchFault(mode="fail", probability=0.3, doom_probability=0.1),
    WritebackOverflow(probability=0.05),
))


def _stream(box, name: str):
    """Each packet of the golden stream through ``box``, yielding the
    packet's journey and those of any punts it drained."""
    for packet, port in churn_stream(name):
        journeys = [box.process_packet(packet.copy(), port)]
        journeys += box.drain_deferred()
        yield journeys


def checkpoint_checks(spec: DeploymentSpec, name: str, faulted: bool) -> int:
    """Packets at whose boundary the checkpoint equalled the store."""
    injector = FaultInjector(FAULT_PLANS["pooled"], seed=3) if faulted else None
    box = build(spec, name, injector)
    pool = box.punt_target
    pool.rebase()  # minilb's backends were written into the store directly
    unbacked = [
        placement for member, placement in box.plan.placements.items()
        if not pool._switch_backed(member)
    ]
    checked = 0
    for index, _ in enumerate(_stream(box, name)):
        expected = state_image.from_store(box.state, unbacked, {})
        assert pool._checkpoint == expected, f"packet {index}"
        checked += 1
    return checked


@pytest.mark.parametrize("faulted", (False, True), ids=("clean", "faulted"))
@pytest.mark.parametrize("flavour", POOLED)
def test_pool_checkpoint_follows_the_store(flavour, faulted):
    for name in ("lb", "minilb"):
        assert checkpoint_checks(POOLED[flavour], name, faulted) == 2000


def test_a_checkpoint_that_ignores_erase_is_caught(monkeypatch):
    replay = state_image.replay

    def no_erase(image, journal):
        replay(image, [entry for entry in journal if entry[0] != "erase"])

    monkeypatch.setattr(state_image, "replay", no_erase)
    with pytest.raises(AssertionError, match="packet"):
        checkpoint_checks(POOLED["pooled+cached"], "lb", faulted=False)


def fifo_checks(name: str, plan) -> int:
    """Punts rolled back; asserts the FIFO invariants at every packet."""
    injector = FaultInjector(plan, seed=3) if plan is not None else None
    box = build("cached", name, injector)
    cache = box.state_policy
    aborted = 0
    before = _order(cache)
    for index, journeys in enumerate(_stream(box, name)):
        for table, fifo in cache._fifo.items():
            on_switch = box.switch.tables[table].snapshot()
            assert set(fifo) == set(on_switch), f"packet {index}: {table}"
        if any(j.degraded_reason in ("writeback_failed", "writeback_overflow")
               for j in journeys):
            aborted += 1
            assert _order(cache) == before, f"packet {index}: FIFO moved"
        before = _order(cache)
    return aborted


def _order(cache) -> Dict[str, List[tuple]]:
    return {table: list(fifo) for table, fifo in cache._fifo.items()}


@pytest.mark.parametrize("name", ("lb", "minilb"))
def test_cache_fifo_follows_the_switch(name):
    assert fifo_checks(name, None) == 0
    assert fifo_checks(name, ABORTING) > 0
