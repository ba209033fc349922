"""One state image: every copy between the server's store and a switch.

The round trip: over every bundled middlebox under full replication, a
bounded cache and a 3-server pool, after a seeded stream,

* the switch image read back equals the server's copy of every member
  the server holds the authority for and the switch a complete copy of;
* a resync drops a switch entry the server no longer holds;
* a crash resync (server store rebuilt from the switch) leaves every
  switch-backed member of ``kernel.end_state`` where it was;
* a pool's crash migration of every slot is the identity.

And the structural guard, in the manner of
``tests/verify/test_one_checker.py``: outside ``runtime/state_image.py``
no runtime module, and not the difftest kernel, converts between the
store and the switch on its own, and no module outside ``partition/``
names a placement kind — the runtime, the oracle kernel and the prover
ask the image which members the switch holds, owns and replicates.
"""

import re
from functools import lru_cache
from pathlib import Path

import pytest

import repro
from repro.difftest.kernel import end_state
from repro.middleboxes import MIDDLEBOX_NAMES, load
from repro.runtime import state_image
from repro.runtime.cache import CacheConfigurationError
from repro.runtime.deployment import GalliumMiddlebox, compile_middlebox
from repro.runtime.spec import DeploymentSpec
from tests.runtime.golden_pins import churn_stream, compiled
from tests.runtime.test_one_loop import seed_backends

PACKETS = 300
SPECS = {
    "full": DeploymentSpec(),
    "cached": DeploymentSpec(cache_entries=8),
    "pool3": DeploymentSpec(pool_servers=3),
}
SECTION = {"map": "maps", "vector": "vectors", "scalar": "scalars"}

#: no bundled middlebox keeps a vector on the switch; this one replicates
#: a growing vector and keeps a switch-authoritative counter
VECBOX = """
class VecBox {
  Vector<uint32_t> seen;
  uint32_t hits;

  void configure() {
    uint32_t first = 7;
    seen.push_back(first);
  }

  void process(Packet *pkt) {
    iphdr *ip = pkt->network_header();
    uint32_t head = seen[0];
    ip->daddr = ip->daddr ^ head;
    if (ip->ttl > 60) {
      uint32_t source = ip->saddr;
      seen.push_back(source);
    }
    hits += 1;
    pkt->send();
  }
};
"""
NAMES = (*MIDDLEBOX_NAMES, "vecbox")


@lru_cache(maxsize=None)
def vecbox():
    return compile_middlebox(VECBOX)


def streamed(name, spec):
    """An installed deployment of ``spec`` after the seeded stream."""
    if name == "vecbox":
        (plan, program), config, stream = vecbox(), None, "trojan"
    else:
        (plan, program), config, stream = compiled(name), load(name).config, name
    try:
        box = GalliumMiddlebox(
            plan, program, config=config, seed=7, fast_path=True,
            **SPECS[spec].roles(),
        )
    except CacheConfigurationError as refused:
        pytest.skip(str(refused))
    box.install()
    seed_backends(box, name)
    box.sync_all_state()
    for packet, port in churn_stream(stream)[:PACKETS]:
        box.process_packet(packet.copy(), port)
    return box


@pytest.fixture(params=[
    (name, spec) for spec in SPECS for name in NAMES
], ids="-".join)
def box(request):
    return streamed(*request.param)


def switch_backed(box):
    """The on-switch members the switch holds a complete copy of."""
    bounded = box.state_policy.bounded_tables
    return [
        placement for name, placement in box.plan.placements.items()
        if placement.on_switch and name not in bounded
    ]


def test_read_back_is_the_servers_copy(box):
    held = [placement for placement in switch_backed(box) if placement.replicated]
    image = state_image.from_switch(box.switch, held, {})
    for placement in held:
        member = placement.member
        server = getattr(box.state, SECTION[member.kind])[member.name]
        assert image[member.name] == server, member.name


def test_a_resync_drops_what_the_server_deleted(box):
    held = [placement for placement in switch_backed(box) if placement.replicated]
    tables = [p for p in held if p.member.kind != "scalar"]
    if not tables:
        pytest.skip("no replicated table")
    for placement in tables:
        box.switch.control_plane.install_entries(
            placement.member.name, {(1 << 31,): 1}
        )
    state_image.to_switch(box.switch, box.plan, box.state)
    test_read_back_is_the_servers_copy(box)


def test_crash_resync_keeps_every_switch_backed_member(box):
    before = end_state(box)
    box.crash_resync()
    after = end_state(box)
    for placement in switch_backed(box):
        section = SECTION[placement.member.kind]
        name = placement.member.name
        assert after[section][name] == before[section][name], name


@pytest.mark.parametrize("name", NAMES)
def test_restoring_every_slot_is_the_identity(name):
    box = streamed(name, "pool3")
    pool = box.punt_target
    before = box.state.snapshot()
    slots = frozenset(range(len(pool.selector.member_table())))
    pool.restore_owned(slots)
    assert box.state.snapshot() == before


# -- structural guard ----------------------------------------------------------

SRC = Path(repro.__file__).parent
GUARDED = sorted((SRC / "runtime").glob("*.py")) + [SRC / "difftest/kernel.py"]
#: a store <-> switch conversion written out by hand
CONVERSIONS = {
    "switch table read to rebuild server state": r"tables\[[^\]]+\]\.snapshot\(\)",
    "an (index,) key built from a vector": r"\(\s*\w+\s*,\s*\)\s*:",
    "a table's private entry dict": r"\._main\b",
}


#: where a placement kind may be named: where the kinds are derived, and
#: the one module every other reader asks
KINDS_NAMED_IN = ("partition/", "runtime/state_image.py")


def test_the_image_is_the_only_conversion():
    found = [
        (path.relative_to(SRC).as_posix(), what)
        for path in GUARDED if path.name != "state_image.py"
        for what, pattern in CONVERSIONS.items()
        if re.search(pattern, path.read_text())
    ]
    # Which members the switch holds, owns and replicates is the image's
    # to say: no other module tests a placement's kind.
    found += [
        (where, "a placement kind named")
        for where in (
            path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")
        )
        if not where.startswith(KINDS_NAMED_IN)
        and re.search(r"PlacementKind\.[A-Z]", (SRC / where).read_text())
    ]
    assert found == []


def test_the_guard_sees_the_image():
    text = (SRC / "runtime/state_image.py").read_text()
    assert all(
        re.search(pattern, text)
        for what, pattern in CONVERSIONS.items() if "_main" not in pattern
    )
