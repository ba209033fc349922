"""Properties of the connection-consistent flow selector.

The pooled punt path leans on three selector guarantees: stickiness
(same 5-tuple, same member while membership is stable), determinism
(the member table is a pure function of names, seed, and slot count —
registration order must not matter), and minimal disruption (removing a
member re-homes only the slots it owned).
"""

import random

import pytest

from repro.switchsim.selector import (
    SELECTOR_SLOTS,
    FlowSelector,
    canonical_flow_key,
)
from repro.workloads.packets import make_tcp_packet, make_udp_packet


def random_packet(rng: random.Random):
    return make_tcp_packet(
        f"10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}",
        f"172.16.{rng.randrange(256)}.{rng.randrange(1, 255)}",
        rng.randrange(1024, 65536),
        rng.randrange(1, 1024),
    )


def member_for(selector, packet):
    return selector.member_table()[selector.slot_for_packet(packet)]


class TestValidation:
    def test_empty_member_list_rejected(self):
        with pytest.raises(ValueError, match="at least one member"):
            FlowSelector([])

    def test_duplicate_members_rejected(self):
        with pytest.raises(ValueError, match="srv1"):
            FlowSelector(["srv0", "srv1", "srv1"])

    def test_cannot_remove_last_member(self):
        selector = FlowSelector(["only"])
        with pytest.raises(ValueError, match="last pool member"):
            selector.remove_member("only")


class TestStickiness:
    def test_same_five_tuple_same_member(self):
        rng = random.Random(11)
        selector = FlowSelector(["a", "b", "c"], seed=7)
        for _ in range(200):
            packet = random_packet(rng)
            first = member_for(selector, packet)
            for _ in range(3):
                assert member_for(selector, packet.copy()) == first

    def test_both_directions_hash_to_one_member(self):
        # Connection consistency: the reply direction of a flow lands on
        # the same member (the flow key is symmetric-canonicalized).
        selector = FlowSelector(["a", "b", "c"], seed=3)
        rng = random.Random(5)
        for _ in range(100):
            saddr = f"10.0.{rng.randrange(256)}.{rng.randrange(1, 255)}"
            daddr = f"172.16.0.{rng.randrange(1, 255)}"
            sport = rng.randrange(1024, 65536)
            dport = rng.randrange(1, 1024)
            fwd = make_tcp_packet(saddr, daddr, sport, dport)
            rev = make_tcp_packet(daddr, saddr, dport, sport)
            assert (
                member_for(selector, fwd)
                == member_for(selector, rev)
            )

    def test_canonical_key_is_symmetric(self):
        fwd = make_tcp_packet("10.0.0.1", "10.0.0.2", 1234, 80)
        rev = make_tcp_packet("10.0.0.2", "10.0.0.1", 80, 1234)
        assert canonical_flow_key(fwd) == canonical_flow_key(rev)

    def test_non_l4_packets_still_route(self):
        selector = FlowSelector(["a", "b"], seed=1)
        packet = make_udp_packet("10.0.0.1", "10.0.0.2", 53, 53)
        assert member_for(selector, packet) in ("a", "b")


class TestDeterminism:
    def test_registration_order_is_irrelevant(self):
        names = ["srv2", "srv0", "srv1", "srv3"]
        tables = [
            FlowSelector(order, seed=42).member_table()
            for order in (names, sorted(names), list(reversed(names)))
        ]
        assert tables[0] == tables[1] == tables[2]

    def test_same_seed_byte_identical_table(self):
        a = FlowSelector(["x", "y", "z"], seed=99)
        b = FlowSelector(["x", "y", "z"], seed=99)
        assert a.member_table() == b.member_table()
        assert repr(a.member_table()) == repr(b.member_table())

    def test_different_seed_different_table(self):
        a = FlowSelector(["x", "y", "z"], seed=1)
        b = FlowSelector(["x", "y", "z"], seed=2)
        assert a.member_table() != b.member_table()

    def test_every_member_owns_slots_by_default(self):
        selector = FlowSelector(["a", "b", "c", "d"], seed=0)
        load = selector.load()
        assert sum(load.values()) == SELECTOR_SLOTS
        assert all(count > 0 for count in load.values())


class TestMinimalDisruption:
    def test_removal_only_rehomes_the_removed_members_slots(self):
        selector = FlowSelector(["a", "b", "c", "d"], seed=13)
        before = selector.member_table()
        gone = selector.slots_owned("c")
        selector.remove_member("c")
        after = selector.member_table()
        for slot in range(selector.slots):
            if slot in gone:
                assert after[slot] != "c"
            else:
                assert after[slot] == before[slot]

    def test_removal_matches_a_table_built_without_the_member(self):
        # Rendezvous hashing: membership changes commute with the table.
        selector = FlowSelector(["a", "b", "c", "d"], seed=13)
        selector.remove_member("d")
        assert selector.member_table() == FlowSelector(
            ["a", "b", "c"], seed=13
        ).member_table()
