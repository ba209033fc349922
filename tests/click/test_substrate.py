"""Tests for the Click substrate: Packet, HashMap, Vector, Element."""

import pytest
from hypothesis import given, strategies as st

from repro.click import Element, HashMap, Packet, PacketAction, Vector
from repro.net.addresses import ip
from repro.net.headers import EthernetHeader, Ipv4Header, TcpHeader
from repro.net.packet import RawPacket


def make_packet():
    raw = RawPacket.make_tcp(
        EthernetHeader(),
        Ipv4Header(saddr=ip("1.1.1.1"), daddr=ip("2.2.2.2")),
        TcpHeader(sport=5, dport=6),
        b"pp",
    )
    return Packet(raw)


class TestPacket:
    def test_header_accessors(self):
        packet = make_packet()
        assert packet.network_header().saddr == ip("1.1.1.1")
        assert packet.transport_header().sport == 5
        assert packet.payload() == b"pp"
        assert packet.length() == 14 + 20 + 20 + 2

    def test_send_sets_action(self):
        packet = make_packet()
        packet.send()
        assert packet.action is PacketAction.SEND

    def test_drop_sets_action(self):
        packet = make_packet()
        packet.drop()
        assert packet.action is PacketAction.DROP

    def test_double_verdict_rejected(self):
        packet = make_packet()
        packet.send()
        with pytest.raises(RuntimeError):
            packet.drop()


class TestHashMap:
    def test_find_missing_returns_none(self):
        assert HashMap().find("k") is None

    def test_insert_find(self):
        table = HashMap()
        table.insert(("a", 1), 42)
        assert table.find(("a", 1)) == 42

    def test_insert_overwrites(self):
        table = HashMap()
        table.insert("k", 1)
        table.insert("k", 2)
        assert table.find("k") == 2
        assert table.size() == 1

    def test_erase(self):
        table = HashMap()
        table.insert("k", 1)
        assert table.erase("k")
        assert not table.erase("k")
        assert table.find("k") is None

    def test_capacity_enforced(self):
        table = HashMap(max_entries=2)
        table.insert("a", 1)
        table.insert("b", 2)
        with pytest.raises(OverflowError):
            table.insert("c", 3)
        # Overwriting existing keys is always allowed.
        table.insert("a", 9)
        assert table.find("a") == 9

    def test_contains_and_len(self):
        table = HashMap()
        table.insert("x", 0)
        assert "x" in table
        assert len(table) == 1

    @given(st.dictionaries(st.integers(), st.integers(), max_size=50))
    def test_behaves_like_dict(self, model):
        """Property: HashMap is observationally a bounded dict."""
        table = HashMap()
        for key, value in model.items():
            table.insert(key, value)
        assert table.snapshot() == model
        for key, value in model.items():
            assert table.find(key) == value


class TestVector:
    def test_index_and_size(self):
        vector = Vector([1, 2, 3])
        assert vector[2] == 3
        assert vector.size() == 3

    def test_bounds_checked(self):
        vector = Vector([1])
        with pytest.raises(IndexError):
            vector.at(1)
        with pytest.raises(IndexError):
            vector.at(-1)

    def test_set(self):
        vector = Vector([1, 2])
        vector[1] = 9
        assert vector.snapshot() == [1, 9]

    def test_empty_and_clear(self):
        vector = Vector([1])
        assert not vector.empty()
        vector.clear()
        assert vector.empty()


class _CountingElement(Element):
    def process(self, packet):
        if packet.network_header().daddr == ip("2.2.2.2"):
            packet.send()
        else:
            packet.drop()


class TestElement:
    def test_push_counts(self):
        element = _CountingElement()
        element.push(make_packet())
        assert (element.packets_seen, element.packets_sent) == (1, 1)

    def test_missing_verdict_raises(self):
        class Lazy(Element):
            def process(self, packet):
                pass

        with pytest.raises(RuntimeError):
            Lazy().push(make_packet())
