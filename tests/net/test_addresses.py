"""Tests for MAC and IPv4 address types."""

import pytest
from hypothesis import given, strategies as st

from repro.net.addresses import Ipv4Address, MacAddress, ip, mac


class TestIpv4Address:
    def test_from_string_round_trip(self):
        addr = Ipv4Address.from_string("192.168.1.42")
        assert str(addr) == "192.168.1.42"

    def test_int_round_trip(self):
        addr = ip("10.0.0.1")
        assert ip(int(addr)) == addr

    def test_bytes_round_trip(self):
        addr = ip("172.16.254.3")
        assert Ipv4Address.from_bytes(addr.to_bytes()) == addr

    def test_value_is_big_endian(self):
        assert int(ip("1.2.3.4")) == 0x01020304

    def test_rejects_out_of_range_octet(self):
        with pytest.raises(ValueError):
            ip("1.2.3.256")

    def test_rejects_malformed(self):
        for bad in ("1.2.3", "a.b.c.d", "1.2.3.4.5", ""):
            with pytest.raises(ValueError):
                Ipv4Address.from_string(bad)

    def test_rejects_out_of_range_value(self):
        with pytest.raises(ValueError):
            Ipv4Address(1 << 32)
        with pytest.raises(ValueError):
            Ipv4Address(-1)

    def test_ordering_and_hash(self):
        a = ip("10.0.0.1")
        b = ip("10.0.0.2")
        assert a < b
        assert len({a, b, ip("10.0.0.1")}) == 2

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_string_round_trip_property(self, value):
        addr = Ipv4Address(value)
        assert Ipv4Address.from_string(str(addr)) == addr


class TestMacAddress:
    def test_from_string_round_trip(self):
        addr = MacAddress.from_string("02:aa:bb:cc:dd:ee")
        assert str(addr) == "02:aa:bb:cc:dd:ee"

    def test_accepts_dashes(self):
        assert mac("02-aa-bb-cc-dd-ee") == mac("02:aa:bb:cc:dd:ee")

    def test_rejects_malformed(self):
        for bad in ("02:aa:bb:cc:dd", "02:aa:bb:cc:dd:ee:ff", "zz:aa:bb:cc:dd:ee"):
            with pytest.raises(ValueError):
                MacAddress.from_string(bad)

    def test_bytes_round_trip(self):
        addr = mac("02:01:02:03:04:05")
        assert MacAddress.from_bytes(addr.to_bytes()) == addr

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_bytes_round_trip_property(self, value):
        addr = MacAddress(value)
        assert MacAddress.from_bytes(addr.to_bytes()) == addr

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            MacAddress(1 << 48)


class TestConvenienceConstructors:
    def test_ip_passthrough(self):
        addr = ip("1.1.1.1")
        assert ip(addr) is addr

    def test_mac_passthrough(self):
        addr = mac(42)
        assert mac(addr) is addr
