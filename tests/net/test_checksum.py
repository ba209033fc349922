"""Tests for the Internet checksum."""

from hypothesis import given, strategies as st

from repro.net.checksum import internet_checksum


def verify_checksum(data: bytes) -> bool:
    """Valid data (checksum field included) ones-complement-sums to 0xFFFF,
    so the checksum computed over it is exactly zero."""
    return internet_checksum(data) == 0


class TestInternetChecksum:
    def test_known_vector(self):
        # RFC 1071 example data.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_zero_data(self):
        assert internet_checksum(b"\x00" * 20) == 0xFFFF

    def test_odd_length(self):
        assert internet_checksum(b"\x01") == (~0x0100) & 0xFFFF

    def test_empty(self):
        assert internet_checksum(b"") == 0xFFFF

    @given(st.binary(min_size=0, max_size=256).filter(lambda d: len(d) % 2 == 0))
    def test_verify_after_insert(self, data):
        """Appending the computed checksum (word-aligned, as real protocol
        headers place it) makes the data verify."""
        csum = internet_checksum(data)
        patched = data + csum.to_bytes(2, "big")
        assert verify_checksum(patched)

    @given(st.binary(min_size=2, max_size=128))
    def test_checksum_in_range(self, data):
        assert 0 <= internet_checksum(data) <= 0xFFFF

    def test_initial_chaining(self):
        whole = internet_checksum(b"\x12\x34\x56\x78")
        assert 0 <= whole <= 0xFFFF


class TestVerifyChecksum:
    def test_all_zero_data_does_not_verify(self):
        """All-zero bytes sum to 0, not 0xFFFF — invalid, not vacuously OK."""
        assert not verify_checksum(b"\x00" * 20)
        assert not verify_checksum(b"")

    def test_odd_length_verifies(self):
        """Odd tails pad with a zero low byte, same as when computing."""
        data = b"\x12\x34\x56"
        csum = internet_checksum(data + b"\x00\x00")
        # Place the checksum word-aligned after the odd byte + pad position:
        # verifying data||csum must treat the odd byte identically.
        patched = data + b"\x00" + csum.to_bytes(2, "big")
        assert verify_checksum(patched)
        assert not verify_checksum(data)
