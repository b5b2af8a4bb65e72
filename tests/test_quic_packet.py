"""Packet header encoding/decoding and packet-number reconstruction."""

import pytest

from repro.quic.crypto import AeadContext
from repro.errors import ProtocolViolation
from repro.quic.packet import (
    PN_WIRE_BYTES,
    Epoch,
    PacketType,
    decode_packet_number,
    encode_long_header,
    encode_short_header,
    open_payload,
    parse_header,
    seal_packet_into,
)
from repro.quic.wire import Buffer

DCID = b"\xaa" * 8
SCID = b"\xbb" * 8


def test_long_header_roundtrip_initial():
    hdr = encode_long_header(PacketType.INITIAL, DCID, SCID, 5, 100, token=b"tok")
    parsed, payload_len = parse_header(Buffer(hdr + b"\x00" * 100), 8)
    assert parsed.packet_type is PacketType.INITIAL
    assert parsed.destination_cid == DCID
    assert parsed.source_cid == SCID
    assert parsed.token == b"tok"
    assert parsed.packet_number == 5
    assert payload_len == 100
    assert parsed.epoch is Epoch.INITIAL


def test_long_header_roundtrip_handshake():
    hdr = encode_long_header(PacketType.HANDSHAKE, DCID, SCID, 1, 10)
    parsed, payload_len = parse_header(Buffer(hdr + b"\x00" * 10), 8)
    assert parsed.packet_type is PacketType.HANDSHAKE
    assert payload_len == 10


def test_long_header_rejects_short_type():
    with pytest.raises(ValueError):
        encode_long_header(PacketType.ONE_RTT, DCID, SCID, 0, 0)


def test_short_header_roundtrip():
    hdr = encode_short_header(DCID, 77, spin_bit=True)
    parsed, payload_len = parse_header(Buffer(hdr + b"xyz"), 8)
    assert parsed.packet_type is PacketType.ONE_RTT
    assert parsed.destination_cid == DCID
    assert parsed.spin_bit is True
    assert parsed.packet_number == 77
    assert payload_len == 3
    assert parsed.epoch is Epoch.ONE_RTT


def test_short_header_spin_bit_clear():
    hdr = encode_short_header(DCID, 0, spin_bit=False)
    parsed, _ = parse_header(Buffer(hdr), 8)
    assert parsed.spin_bit is False


def test_fixed_bit_violation():
    with pytest.raises(ProtocolViolation):
        parse_header(Buffer(b"\x00" + b"\x00" * 20), 8)


def test_length_field_validated():
    hdr = encode_long_header(PacketType.INITIAL, DCID, SCID, 0, 1000)
    # Truncate the datagram: length says 1000 but nothing follows.
    with pytest.raises(Exception):
        parse_header(Buffer(hdr), 8)


class TestPacketNumberDecode:
    def test_sequential(self):
        for expected in (0, 1, 100, 2**20):
            truncated = (expected + 1) & 0xFFFFFFFF
            assert decode_packet_number(truncated, expected) == expected + 1

    def test_wraparound_forward(self):
        largest = (1 << 32) - 2
        truncated = 1  # the next packet crossed the 32-bit boundary
        assert decode_packet_number(truncated, largest) == (1 << 32) + 1

    def test_late_packet_below_window(self):
        largest = (1 << 32) + 5
        truncated = (1 << 32) - 1 & 0xFFFFFFFF
        decoded = decode_packet_number(truncated, largest)
        assert decoded == (1 << 32) - 1

    def test_first_packet(self):
        assert decode_packet_number(0, -1) == 0


def test_seal_and_open_packet():
    aead = AeadContext(b"k" * 32)
    hdr = encode_short_header(DCID, 3)
    packet = bytearray()
    seal_packet_into(packet, hdr, b"frame bytes", aead, 3)
    parsed, payload_len = parse_header(Buffer(packet), 8)
    assert payload_len == len(packet) - len(hdr)
    plaintext = open_payload(hdr, packet[len(hdr):], aead, 3)
    assert plaintext == b"frame bytes"
