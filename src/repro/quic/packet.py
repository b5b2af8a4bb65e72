"""QUIC packet headers: long (Initial/Handshake) and short (1-RTT).

The wire image is a simplified but faithful rendering of the draft-14
design: long headers carry version and both connection IDs during the
handshake, short headers carry only the destination CID plus the Spin Bit
(§4.1), packet numbers are truncated to 32 bits on the wire and recovered
against the largest received number, and everything after the header is
AEAD-protected.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import FrameEncodingError, ProtocolViolation

from .crypto import AeadContext
from .wire import Buffer, encode_varint

QUIC_VERSION = 0xFF00000E  # draft-14

FORM_LONG = 0x80
FIXED_BIT = 0x40
SPIN_BIT = 0x20
LONG_TYPE_INITIAL = 0x00
LONG_TYPE_HANDSHAKE = 0x10
PN_WIRE_BYTES = 4

#: Memoized short-header prefix splits: raw (flags + CID) bytes ->
#: (destination_cid, spin_bit).  Bounded and cleared wholesale when full.
_SHORT_PREFIX_CACHE: dict = {}
_SHORT_PREFIX_CACHE_LIMIT = 4096


class PacketType(enum.Enum):
    INITIAL = "initial"
    HANDSHAKE = "handshake"
    ONE_RTT = "1rtt"


class Epoch(enum.IntEnum):
    """Packet number spaces / encryption epochs."""

    INITIAL = 0
    HANDSHAKE = 1
    ONE_RTT = 2


EPOCH_FOR_TYPE = {
    PacketType.INITIAL: Epoch.INITIAL,
    PacketType.HANDSHAKE: Epoch.HANDSHAKE,
    PacketType.ONE_RTT: Epoch.ONE_RTT,
}


@dataclass
class PacketHeader:
    """Decoded header fields of an incoming packet."""

    packet_type: PacketType
    destination_cid: bytes
    source_cid: bytes = b""
    version: int = QUIC_VERSION
    token: bytes = b""
    spin_bit: bool = False
    packet_number: int = 0  # truncated; expanded by the receiver

    @property
    def epoch(self) -> Epoch:
        return EPOCH_FOR_TYPE[self.packet_type]


def encode_packet_number(pn: int) -> bytes:
    return (pn & 0xFFFFFFFF).to_bytes(PN_WIRE_BYTES, "big")


def decode_packet_number(truncated: int, largest_received: int) -> int:
    """Expand a 32-bit truncated packet number (RFC 9000 A.3, 32-bit window)."""
    expected = largest_received + 1
    window = 1 << (PN_WIRE_BYTES * 8)
    half = window // 2
    candidate = (expected & ~(window - 1)) | truncated
    if candidate <= expected - half and candidate + window < (1 << 62):
        return candidate + window
    if candidate > expected + half and candidate >= window:
        return candidate - window
    return candidate


def encode_long_header(
    packet_type: PacketType,
    destination_cid: bytes,
    source_cid: bytes,
    packet_number: int,
    payload_length: int,
    token: bytes = b"",
    version: int = QUIC_VERSION,
) -> bytes:
    if packet_type not in (PacketType.INITIAL, PacketType.HANDSHAKE):
        raise ValueError(f"not a long-header type: {packet_type}")
    flags = FORM_LONG | FIXED_BIT
    flags |= LONG_TYPE_INITIAL if packet_type is PacketType.INITIAL else LONG_TYPE_HANDSHAKE
    out = bytearray()
    out.append(flags)
    out += (version & 0xFFFFFFFF).to_bytes(4, "big")
    out.append(len(destination_cid))
    out += destination_cid
    out.append(len(source_cid))
    out += source_cid
    if packet_type is PacketType.INITIAL:
        out += encode_varint(len(token))
        out += token
    out += encode_varint(payload_length + PN_WIRE_BYTES)
    out += encode_packet_number(packet_number)
    return bytes(out)


def encode_short_header(
    destination_cid: bytes,
    packet_number: int,
    spin_bit: bool = False,
) -> bytes:
    flags = FIXED_BIT | (SPIN_BIT if spin_bit else 0)
    return (bytes((flags,)) + destination_cid
            + encode_packet_number(packet_number))


def parse_header(buf: Buffer, local_cid_length: int) -> tuple[PacketHeader, int]:
    """Parse one packet header from ``buf``.

    Returns (header, payload_length). For short-header packets the payload
    runs to the end of the datagram (payload_length == buf.remaining after
    the header).  ``local_cid_length`` tells the receiver how many bytes of
    destination CID to strip from a short header.
    """
    start = buf.position
    flags = buf.pull_uint8()
    if not flags & FIXED_BIT:
        raise ProtocolViolation("fixed bit is zero")
    if flags & FORM_LONG:
        version = buf.pull_uint32()
        dcid = buf.pull_bytes(buf.pull_uint8())
        scid = buf.pull_bytes(buf.pull_uint8())
        long_type = flags & 0x30
        if long_type == LONG_TYPE_INITIAL:
            ptype = PacketType.INITIAL
            token = buf.pull_bytes(buf.pull_varint())
        elif long_type == LONG_TYPE_HANDSHAKE:
            ptype = PacketType.HANDSHAKE
            token = b""
        else:
            raise ProtocolViolation(f"unknown long packet type {long_type:#x}")
        length = buf.pull_varint()
        if length < PN_WIRE_BYTES or length - PN_WIRE_BYTES > buf.remaining:
            raise FrameEncodingError("long header length field invalid")
        pn = buf.pull_uint32()
        header = PacketHeader(
            packet_type=ptype,
            destination_cid=dcid,
            source_cid=scid,
            version=version,
            token=token,
            packet_number=pn,
        )
        return header, length - PN_WIRE_BYTES
    # Short header.  A receiver sees the same (flags, destination CID)
    # prefix on almost every 1-RTT packet of a connection, so the CID
    # split is memoized on the raw prefix bytes.
    buf.seek(start)
    prefix = buf.pull_bytes(1 + local_cid_length)
    split = _SHORT_PREFIX_CACHE.get(prefix)
    if split is None:
        if len(_SHORT_PREFIX_CACHE) >= _SHORT_PREFIX_CACHE_LIMIT:
            _SHORT_PREFIX_CACHE.clear()
        split = (prefix[1:], bool(flags & SPIN_BIT))
        _SHORT_PREFIX_CACHE[prefix] = split
    pn = buf.pull_uint32()
    header = PacketHeader(
        packet_type=PacketType.ONE_RTT,
        destination_cid=split[0],
        spin_bit=split[1],
        packet_number=pn,
    )
    return header, buf.remaining


def seal_packet_into(
    out: bytearray, header_bytes: bytes, payload: bytes,
    aead: AeadContext, full_pn: int,
) -> None:
    """Append the complete wire packet into ``out`` (the pooled datagram
    buffer) without per-packet concatenation; bit-identical to
    ``header_bytes + aead.seal(full_pn, header_bytes, payload)``."""
    aead.seal_into(out, full_pn, header_bytes, payload)


def open_payload(
    header_bytes: bytes, ciphertext: bytes, aead: AeadContext, full_pn: int
) -> bytes:
    """Decrypt a packet payload given its reconstructed packet number."""
    return aead.open(full_pn, header_bytes, ciphertext)
