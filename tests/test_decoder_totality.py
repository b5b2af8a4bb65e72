"""Decoders of peer bytes are total: each parses or raises the one error
its caller handles — a ``TransportError`` for the QUIC decoders, a
``FrameEncodingError`` or ``ValueError`` for ``Plugin.deserialize`` —
and never a stray ``KeyError`` or ``UnicodeDecodeError`` from deep
inside a codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.plugin as plugin_module
from repro.core import Plugin
from repro.errors import FrameEncodingError, TransportError
from repro.plugins import build_monitoring_plugin
from repro.quic import frames as F
from repro.quic.packet import parse_header
from repro.quic.transport_params import TransportParameters
from repro.quic.wire import Buffer, encode_varint
from repro.vm import programs


def framed(parts) -> bytes:
    """``(type or id, body)`` pairs, each led by its varint."""
    return b"".join(encode_varint(tag) + body for tag, body in parts)


def parses_or_transport_error(decode, data):
    try:
        decode(data)
    except TransportError:
        pass


FRAME_PAYLOADS = st.one_of(
    st.binary(max_size=96),
    st.lists(st.tuples(st.sampled_from(sorted(F.CORE_FRAMES)),
                       st.binary(max_size=24)), max_size=6).map(framed))

HEADERS = st.tuples(st.sampled_from([0x40, 0x41, 0x60, 0xC0, 0xC3, 0xD0,
                                     0xE0, 0x00]),
                    st.binary(max_size=64)).map(lambda t: bytes([t[0]]) + t[1])


def tp_entry(pid_and_body):
    pid, body = pid_and_body
    return encode_varint(pid) + encode_varint(len(body)) + body


TRANSPORT_PARAMETERS = st.one_of(
    st.binary(max_size=96),
    st.lists(st.tuples(st.sampled_from([0x01, 0x02, 0x03, 0x04, 0x05, 0x08,
                                        0x09, 0x0A, 0x0B, 0x0F, 0x50, 0x51,
                                        0x3F]),
                       st.binary(max_size=16)),
             max_size=6).map(lambda entries: b"".join(map(tp_entry, entries))))


@given(FRAME_PAYLOADS)
@settings(max_examples=300, deadline=None)
def test_parse_all_parses_or_raises_a_transport_error(data):
    parses_or_transport_error(F.FrameRegistry().parse_all, data)


@given(HEADERS)
@settings(max_examples=300, deadline=None)
def test_parse_header_parses_or_raises_a_transport_error(data):
    parses_or_transport_error(lambda d: parse_header(Buffer(d), 8), data)


@given(TRANSPORT_PARAMETERS)
@settings(max_examples=300, deadline=None)
def test_transport_parameters_parse_or_raise_a_transport_error(data):
    parses_or_transport_error(TransportParameters.parse, data)


def test_a_plugin_name_that_is_not_ascii_is_a_transport_error():
    names = encode_varint(1) + encode_varint(2) + b"\xc3\xa9"
    with pytest.raises(TransportError, match="not ASCII"):
        TransportParameters.parse(tp_entry((0x50, names)))


# --- Plugin.deserialize ----------------------------------------------------

WIRE = build_monitoring_plugin().serialize()

#: Up to three (position, xor mask) flips of the monitoring plugin.
FLIPS = st.lists(st.tuples(st.integers(0, len(WIRE) - 1),
                           st.integers(1, 255)), min_size=1, max_size=3)


def flipped(flips) -> bytes:
    wire = bytearray(WIRE)
    for position, mask in flips:
        wire[position] ^= mask
    return bytes(wire)


def outcome(data):
    """What decoding ``data`` gives: the plugin's canonical bytes, or the
    error's type and message."""
    try:
        return Plugin.deserialize(data).serialize()
    except (FrameEncodingError, ValueError) as exc:
        return type(exc), str(exc)


@given(st.one_of(FLIPS.map(flipped), st.binary(max_size=200)))
@settings(max_examples=300, deadline=None)
def test_deserialize_decodes_or_raises_a_decode_error_the_same_twice(data):
    programs.clear()
    first = outcome(data)
    kept = data in programs._DECODED
    assert outcome(data) == first
    assert kept == isinstance(first, bytes)  # a failed decode is not kept


#: The monitoring plugin followed by one to eight bytes.
SUFFIXED = st.binary(min_size=1, max_size=8).map(lambda tail: WIRE + tail)


@given(st.one_of(FLIPS.map(flipped), SUFFIXED, st.binary(max_size=200)))
@settings(max_examples=300, deadline=None)
def test_bytes_that_decode_re_serialize_to_themselves(data):
    """A decode reads every byte it is given: bytes after the last
    pluglet, or a parameter tag outside 0-2, are a decode error, so the
    plugin a validator vouches for is the plugin every receiver binds."""
    try:
        plugin = Plugin.deserialize(data)
    except (FrameEncodingError, ValueError):
        return
    assert plugin.serialize() == data


def test_an_unknown_anchor_byte_is_a_value_error():
    """Anchor bytes 0-3 are defined; any other is a decode error, not a
    ``KeyError`` from the anchor table."""
    plugin = build_monitoring_plugin()
    first = plugin.pluglets[0]
    wire = bytearray(WIRE)
    at = WIRE.index(first.protoop.encode()) + len(first.protoop)
    assert wire[at] == plugin_module._ANCHORS[first.anchor]
    wire[at] = 9
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown anchor byte 9"):
            Plugin.deserialize(bytes(wire))
    assert not programs._DECODED

