"""Transport parameter codec tests, including PQUIC's plugin parameters."""

import pytest

from repro.errors import TransportError
from repro.quic.transport_params import TransportParameters


def test_roundtrip_defaults():
    params = TransportParameters()
    parsed = TransportParameters.parse(params.serialize())
    assert parsed.idle_timeout == params.idle_timeout
    assert parsed.initial_max_data == params.initial_max_data
    assert parsed.initial_max_stream_data == params.initial_max_stream_data
    assert parsed.initial_max_streams_bidi == params.initial_max_streams_bidi
    assert parsed.supported_plugins == []
    assert parsed.plugins_to_inject == []


def test_roundtrip_custom_values():
    params = TransportParameters(
        idle_timeout=7.5,
        max_udp_payload_size=1350,
        initial_max_data=999_999,
        initial_max_stream_data=88_888,
        original_dcid=b"\x01\x02\x03",
    )
    parsed = TransportParameters.parse(params.serialize())
    assert parsed.idle_timeout == pytest.approx(7.5)
    assert parsed.max_udp_payload_size == 1350
    assert parsed.initial_max_data == 999_999
    assert parsed.original_dcid == b"\x01\x02\x03"


def test_max_ack_delay_roundtrip():
    # RFC 9000 §18.2: max_ack_delay travels as milliseconds.
    params = TransportParameters(max_ack_delay=0.040)
    parsed = TransportParameters.parse(params.serialize())
    assert parsed.max_ack_delay == pytest.approx(0.040)


def test_max_ack_delay_default():
    parsed = TransportParameters.parse(TransportParameters().serialize())
    assert parsed.max_ack_delay == pytest.approx(0.025)


def test_plugin_parameters_roundtrip():
    # §3.4: supported_plugins / plugins_to_inject are ordered lists.
    params = TransportParameters(
        supported_plugins=["monitoring", "multipath"],
        plugins_to_inject=["fec", "datagram"],
    )
    parsed = TransportParameters.parse(params.serialize())
    assert parsed.supported_plugins == ["monitoring", "multipath"]
    assert parsed.plugins_to_inject == ["fec", "datagram"]


def test_plugin_list_order_preserved():
    params = TransportParameters(plugins_to_inject=["c", "a", "b"])
    parsed = TransportParameters.parse(params.serialize())
    assert parsed.plugins_to_inject == ["c", "a", "b"]


def test_duplicate_parameter_rejected():
    params = TransportParameters()
    data = params.serialize()
    with pytest.raises(TransportError):
        TransportParameters.parse(data + data)


def test_udp_payload_size_floor():
    params = TransportParameters(max_udp_payload_size=1100)
    with pytest.raises(TransportError):
        TransportParameters.parse(params.serialize())


def test_unknown_parameters_ignored():
    from repro.quic.wire import Buffer

    params = TransportParameters()
    buf = Buffer()
    buf.push_varint(0x7777)
    buf.push_varint_prefixed_bytes(b"whatever")
    parsed = TransportParameters.parse(params.serialize() + buf.data())
    assert parsed.initial_max_data == params.initial_max_data


def test_serialize_bytes_are_pinned():
    """The wire image of a full parameter set — every varint parameter,
    ``original_dcid``, a reset token and both plugin lists — is fixed:
    a codec rewrite must reproduce it byte for byte."""
    params = TransportParameters(
        idle_timeout=12.5,
        initial_max_data=70_000,
        original_dcid=bytes(range(8)),
        stateless_reset_token=bytes(range(16, 32)),
        supported_plugins=["org.pquic.monitoring", "org.pquic.fec"],
        plugins_to_inject=["org.pquic.multipath"],
    )
    assert params.serialize().hex() == (
        "010270d4030245ac04048001117005048004000008024064090240640a0103"
        "0b01190f0800010203040506070210101112131415161718191a1b1c1d1e1f"
        "40502402146f72672e70717569632e6d6f6e69746f72696e670d6f72672e70"
        "717569632e66656340511501136f72672e70717569632e6d756c7469706174"
        "68"
    )
