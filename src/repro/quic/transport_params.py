"""QUIC transport parameters, including PQUIC's two plugin parameters.

Section 3.4: "PQUIC proposes two new QUIC transport parameters:
``supported_plugins`` and ``plugins_to_inject``, both containing an ordered
list of protocol plugins identifiers."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import TransportError, TransportErrorCode

from .wire import Buffer, varint_size

# Parameter IDs (core ones follow RFC 9000 numbering; the PQUIC ones use a
# private-range id, as an experimental extension would).
PARAM_IDLE_TIMEOUT = 0x01
PARAM_STATELESS_RESET_TOKEN = 0x02
PARAM_MAX_UDP_PAYLOAD_SIZE = 0x03
PARAM_INITIAL_MAX_DATA = 0x04
PARAM_INITIAL_MAX_STREAM_DATA = 0x05
PARAM_INITIAL_MAX_STREAMS_BIDI = 0x08
PARAM_INITIAL_MAX_STREAMS_UNI = 0x09
PARAM_ACK_DELAY_EXPONENT = 0x0A
PARAM_MAX_ACK_DELAY = 0x0B
PARAM_ORIGINAL_DCID = 0x0F
PARAM_SUPPORTED_PLUGINS = 0x50
PARAM_PLUGINS_TO_INJECT = 0x51

#: Parameters whose payload is one varint: (id, attribute, scale) — the
#: times travel as milliseconds (RFC 9000 §18.2).
_VARINT_PARAMS = (
    (PARAM_IDLE_TIMEOUT, "idle_timeout", 1000),
    (PARAM_MAX_UDP_PAYLOAD_SIZE, "max_udp_payload_size", 1),
    (PARAM_INITIAL_MAX_DATA, "initial_max_data", 1),
    (PARAM_INITIAL_MAX_STREAM_DATA, "initial_max_stream_data", 1),
    (PARAM_INITIAL_MAX_STREAMS_BIDI, "initial_max_streams_bidi", 1),
    (PARAM_INITIAL_MAX_STREAMS_UNI, "initial_max_streams_uni", 1),
    (PARAM_ACK_DELAY_EXPONENT, "ack_delay_exponent", 1),
    (PARAM_MAX_ACK_DELAY, "max_ack_delay", 1000),
)
_VARINT_BY_ID = {pid: (attr, scale) for pid, attr, scale in _VARINT_PARAMS}


@dataclass
class TransportParameters:
    """The negotiated per-connection transport configuration."""

    idle_timeout: float = 30.0
    max_udp_payload_size: int = 1452
    initial_max_data: int = 1024 * 1024
    initial_max_stream_data: int = 256 * 1024
    initial_max_streams_bidi: int = 100
    initial_max_streams_uni: int = 100
    ack_delay_exponent: int = 3
    #: Most delay (seconds) this endpoint may hold ACKs; the peer caps
    #: reported ack_delays here when adjusting RTT (RFC 9002 §5.3).
    max_ack_delay: float = 0.025
    original_dcid: Optional[bytes] = None
    #: §10.3: the stateless reset token the server will use for the CID
    #: negotiated in the handshake (servers only; RFC 9000 §18.2).
    stateless_reset_token: Optional[bytes] = None
    supported_plugins: list = field(default_factory=list)
    plugins_to_inject: list = field(default_factory=list)

    def serialize(self) -> bytes:
        buf = Buffer()

        def put(pid: int, payload: bytes) -> None:
            buf.push_varint(pid)
            buf.push_varint_prefixed_bytes(payload)

        for pid, attr, scale in _VARINT_PARAMS:
            # The payload is the value's own varint, written in place.
            value = int(getattr(self, attr) * scale)
            buf.push_varint(pid)
            buf.push_varint(varint_size(value))
            buf.push_varint(value)
        if self.original_dcid is not None:
            put(PARAM_ORIGINAL_DCID, self.original_dcid)
        if self.stateless_reset_token is not None:
            put(PARAM_STATELESS_RESET_TOKEN, self.stateless_reset_token)
        for pid, names in (
            (PARAM_SUPPORTED_PLUGINS, self.supported_plugins),
            (PARAM_PLUGINS_TO_INJECT, self.plugins_to_inject),
        ):
            if names:
                put(pid, _encode_plugin_list(names))
        return buf.data()

    @classmethod
    def parse(cls, data: bytes) -> "TransportParameters":
        params = cls()
        buf = Buffer(data)
        seen: set[int] = set()
        while not buf.eof():
            pid = buf.pull_varint()
            payload = buf.pull_varint_prefixed_bytes()
            if pid in seen:
                raise TransportError(
                    TransportErrorCode.TRANSPORT_PARAMETER_ERROR,
                    f"duplicate transport parameter 0x{pid:x}",
                )
            seen.add(pid)
            if pid in _VARINT_BY_ID:
                attr, scale = _VARINT_BY_ID[pid]
                value = Buffer(payload).pull_varint()
                setattr(params, attr, value if scale == 1 else value / scale)
            elif pid == PARAM_ORIGINAL_DCID:
                params.original_dcid = payload
            elif pid == PARAM_STATELESS_RESET_TOKEN:
                params.stateless_reset_token = payload
            elif pid == PARAM_SUPPORTED_PLUGINS:
                params.supported_plugins = _decode_plugin_list(payload)
            elif pid == PARAM_PLUGINS_TO_INJECT:
                params.plugins_to_inject = _decode_plugin_list(payload)
            # Unknown parameters are ignored (must-ignore semantics).
        if params.max_udp_payload_size < 1200:
            raise TransportError(
                TransportErrorCode.TRANSPORT_PARAMETER_ERROR,
                "max_udp_payload_size below 1200",
            )
        return params


def _encode_plugin_list(names: list) -> bytes:
    buf = Buffer()
    buf.push_varint(len(names))
    for name in names:
        buf.push_varint_prefixed_bytes(name.encode("ascii"))
    return buf.data()


def _decode_plugin_list(payload: bytes) -> list:
    buf = Buffer(payload)
    count = buf.pull_varint()
    names = []
    for _ in range(count):
        name = buf.pull_varint_prefixed_bytes()
        if not name.isascii():
            raise TransportError(
                TransportErrorCode.TRANSPORT_PARAMETER_ERROR,
                "plugin name is not ASCII",
            )
        names.append(name.decode("ascii"))
    return names
