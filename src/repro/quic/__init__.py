"""A pluginized QUIC implementation (sans-io) plus simulator endpoints."""

from repro.errors import QuicError, TransportError, TransportErrorCode

from .cc import DEFAULT_INITIAL_WINDOW, NewRenoController
from .connection import (
    Path,
    QuicConfiguration,
    QuicConnection,
    ReservedFrame,
)
from .crypto import AeadContext, CryptoPair
from .endpoint import ClientEndpoint, ServerEndpoint
from .packet import Epoch, PacketType
from .recovery import PacketNumberSpace, RttEstimator, SentPacket
from .stream import ReceiveStream, SendStream
from .transport_params import TransportParameters
from .wire import Buffer, RangeSet

__all__ = [
    "AeadContext",
    "Buffer",
    "ClientEndpoint",
    "CryptoPair",
    "DEFAULT_INITIAL_WINDOW",
    "Epoch",
    "NewRenoController",
    "PacketNumberSpace",
    "PacketType",
    "Path",
    "QuicConfiguration",
    "QuicConnection",
    "QuicError",
    "RangeSet",
    "ReceiveStream",
    "ReservedFrame",
    "RttEstimator",
    "SendStream",
    "SentPacket",
    "ServerEndpoint",
    "TransportError",
    "TransportErrorCode",
    "TransportParameters",
]
