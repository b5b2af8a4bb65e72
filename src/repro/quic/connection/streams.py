"""Streams and flow control: the stream tables, stream lookup and receive credit (RFC 9000 §4)."""

from __future__ import annotations

from typing import Optional

from repro.errors import TransportError, TransportErrorCode

from .. import frames as F
from ..stream import ReceiveStream, SendStream
from ..wire import RangeSet


def _closed_id_sets() -> tuple:
    """Closed-stream-ID sets of one direction: a :class:`RangeSet` of
    ``stream_id >> 2`` per stream type (``stream_id & 3``), so streams
    closed in order collapse into a single range."""
    return tuple(RangeSet() for _ in range(4))


class StreamsMixin:
    def _op_create_stream(self) -> int:
        stream_id = self._next_stream_id
        self._next_stream_id += 4
        self._get_or_create_streams(stream_id)
        self.protoops.run(self, "stream_opened", None, stream_id)
        return stream_id

    def _remote_stream_limit(self) -> int:
        params = self.peer_transport_parameters
        if params is None:
            return self.configuration.transport_parameters.initial_max_stream_data
        return params.initial_max_stream_data

    def _get_or_create_streams(self, stream_id: int) -> None:
        """Create each half of *stream_id* that is neither live nor
        retired: a closed stream ID never comes back to life."""
        kind, index = stream_id & 3, stream_id >> 2
        if (stream_id not in self.streams_send
                and index not in self.closed_streams_send[kind]):
            self.streams_send[stream_id] = SendStream(
                stream_id, self._remote_stream_limit()
            )
        if (stream_id not in self.streams_recv
                and index not in self.closed_streams_recv[kind]):
            self.streams_recv[stream_id] = ReceiveStream(
                stream_id,
                self.configuration.transport_parameters.initial_max_stream_data,
                self.now,
            )

    def _retire_stream_half(self, table: dict, closed: tuple,
                            stream_id: int) -> None:
        """Move a half that reached its terminal state from its live
        *table* to the matching *closed*-ID sets."""
        del table[stream_id]
        closed[stream_id & 3].add(stream_id >> 2)
        self.stats["stream_halves_retired"] += 1

    def _op_get_send_stream(self, stream_id: int) -> Optional[SendStream]:
        """The live send half, created on first reference; None once it
        has been retired."""
        stream = self.streams_send.get(stream_id)
        if stream is None:
            self._get_or_create_streams(stream_id)
            stream = self.streams_send.get(stream_id)
        return stream

    def _op_get_receive_stream(self, stream_id: int) -> Optional[ReceiveStream]:
        """The live receive half, created on first reference; None once
        it has been retired."""
        stream = self.streams_recv.get(stream_id)
        if stream is None:
            self._get_or_create_streams(stream_id)
            stream = self.streams_recv.get(stream_id)
        return stream

    def _op_stream_data_received(self, stream_id: int, readable: bytes, fin: bool) -> None:
        if self.on_stream_data is not None and (readable or fin):
            self.on_stream_data(stream_id, readable, fin)

    def _op_get_max_data(self) -> int:
        return self.max_data_remote

    def _op_should_send_max_data(self) -> bool:
        return self._data_window.due(self.data_received, self.max_data_local)

    def _op_update_flow_credit(self) -> None:
        """Raise connection and stream receive windows as data is consumed.

        Each renewal retunes its window to the delivery rate since the
        previous renewal × the min RTT of path 0, the path the handshake
        ran on (see :class:`~repro.quic.stream.FlowWindow`)."""
        min_rtt = self.paths[0].rtt.min_rtt
        if self.protoops.run(self, "should_send_max_data", None):
            new_limit = self._data_window.renew(
                self.data_received, self.data_received, self.max_data_local,
                self.now, min_rtt)
            if new_limit:
                self.max_data_local = new_limit
                self.protoops.run(
                    self, "queue_control_frame", None,
                    F.MaxDataFrame(maximum=new_limit),
                )
                self.protoops.run(self, "flow_control_raised", None, new_limit)
        for stream_id, stream in self.streams_recv.items():
            if stream.final_size is not None:
                continue
            if stream.window.due(stream.bytes_received, stream.max_stream_data):
                new_limit = stream.grant_credit(self.now, min_rtt)
                if new_limit:
                    self.protoops.run(
                        self, "queue_control_frame", None,
                        F.MaxStreamDataFrame(stream_id=stream_id, maximum=new_limit),
                    )

    def _charge_data_received(self, newly: int) -> None:
        """Count *newly* received stream bytes against the connection
        flow-control limit we advertised."""
        if newly > 0:
            self.data_received += newly
            if self.data_received > self.max_data_local:
                raise TransportError(
                    TransportErrorCode.FLOW_CONTROL_ERROR,
                    "connection flow control exceeded",
                )

    def _op_stream_bytes_pending(self) -> int:
        """Application bytes waiting for (re)transmission."""
        return sum(s.bytes_in_flight_or_pending for s in self.streams_send.values())

    def _op_stream_to_send(self) -> Optional[int]:
        """Pick the first live stream, in order of creation, that has
        sendable data."""
        for stream_id, stream in self.streams_send.items():
            if stream.has_pending:
                return stream_id
        return None

    def connection_flow_credit(self) -> int:
        return max(0, self.max_data_remote - self.data_sent)
