"""The receive path: opening the packets of a datagram, decoding their frames, frame processors."""

from __future__ import annotations

from typing import Any

from repro.core.protoop import ProtoopError
from repro.errors import CryptoError, ProtocolViolation, QuicError, TransportError

from .. import frames as F
from ..crypto import initial_crypto_pair
from ..packet import Epoch, decode_packet_number, parse_header
from ..recovery import PacketNumberSpace
from ..wire import Buffer
from .handshake import CID_LENGTH, ConnectionState
from .paths import PathState
from .send import INITIAL_PADDING_TARGET


class ReceiveMixin:
    def _default_parse_frame(self, buf: Buffer, frame_type: int) -> F.Frame:
        cls = self.frame_registry.lookup(frame_type)
        return cls.parse(buf, frame_type)

    @classmethod
    def _default_frame_processors(cls) -> dict:
        return {
            **dict.fromkeys((F.PADDING, F.PING, F.MAX_STREAMS, F.DATA_BLOCKED,
                             F.STREAM_DATA_BLOCKED, F.STOP_SENDING,
                             F.HANDSHAKE_DONE), cls._ignore_frame),
            F.ACK: cls._process_ack_frame,
            F.CRYPTO: cls._process_crypto_frame,
            "stream": cls._process_stream_frame,
            F.MAX_DATA: cls._process_max_data_frame,
            F.MAX_STREAM_DATA: cls._process_max_stream_data_frame,
            F.RESET_STREAM: cls._process_reset_stream_frame,
            F.NEW_CONNECTION_ID: cls._process_new_connection_id,
            F.PATH_CHALLENGE: cls._process_path_challenge,
            F.PATH_RESPONSE: cls._process_path_response,
            F.CONNECTION_CLOSE: cls._process_connection_close,
            F.CONNECTION_CLOSE + 1: cls._process_connection_close,
        }

    def _ignore_frame(self, frame: F.Frame, *_: Any) -> None:
        """Nothing to do for this frame type, on receipt or on ACK / loss."""

    def _frame_param(self, frame_type: int) -> Any:
        if F.STREAM_BASE <= frame_type < F.STREAM_BASE + 8:
            return "stream"
        return frame_type

    def _process_ack_frame(self, frame: F.AckFrame, ctx: dict) -> None:
        epoch: Epoch = ctx["epoch"]
        path = self.paths[ctx["path_index"]]
        space = self.initial_space if epoch is Epoch.INITIAL else path.space
        self.stats["acks_received"] += 1
        result = space.on_ack_received(frame, self.now, path.rtt)
        # Together with packets_lost this closes the send-side ledger:
        # packets_sent == packets_acked + packets_lost + len(space.sent)
        # at any instant — the conservation law the conformance oracles
        # check across execution modes.
        self.stats["packets_acked"] += len(result.newly_acked)
        if result.latest_rtt is not None:
            self.protoops.run(
                self, "update_rtt", None, path.index, result.latest_rtt, frame.ack_delay
            )
        for pkt in result.newly_acked:
            self.protoops.run(self, "on_packet_acked", None, pkt, path.index)
        for pkt in result.spurious:
            self._publish_window(path, "spurious_loss", self._run_spurious_loss,
                                 pkt, path.index)
        for pkt in result.lost:
            self.protoops.run(self, "on_packet_lost", None, pkt, path.index)
        self._maybe_persistent_congestion(space, path, result.lost)
        if result.newly_acked:
            # Forward progress: the PTO backoff restarts (RFC 9002 §6.2.1).
            self._pto_count = 0

    def _process_crypto_frame(self, frame: F.CryptoFrame, ctx: dict) -> None:
        readable = self._crypto_recv.receive(frame.offset, frame.data, False)
        if readable:
            self.protoops.run(self, "crypto_data_received", None, readable)

    def _process_stream_frame(self, frame: F.StreamFrame, ctx: dict) -> None:
        stream = self.protoops.run(self, "get_receive_stream", None, frame.stream_id)
        if stream is None:
            # Retired half: a late or duplicated copy of data the
            # application already has.  No state, no credit, no callback.
            return
        before = stream.bytes_received
        readable = stream.receive(frame.offset, frame.data, frame.fin)
        self._charge_data_received(stream.bytes_received - before)
        finished = stream.is_finished
        if finished:
            # Retire before the application hears about it, so that
            # ``fin=True`` can reach it only once whatever it does next.
            self._retire_stream_half(
                self.streams_recv, self.closed_streams_recv, frame.stream_id)
        self.protoops.run(
            self, "stream_data_received", None,
            frame.stream_id, readable, finished,
        )
        self.protoops.run(self, "update_flow_credit", None)

    def _process_max_data_frame(self, frame: F.MaxDataFrame, ctx: dict) -> None:
        if frame.maximum > self.max_data_remote:
            self.max_data_remote = frame.maximum

    def _process_max_stream_data_frame(self, frame: F.MaxStreamDataFrame, ctx: dict) -> None:
        stream = self._op_get_send_stream(frame.stream_id)
        if stream is not None:
            stream.update_max_stream_data(frame.maximum)

    def _process_reset_stream_frame(self, frame: F.ResetStreamFrame, ctx: dict) -> None:
        stream = self._op_get_receive_stream(frame.stream_id)
        if stream is None:
            return
        # RFC 9000 §4.5: the final size counts against connection flow
        # control whether or not the bytes below it ever arrived.
        self._charge_data_received(stream.reset(frame.final_size))
        self._retire_stream_half(
            self.streams_recv, self.closed_streams_recv, frame.stream_id)
        self.protoops.run(self, "stream_closed", None, frame.stream_id)
        self.protoops.run(self, "update_flow_credit", None)

    def _process_new_connection_id(self, frame: F.NewConnectionIdFrame, ctx: dict) -> None:
        """Stash a peer-issued CID (§5.1.1) for rotation on migration
        (§9.5), and its stateless reset token (§10.3) for detection."""
        if frame.connection_id and frame.connection_id not in self.peer_cids_available:
            self.peer_cids_available.append(bytes(frame.connection_id))
        if frame.reset_token:
            self._peer_reset_tokens.add(bytes(frame.reset_token))

    def _process_path_challenge(self, frame: F.PathChallengeFrame, ctx: dict) -> None:
        # §8.2.2: the response must leave on the path the challenge came
        # in on, so it rides the per-path probe queue rather than the
        # path-agnostic control-frame queue.
        path_index = ctx.get("path_index", 0)
        self.paths[path_index].probe_frames.append(
            F.PathResponseFrame(data=frame.data))
        self.stats["path_responses_sent"] += 1

    def _process_path_response(self, frame: F.PathResponseFrame, ctx: dict) -> None:
        for path in self.paths:
            if path.challenge_data == frame.data:
                path.challenge_data = None
                path.probe_deadline = None
                path.probe_count = 0
                path.amp_limited = False
                path.active = True
                self._set_path_state(path, PathState.VALIDATED)
                self.protoops.run(self, "path_validated", None, path.index)

    def _process_connection_close(self, frame: F.ConnectionCloseFrame, ctx: dict) -> None:
        if self.state is ConnectionState.ACTIVE:
            self._finish_close(frame.error_code, frame.reason,
                               next_state=ConnectionState.DRAINING)

    def _receive_while_closing(self, data: bytes, now: float,
                               path_index: int) -> None:
        """CLOSING-state receive path (RFC 9000 §10.2.1/§10.2.2): the
        peer's CONNECTION_CLOSE moves us to DRAINING; any other packet
        re-arms our own close packet, rate-limited by doubling the
        number of packets required between retransmissions.

        The datagram is opened and its frames parsed as in the ACTIVE
        state, but not processed; anything undecodable counts as
        not-a-close."""
        self.now = max(self.now, now)
        if path_index >= len(self.paths):
            path_index = 0
        try:
            closed = any(
                frame_type in (F.CONNECTION_CLOSE, F.CONNECTION_CLOSE + 1)
                for *_, plaintext, _ in self._open_packets(data, path_index)
                for frame_type, _ in self._decode_frames(plaintext))
        except (QuicError, ValueError, KeyError):
            closed = False
        if closed:
            self._close_frame_pending = None
            self._set_state(ConnectionState.DRAINING)
            return
        self._close_packets_seen += 1
        if self._close_packets_seen >= self._close_rexmit_threshold:
            self._close_packets_seen = 0
            self._close_rexmit_threshold *= 2
            if self.close_error is not None and self._close_frame_pending is None:
                self._close_frame_pending = F.ConnectionCloseFrame(
                    error_code=self.close_error[0], reason=self.close_error[1]
                )

    def _op_parse_packet_header(self, buf: Buffer) -> tuple:
        return parse_header(buf, CID_LENGTH)

    def _op_decode_packet_number(self, truncated: int, largest: int) -> int:
        return decode_packet_number(truncated, largest)

    def _op_process_incoming_packet(self, data: bytes, path_index: int) -> None:
        """Process every QUIC packet coalesced into the datagram (§12.2)."""
        if path_index >= len(self.paths):
            path_index = 0
        for header, epoch, pn, plaintext, space in self._open_packets(
                data, path_index):
            if epoch is Epoch.INITIAL and header.source_cid:
                # Both sides learn the peer's chosen source CID from Initials.
                self.peer_cid = header.source_cid
            if epoch is Epoch.ONE_RTT:
                # Spin bit: the server echoes, the client inverts (§4.1 / [96]).
                new_spin = (header.spin_bit if not self.is_client
                            else not header.spin_bit)
                if new_spin != self.spin_bit:
                    self.protoops.run(self, "spin_bit_flipped", None, new_spin)
                self.spin_bit = new_spin
            self._process_payload(epoch, path_index, pn, plaintext, space)

    def _open_packets(self, data: bytes, path_index: int):
        """Open the QUIC packets coalesced into the datagram (§12.2),
        yielding ``(header, epoch, packet number, plaintext, space)`` for
        each one that authenticates.  Lazy: a packet's number is decoded
        against its space once the packets before it were processed.

        Everything up to AEAD opening works on unauthenticated bytes: a
        corrupted datagram must be *dropped*, never close the connection
        (which a bare FrameEncodingError — a TransportError — would do).
        Once at least one packet of the datagram has authenticated, an
        undecodable or undecryptable tail ends the walk silently (§12.2:
        receivers ignore coalesced packets they cannot process); only a
        datagram with *no* authenticated packet raises, which keeps the
        stateless-reset check in :meth:`receive_datagram` reachable —
        a reset datagram (§10.3) never authenticates.
        """
        buf = Buffer(data)
        mview = memoryview(data)
        datagram_len = len(data)
        authenticated = False
        while not buf.eof():
            start = buf.position
            try:
                header, payload_len = self.protoops.run(
                    self, "parse_packet_header", None, buf)
                header_bytes = mview[start:buf.position]
                ciphertext = buf.pull_view(payload_len)
            except ProtoopError:
                raise
            except (TransportError, ValueError) as exc:
                if authenticated:
                    return
                raise CryptoError(f"undecodable packet header: {exc}") from exc
            epoch = header.epoch
            if epoch is Epoch.HANDSHAKE:
                if authenticated:
                    return
                raise CryptoError("handshake epoch unused in this model")
            if (epoch is Epoch.INITIAL and not self.is_client
                    and datagram_len < INITIAL_PADDING_TARGET):
                # §14.1: clients must expand Initial datagrams to 1200
                # bytes (the whole datagram counts, §12.2).  Dropping
                # smaller ones before deriving keys denies spoofed
                # mini-Initials both amplification and server-side state.
                self.stats["undersized_initials_dropped"] += 1
                if authenticated:
                    return
                raise CryptoError("client Initial datagram below 1200 bytes")
            if epoch is Epoch.INITIAL and self.crypto[Epoch.INITIAL] is None:
                # Server side: derive initial keys from the client's DCID.
                self._original_dcid = header.destination_cid
                self.crypto[Epoch.INITIAL] = initial_crypto_pair(
                    header.destination_cid, False)
            pair = self.crypto[epoch]
            if pair is None:
                if authenticated:
                    return
                raise CryptoError(f"no keys for epoch {epoch}")
            space = (self.initial_space if epoch is Epoch.INITIAL
                     else self.paths[path_index].space)
            full_pn = self.protoops.run(
                self, "decode_packet_number", None,
                header.packet_number, space.largest_received,
            )
            try:
                plaintext = pair.recv.open(full_pn, header_bytes, ciphertext)
            except CryptoError:
                if authenticated:
                    return
                raise
            authenticated = True
            yield header, epoch, full_pn, plaintext, space

    def _decode_frames(self, plaintext: bytes) -> list:
        """``(frame type, frame)`` for every frame of a packet payload,
        each parsed by the ``parse_frame`` operation of its type (the
        default one when no plugin registered the type)."""
        buf = Buffer(plaintext)
        decoded = []
        table = self.protoops
        while not buf.eof():
            frame_type = buf.pull_varint()
            param = self._frame_param(frame_type)
            if not table.has_behavior("parse_frame", param):
                param = "default"
            decoded.append(
                (frame_type, table.run(self, "parse_frame", param, buf, frame_type)))
        return decoded

    def _process_payload(
        self,
        epoch: Epoch,
        path_index: int,
        pn: int,
        plaintext: bytes,
        space: PacketNumberSpace,
    ) -> None:
        self.stats["packets_received"] += 1
        ctx = {"epoch": epoch, "path_index": path_index, "packet_number": pn}
        ack_eliciting = False
        decoded = self._decode_frames(plaintext)
        table = self.protoops
        largest = space.largest_received
        if not space.record_received(pn, self.now, False):
            self.stats["spurious_received"] += 1
            return  # duplicate (e.g. already FEC-recovered)
        for frame_type, frame in decoded:
            self.stats["frames_received"] += 1
            if frame.ack_eliciting:
                ack_eliciting = True
            param = self._frame_param(frame_type)
            if param not in table.known_params("process_frame"):
                raise ProtocolViolation(f"no processor for frame 0x{frame_type:x}")
            table.run(self, "process_frame", param, frame, ctx)
        if ack_eliciting:
            # RFC 9000 §13.2.1-13.2.2: ack at once an Initial, anything
            # before the handshake completes, a packet out of order (a gap
            # or below the largest) and the second one owed; otherwise
            # within our max_ack_delay.
            delayed = (epoch is Epoch.ONE_RTT and self.handshake_complete
                       and not space.ack_needed and pn == largest + 1)
            space.ack_due = self.now + (
                self.configuration.transport_parameters.max_ack_delay
                if delayed else 0.0)
            space.ack_needed = True
        self.protoops.run(self, "frames_decoded", None, epoch, path_index, pn, decoded)
        self.protoops.run(
            self, "packet_received_event", None, epoch, path_index, pn, plaintext
        )

    def _op_process_recovered_payload(self, path_index: int, pn: int, plaintext: bytes) -> None:
        """Inject a FEC-recovered packet payload as if the packet arrived."""
        space = self.paths[path_index].space
        if pn in space.received:
            return
        self._process_payload(Epoch.ONE_RTT, path_index, pn, plaintext, space)
