"""The send path: building, protecting and coalescing packets, and frame
scheduling (:mod:`repro.core.scheduler`, CBQ+DRR once plugins reserve)."""

from __future__ import annotations

from typing import Any, Optional

from repro.core.scheduler import ReservedFrame

from .. import frames as F
from ..cc import MAX_DATAGRAM_SIZE
from ..crypto import TAG_LENGTH
from ..packet import (
    FORM_LONG,
    Epoch,
    PacketType,
    encode_long_header,
    encode_short_header,
    seal_packet_into,
)
from ..recovery import SentPacket
from ..wire import Buffer
from .handshake import HANDSHAKE_CH

INITIAL_PADDING_TARGET = 1200
#: Every protocol operation one empty ``prepare_packet`` attempt runs
#: (``is_ack_needed`` only when an owed ACK would leave alone).
_SEND_ATTEMPT_OPS = ("prepare_packet", "before_sending_packet",
                     "select_sending_path", "schedule_frames",
                     "stream_to_send", "is_ack_needed")


class SendMixin:
    def _op_queue_control_frame(self, frame: F.Frame) -> None:
        self._control_frames.append(frame)

    def _default_write_frame(self, frame: F.Frame, buf: Buffer) -> None:
        frame.serialize(buf)

    def _op_get_destination_cid(self) -> bytes:
        return self.peer_cid

    def _op_get_source_cid(self) -> bytes:
        return self.local_cid

    def _op_set_spin_bit(self) -> bool:
        return self.spin_bit

    def _op_reserve_frame_slot(self, reserved: ReservedFrame) -> None:
        self.reserved_frames.append(reserved)

    def reserve_frames(self, reserved: list) -> None:
        """Plugin API (Table 1): book slots for sending frames."""
        for r in reserved:
            self.protoops.run(self, "reserve_frame_slot", None, r)

    def _nothing_to_send(self) -> bool:
        """True when a ``prepare_packet`` attempt could only come back
        empty-handed *and* nobody could tell it was not made: the
        operations such an attempt runs carry nothing but their defaults,
        and every queue those defaults read is empty.  Conservative — a
        cwnd-blocked or amplification-limited attempt is still made (the
        latter is counted in ``amp_blocked``)."""
        if not self.protoops.untouched(_SEND_ATTEMPT_OPS):
            return False
        if (self._ch_pending or self._crypto_send.has_pending
                or self._initial_ping or self.initial_space.ack_needed
                or self._control_frames or self.reserved_frames):
            return False
        for path in self.paths:
            if (path.probe_frames or path.pto_probes or path.amp_limited
                    or self._op_is_ack_needed(path.index)):
                return False
        return self._op_stream_to_send() is None

    def _coalesce_datagrams(self, packets: list) -> list:
        """Pack consecutive QUIC packets into shared UDP datagrams
        (RFC 9000 §12.2).

        Only a long-header packet carries an explicit Length field, so
        only it may be followed by another packet in the same datagram;
        a short-header packet runs to the datagram end and always closes
        one.  Packets coalesce only onto the same path and never beyond
        the path MTU.  The wire bytes of every packet are unchanged —
        receivers split the train on the Length fields."""
        mtu = self.configuration.max_udp_payload_size
        out = []
        parts: list = []
        parts_len = 0
        parts_path = -1
        prev_open = False  # last appended packet had a long header
        for pkt, path_index in packets:
            if (prev_open and path_index == parts_path
                    and parts_len + len(pkt) <= mtu):
                parts.append(pkt)
                parts_len += len(pkt)
            else:
                if parts:
                    out.append((parts[0] if len(parts) == 1
                                else b"".join(parts), parts_path))
                parts = [pkt]
                parts_len = len(pkt)
                parts_path = path_index
            prev_open = bool(pkt[0] & FORM_LONG)
        if parts:
            out.append((parts[0] if len(parts) == 1
                        else b"".join(parts), parts_path))
        return out

    def _build_close_packet(self) -> Optional[bytes]:
        epoch = Epoch.ONE_RTT if self.crypto[Epoch.ONE_RTT] is not None else Epoch.INITIAL
        if self.crypto[epoch] is None:
            return None
        payload = self._close_frame_pending.to_bytes()
        return self._protect_and_record(epoch, 0, payload, [], False)

    def _op_prepare_packet(self) -> Optional[tuple]:
        """Build one packet if anything needs sending. Returns
        (datagram_bytes, path_index) or None."""
        self.protoops.run(self, "before_sending_packet", None)
        # Initial epoch first (handshake); the call also queues a pending
        # ClientHello.
        if self._initial_needs_sending():
            pkt = self._prepare_epoch_packet(Epoch.INITIAL, 0)
            if pkt is not None:
                return pkt, 0
        if self.crypto[Epoch.ONE_RTT] is None:
            return None
        # Path probes (PATH_CHALLENGE/PATH_RESPONSE) must leave on their
        # specific path (§8.2.2) and PTO probe bundles on the path whose
        # deadline expired, so both bypass path selection.
        for path in self.paths:
            if path.probe_frames or path.pto_probes:
                pkt = self._prepare_epoch_packet(Epoch.ONE_RTT, path.index)
                if pkt is not None:
                    return pkt, path.index
        path_index = self.protoops.run(self, "select_sending_path", None)
        pkt = self._prepare_epoch_packet(Epoch.ONE_RTT, path_index)
        if pkt is not None:
            return pkt, path_index
        return None

    def _initial_needs_sending(self) -> bool:
        if self.crypto[Epoch.INITIAL] is None:
            return False
        if self._ch_pending:
            self._ch_pending = False
            self._queue_handshake_message(HANDSHAKE_CH)
        return (self._crypto_send.has_pending or self._initial_ping
                or self.initial_space.ack_needed)

    def _prepare_epoch_packet(self, epoch: Epoch, path_index: int) -> Optional[bytes]:
        path = self.paths[path_index]
        space = self.initial_space if epoch is Epoch.INITIAL else path.space
        budget = self.configuration.max_udp_payload_size - TAG_LENGTH - 32
        if path.amp_limited:
            # §8.1: never put more than 3x the received bytes on an
            # unvalidated path.  Block *before* scheduling so no frame
            # state is consumed for a packet that cannot leave.
            allowed = path.amp_budget() - TAG_LENGTH - 32
            if allowed <= 0:
                self.stats["amp_blocked"] += 1
                return None
            budget = min(budget, allowed)
        frames, ack_only = self.protoops.run(
            self, "schedule_frames", None, epoch, path_index, budget
        )
        if not frames:
            return None
        payload = self._payload_buf
        payload.clear()
        for frame in frames:
            self.protoops.run(
                self, "write_frame",
                self._write_param(frame), frame, payload,
            )
        plaintext = payload.data()
        return self._protect_and_record(
            epoch, path_index, plaintext, frames, not ack_only
        )

    def _write_param(self, frame: F.Frame) -> Any:
        param = self._frame_param(frame.type)
        if param in self.protoops.known_params("write_frame"):
            return param
        return "default"

    def _protect_and_record(
        self,
        epoch: Epoch,
        path_index: int,
        plaintext: bytes,
        frames: list,
        ack_eliciting: bool,
    ) -> bytes:
        return self.protoops.run(
            self, "finalize_and_protect_packet", None,
            epoch, path_index, plaintext, frames, ack_eliciting,
        )

    def _op_finalize_and_protect_packet(
        self,
        epoch: Epoch,
        path_index: int,
        plaintext: bytes,
        frames: list,
        ack_eliciting: bool,
    ) -> bytes:
        path = self.paths[path_index]
        space = self.initial_space if epoch is Epoch.INITIAL else path.space
        pn = space.take_packet_number()
        self.protoops.run(self, "packet_ready", None, epoch, path_index, pn, plaintext)
        if epoch is Epoch.INITIAL:
            dcid = self.protoops.run(self, "get_destination_cid", None)
            scid = self.protoops.run(self, "get_source_cid", None)
            header = encode_long_header(
                PacketType.INITIAL, dcid, scid, pn, len(plaintext) + TAG_LENGTH,
            )
            # Clients pad Initial datagrams (anti-amplification).  The pad
            # is sized on the unpadded packet, so a length varint that
            # grows with it leaves the datagram one byte over target.
            pad = INITIAL_PADDING_TARGET - (len(header) + len(plaintext) + TAG_LENGTH)
            if self.is_client and pad > 0:
                plaintext = plaintext + b"\x00" * pad
                header = encode_long_header(
                    PacketType.INITIAL, dcid, scid, pn, len(plaintext) + TAG_LENGTH,
                )
        else:
            header = encode_short_header(
                self.protoops.run(self, "get_destination_cid", None),
                pn,
                spin_bit=self.protoops.run(self, "set_spin_bit", None),
            )
        pkt_buf = self._pkt_buf
        del pkt_buf[:]
        seal_packet_into(pkt_buf, header, plaintext, self.crypto[epoch].send, pn)
        packet = bytes(pkt_buf)
        # Every ack-eliciting frame is tracked for ACK/loss notification;
        # whether a lost frame is retransmitted is the per-type notifier's
        # decision (e.g. DATAGRAM frames only count their losses, §4.2).
        notified = [
            f for f in frames
            if f.ack_eliciting or isinstance(f, F.CryptoFrame)
        ]
        largest_ack = -1
        for f in frames:
            if isinstance(f, F.AckFrame) and f.ranges:
                top = f.ranges.largest()
                if top > largest_ack:
                    largest_ack = top
        sent = SentPacket(
            packet_number=pn,
            sent_time=self.now,
            size=len(packet),
            ack_eliciting=ack_eliciting,
            in_flight=ack_eliciting,
            frames=notified,
            path_id=path_index,
            largest_ack_reported=largest_ack,
        )
        space.on_packet_sent(sent)
        if sent.in_flight:
            path.cc.on_packet_sent(sent.size)
            # §7.8: if the window is still open and nothing more waits,
            # the application — not cwnd — limited this send; its ACK
            # must not grow the window.
            sent.app_limited = (
                path.cc.available_window >= MAX_DATAGRAM_SIZE
                and self._op_stream_to_send() is None
            )
        if path.amp_limited:
            path.amp_sent += len(packet)
        self.stats["packets_sent"] += 1
        self.stats["bytes_sent"] += len(packet)
        self._last_activity = self.now
        self.protoops.run(self, "packet_sent_event", None, sent)
        return packet

    def _op_schedule_frames(self, epoch: Epoch, path_index: int, budget: int) -> tuple:
        """Fill one packet's frame list. Returns (frames, ack_only)."""
        from repro.core.scheduler import schedule_packet_frames

        return schedule_packet_frames(self, epoch, path_index, budget)

    def pop_control_frame(self) -> Optional[F.Frame]:
        if self._control_frames:
            return self._control_frames.pop(0)
        return None
