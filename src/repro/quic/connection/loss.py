"""ACK, loss and timer glue (RFC 9002): acked and lost packets, the loss alarm and PTO probes."""

from __future__ import annotations

from typing import Any, Callable, Optional

from .. import frames as F
from ..recovery import (
    K_PERSISTENT_CONGESTION_THRESHOLD,
    MAX_PTO_PROBES,
    PacketNumberSpace,
    SentPacket,
)
from .paths import Path


class LossMixin:
    def _op_update_rtt(self, path_index: int, latest: float, ack_delay: float) -> float:
        path = self.paths[path_index]
        self.protoops.run(self, "rtt_updated", None, path_index, latest)
        return path.rtt.smoothed

    def _op_on_packet_acked(self, pkt: SentPacket, path_index: int) -> None:
        if pkt.in_flight:
            path = self.paths[path_index]
            path.cc.on_packet_released(pkt.size)
            self._publish_window(path, "ack", self.protoops.run, self,
                                 "congestion_on_ack", None, pkt, path_index)
        for frame in pkt.frames:
            self.protoops.run(
                self, "notify_frame", self._frame_param(frame.type), frame, True, pkt
            )
        self.protoops.run(self, "packet_acked_event", None, pkt)

    def _op_on_packet_lost(self, pkt: SentPacket, path_index: int) -> None:
        self.stats["packets_lost"] += 1
        if pkt.in_flight:
            path = self.paths[path_index]
            path.cc.on_packet_released(pkt.size)
            self._publish_window(path, "loss", self.protoops.run, self,
                                 "congestion_on_loss", None, pkt, path_index)
        self.protoops.run(self, "retransmit_packet", None, pkt)
        self.protoops.run(self, "packet_lost_event", None, pkt)

    def _publish_window(self, path: Path, trigger: str, move: Callable,
                        *args: Any) -> None:
        """Run ``move(*args)`` and publish what it did to ``path``'s
        window: ``congestion_state_changed`` if the controller's state
        moved, then ``cc_window_updated``.  ``move`` is a congestion
        protoop (NewReno's default or a plugin's replacement) or a
        controller method; either way the host, not the mover, publishes."""
        old = path.cc.state
        move(*args)
        new = path.cc.state
        if new != old:
            self.protoops.emit(self, "congestion_state_changed",
                               path.index, old, new, trigger)
        self.protoops.run(self, "cc_window_updated", None, path.index, path.cc.cwnd)

    def _op_congestion_on_ack(self, pkt: SentPacket, path_index: int) -> None:
        self.paths[path_index].cc.on_ack(pkt.size, self.now, pkt.sent_time,
                                         app_limited=pkt.app_limited)

    def _op_congestion_on_loss(self, pkt: SentPacket, path_index: int) -> None:
        self.paths[path_index].cc.on_loss(pkt.size, self.now, pkt.sent_time)

    def _run_spurious_loss(self, pkt: SentPacket, path_index: int) -> None:
        # An extension operation: its default is registered on the first
        # spurious loss, so the paper's 72-protoop census stays intact.
        self.protoops.emit(self, "on_spurious_loss", pkt, path_index,
                           default=type(self)._default_on_spurious_loss)

    def _default_on_spurious_loss(self, pkt: SentPacket, path_index: int) -> None:
        """A packet declared lost was later acknowledged: the loss was
        spurious.  The send-side mirror of the receive side's
        ``spurious_received`` accounting — and the congestion response
        the false loss triggered is undone."""
        self.stats["spurious_losses"] += 1
        if pkt.in_flight:
            self.paths[path_index].cc.on_spurious_loss(
                pkt.size, pkt.lost_time, pkt.sent_time)

    def _maybe_persistent_congestion(self, space: PacketNumberSpace,
                                     path: Path, lost: list) -> None:
        """RFC 9002 §7.6: collapse cwnd to the minimum only when a
        duration-spanning unbroken run of losses proves the path dead —
        and only once an RTT sample exists to size the duration."""
        if not lost or path.rtt.samples == 0:
            return
        duration = path.rtt.pto() * K_PERSISTENT_CONGESTION_THRESHOLD
        if not space.persistent_congestion(lost, duration):
            return
        self.stats["persistent_congestion"] += 1
        self._publish_window(path, "persistent_congestion",
                             path.cc.on_persistent_congestion)

    def _op_retransmit_packet(self, pkt: SentPacket) -> None:
        for frame in pkt.frames:
            self.protoops.run(
                self, "notify_frame", self._frame_param(frame.type), frame, False, pkt
            )

    @classmethod
    def _default_frame_notifiers(cls) -> dict:
        """Default ACK/loss notifications per frame type.

        Signature: (conn, frame, acked: bool, sent_packet).
        """
        return {
            "stream": cls._notify_stream_frame,
            F.CRYPTO: cls._notify_crypto_frame,
            **dict.fromkeys((F.MAX_DATA, F.MAX_STREAM_DATA, F.MAX_STREAMS,
                             F.RESET_STREAM, F.STOP_SENDING, F.HANDSHAKE_DONE,
                             F.NEW_CONNECTION_ID), cls._requeue_lost_frame),
            # PATH_CHALLENGE: probe retransmission is timer-driven (PTO
            # backoff in _on_probe_timeout), so a lost challenge is NOT
            # requeued here: doing both would duplicate probes, and the
            # generic control-frame queue could not honour the per-path
            # routing of §8.2.2 anyway.  PATH_RESPONSE (§13.3) is sent
            # only once: if it is lost, the peer's probe-retransmit
            # repeats the PATH_CHALLENGE and a fresh response answers it.
            **dict.fromkeys((F.PING, F.ACK, F.PADDING, F.PATH_CHALLENGE,
                             F.PATH_RESPONSE, F.CONNECTION_CLOSE,
                             F.DATA_BLOCKED, F.STREAM_DATA_BLOCKED),
                            cls._ignore_frame),
        }

    def _notify_stream_frame(self, frame: F.StreamFrame, acked: bool, pkt: SentPacket) -> None:
        stream = self.streams_send.get(frame.stream_id)
        if stream is None:
            # Retired: another copy of this frame (a PTO probe and
            # its original are both tracked) closed the half already.
            return
        if acked:
            stream.on_ack(frame.offset, len(frame.data), frame.fin)
            if stream.is_finished:
                self._retire_stream_half(
                    self.streams_send, self.closed_streams_send,
                    frame.stream_id)
                self.protoops.run(self, "stream_closed", None, frame.stream_id)
        else:
            stream.on_loss(frame.offset, len(frame.data), frame.fin)

    def _notify_crypto_frame(self, frame: F.CryptoFrame, acked: bool, pkt: SentPacket) -> None:
        if acked:
            self._crypto_send.on_ack(frame.offset, len(frame.data), False)
        else:
            self._crypto_send.on_loss(frame.offset, len(frame.data), False)

    def _requeue_lost_frame(self, frame: F.Frame, acked: bool, pkt: SentPacket) -> None:
        if not acked:
            self._control_frames.append(frame)

    def _op_set_loss_alarm(self) -> Optional[float]:
        """Earliest loss/PTO deadline across spaces and paths."""
        pto_count = self._pto_count
        earliest = self.initial_space.next_timer(self.paths[0].rtt, pto_count)
        for path in self.paths:
            t = path.space.next_timer(path.rtt, pto_count)
            if t is not None and (earliest is None or t < earliest):
                earliest = t
        return earliest

    def _op_is_ack_needed(self, path_index: int = 0) -> bool:
        """May an ACK-only packet leave on the path now: an ACK is owed
        and due (RFC 9000 §13.2.1).  An owed ACK that is not yet due
        rides on the next packet that leaves anyway."""
        space = self.paths[path_index].space
        return space.ack_needed and self.now >= space.ack_due - 1e-12

    def _op_set_idle_timer(self) -> float:
        return self._last_activity + self.configuration.transport_parameters.idle_timeout

    def _op_on_loss_alarm(self) -> None:
        self.protoops.run(self, "loss_alarm_fired", None)
        fired = False
        for space, path in self._spaces_and_paths():
            if space.loss_time is not None and self.now >= space.loss_time - 1e-12:
                lost = self.protoops.run(self, "detect_lost_packets", None, space, path.index)
                for pkt in lost:
                    self.protoops.run(self, "on_packet_lost", None, pkt, path.index)
                self._maybe_persistent_congestion(space, path, lost)
                fired = True
        if not fired:
            # PTO (RFC 9002 §6.2.4): a late ACK is not evidence of loss.
            # Send up to two ack-eliciting probe packets carrying the
            # oldest unacked frames — no packet is declared lost, cwnd
            # is untouched, and the backoff doubles until an ACK or
            # handshake progress resets it.
            self._pto_count += 1
            self.stats["pto_fired"] += 1
            for space, path in self._spaces_and_paths():
                deadline = space.pto_deadline(path.rtt, max(0, self._pto_count - 1))
                if deadline is not None and self.now >= deadline - 1e-12:
                    self._send_pto_probes(space, path)

    def _send_pto_probes(self, space: PacketNumberSpace, path: Path) -> None:
        """Queue 1-2 ack-eliciting probe packets for *space* on *path*.

        Probes retransmit the oldest unacked frames without removing the
        original packets from flight (conservation stays exact: the
        originals remain in ``sent`` until acked or declared lost by the
        normal detector).  Probe bundles are cwnd-exempt (§7.5)."""
        candidates = space.probe_candidates(MAX_PTO_PROBES)
        for pkt in candidates:
            if space is self.initial_space:
                # Handshake data re-enters the crypto send queue; the
                # scheduler already treats Initial crypto as cwnd-exempt.
                # A probe must elicit an ACK even when all of it has been
                # acknowledged since (the ACK of this packet was lost).
                self.protoops.run(self, "retransmit_packet", None, pkt)
                if not self._crypto_send.has_pending:
                    self._initial_ping = True
            else:
                # Only retransmittable frames ride in a probe: unreliable
                # extension frames (DATAGRAM, §4.2) must never be
                # repeated, and path probes are timer-driven (§8.2.2).
                bundle = [
                    f for f in pkt.frames
                    if f.retransmittable
                    and f.type not in (F.PATH_CHALLENGE, F.PATH_RESPONSE)
                ]
                if not bundle:
                    bundle = [F.PingFrame()]
                path.pto_probes.append(bundle)
            self.stats["probes_sent"] += 1
            self.protoops.emit(self, "probe_sent", pkt, path.index)

    def _op_detect_lost_packets(self, space: PacketNumberSpace, path_index: int) -> list:
        return space.detect_lost(self.now, self.paths[path_index].rtt)

    def _spaces_and_paths(self):
        yield self.initial_space, self.paths[0]
        for path in self.paths:
            yield path.space, path
