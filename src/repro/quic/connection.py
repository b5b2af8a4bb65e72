"""The PQUIC connection: a QUIC state machine decomposed into protocol
operations.

Every step a plugin might want to observe or replace — frame parsing and
processing, RTT updates, loss detection, packet preparation, path
selection, the Spin Bit — is dispatched through a per-connection
:class:`~repro.core.protoop.ProtoopTable`, exactly as Figure 1b describes:
the monolithic call graph becomes a web of named, anchored operations.

The connection is sans-io: it consumes datagrams via
:meth:`receive_datagram`, emits them via :meth:`datagrams_to_send`, and
reports its next timer via :meth:`next_timer`.  The endpoint adapter in
:mod:`repro.quic.endpoint` glues it to the network simulator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.protoop import Anchor, ProtoopError, ProtoopTable

from . import frames as F
from .cc import DEFAULT_INITIAL_WINDOW, MAX_DATAGRAM_SIZE, NewRenoController
from .crypto import (
    TAG_LENGTH,
    CryptoPair,
    initial_crypto_pair,
    one_rtt_crypto_pair,
    session_secret,
)
from .errors import (
    CryptoError,
    ProtocolViolation,
    QuicError,
    StreamStateError,
    TransportError,
    TransportErrorCode,
)
from .packet import (
    FORM_LONG,
    Epoch,
    PacketHeader,
    PacketType,
    decode_packet_number,
    encode_long_header,
    encode_short_header,
    parse_header,
    seal_packet,
    seal_packet_into,
)
from .recovery import (
    K_PERSISTENT_CONGESTION_THRESHOLD,
    MAX_PTO_PROBES,
    PacketNumberSpace,
    RttEstimator,
    SentPacket,
)
from .reset import is_stateless_reset, stateless_reset_token
from .stream import ReceiveStream, SendStream
from .transport_params import TransportParameters
from .wire import Buffer, RangeSet

import itertools

_instance_counter = itertools.count(1)


def reset_instance_counter() -> None:
    """Reset the per-process connection counter that perturbs connection
    RNG seeds.  Experiments that must be bit-identical across repeated
    in-process runs (e.g. fault-injection determinism checks) call this
    between runs so the i-th connection of each run draws the same seed."""
    global _instance_counter
    _instance_counter = itertools.count(1)


def _closed_id_sets() -> tuple:
    """Closed-stream-ID sets of one direction: a :class:`RangeSet` of
    ``stream_id >> 2`` per stream type (``stream_id & 3``), so streams
    closed in order collapse into a single range."""
    return tuple(RangeSet() for _ in range(4))


CID_LENGTH = 8
INITIAL_PADDING_TARGET = 1200
#: Every protocol operation one empty ``prepare_packet`` attempt runs.
_SEND_ATTEMPT_OPS = ("prepare_packet", "before_sending_packet",
                     "select_sending_path", "schedule_frames",
                     "stream_to_send")
HANDSHAKE_CH = 1
HANDSHAKE_SH = 2
#: §8.1: an unvalidated path may carry at most 3x the bytes received on it.
AMP_FACTOR = 3
#: PATH_CHALLENGE (re)transmissions before a path is declared FAILED.
MAX_PATH_PROBES = 6


class ConnectionState:
    """Connection lifecycle states (RFC 9000 §10).

    ``ACTIVE`` covers handshake and established operation.  ``close()``
    moves to ``CLOSING`` (we sent CONNECTION_CLOSE and retransmit it,
    rate-limited, while peer packets keep arriving); receiving the
    peer's CONNECTION_CLOSE moves to ``DRAINING`` (send nothing).  Both
    hold connection IDs for a drain period of 3×PTO so late packets
    still match a known connection instead of spawning a new one, then
    the drain timer retires the CIDs, releases per-connection buffers
    and lands in ``CLOSED``.  An idle timeout closes silently: straight
    to ``CLOSED``, nothing sent, no drain.
    """

    ACTIVE = "active"
    CLOSING = "closing"
    DRAINING = "draining"
    CLOSED = "closed"


@dataclass
class QuicConfiguration:
    """Per-endpoint configuration."""

    is_client: bool = True
    transport_parameters: TransportParameters = field(default_factory=TransportParameters)
    initial_window: int = DEFAULT_INITIAL_WINDOW
    max_udp_payload_size: int = 1280
    seed: int = 0
    #: Plugins available in the local cache (names).
    supported_plugins: list = field(default_factory=list)
    #: Plugins this endpoint wants the peer to run (names).
    plugins_to_inject: list = field(default_factory=list)
    #: Static key deriving per-CID stateless reset tokens (§10.3); None
    #: disables stateless reset generation and advertisement.
    stateless_reset_key: Optional[bytes] = None


class PathState:
    """Path validation states (RFC 9000 §8.2).

    A path starts ``UNVALIDATED``; sending a PATH_CHALLENGE moves it to
    ``PROBING``; the matching PATH_RESPONSE moves it to ``VALIDATED``.
    ``MAX_PATH_PROBES`` unanswered probes (PTO backoff) end in
    ``FAILED``; host code retires a path with ``ABANDONED``."""

    UNVALIDATED = "unvalidated"
    PROBING = "probing"
    VALIDATED = "validated"
    FAILED = "failed"
    ABANDONED = "abandoned"


class Path:
    """One network path: addresses, its own 1-RTT packet-number space,
    RTT estimator, congestion controller and validation state.

    Single-path connections use path 0 only; the multipath plugin creates
    additional paths (§4.3).  Path 0 starts VALIDATED for a client — the
    handshake itself validates the server address (§8.1) — while every
    other path must earn VALIDATED through a PATH_CHALLENGE/PATH_RESPONSE
    exchange."""

    def __init__(self, index: int, initial_window: int):
        self.index = index
        self.local_addr: Optional[str] = None
        self.peer_addr: Optional[str] = None
        self.space = PacketNumberSpace()
        self.rtt = RttEstimator()
        self.cc = NewRenoController(initial_window)
        self.active = index == 0
        self.challenge_data: Optional[bytes] = None
        self.state = PathState.VALIDATED if index == 0 else PathState.UNVALIDATED
        #: PATH_CHALLENGE/PATH_RESPONSE frames that must leave on *this*
        #: path (§8.2.2), unlike ordinary (path-agnostic) control frames.
        self.probe_frames: list = []
        #: PTO probe bundles (RFC 9002 §6.2.4): each inner list is the
        #: retransmittable frame set of one oldest-unacked packet, sent
        #: as one probe packet, exempt from the congestion window (§7.5).
        self.pto_probes: list = []
        self.probe_count = 0
        self.probe_deadline: Optional[float] = None
        #: §8.1 anti-amplification: while True, at most ``AMP_FACTOR``
        #: times ``amp_received`` bytes may leave on this path.
        self.amp_limited = False
        self.amp_received = 0
        self.amp_sent = 0

    @property
    def validated(self) -> bool:
        return self.state == PathState.VALIDATED

    @validated.setter
    def validated(self, value: bool) -> None:
        # Back-compat setter (plugin bytecode writes FLD_PATH_VALIDATED
        # through it); observable state *transitions* should go through
        # Connection._set_path_state instead.
        self.state = PathState.VALIDATED if value else PathState.UNVALIDATED
        if value:
            self.amp_limited = False
            self.probe_deadline = None

    def amp_budget(self) -> int:
        """Bytes still sendable under the 3x anti-amplification limit."""
        if not self.amp_limited:
            return 1 << 62
        return AMP_FACTOR * self.amp_received - self.amp_sent

    def __repr__(self) -> str:
        return f"<Path {self.index} {self.local_addr}->{self.peer_addr}>"


@dataclass
class ReservedFrame:
    """A frame slot booked by a plugin via ``reserve_frames`` (§2.3)."""

    frame: F.Frame
    plugin: str
    retransmittable: bool = True
    congestion_controlled: bool = True


class QuicConnection:
    """A pluginized QUIC connection endpoint."""

    def __init__(self, configuration: QuicConfiguration, now: float = 0.0):
        self.configuration = configuration
        self.is_client = configuration.is_client
        # Unique per instance yet deterministic across identical runs: mix
        # the configured seed with a process-wide connection counter.
        self._rng = random.Random(
            (configuration.seed << 24)
            ^ (next(_instance_counter) << 1)
            ^ (0 if self.is_client else 1)
        )
        self.local_cid = bytes(self._rng.randrange(256) for _ in range(CID_LENGTH))
        self.peer_cid = b""
        self._original_dcid = b""
        self.protoops = ProtoopTable()
        self.frame_registry = F.FrameRegistry()
        self.now = now

        # Packet-number spaces: Initial is global, 1-RTT is per-path.
        self.initial_space = PacketNumberSpace()
        self.paths: list[Path] = [Path(0, configuration.initial_window)]
        if not self.is_client:
            # §8.1: until the handshake completes, the client address is
            # unvalidated and the server may send at most 3x what it
            # received on the path.
            self.paths[0].amp_limited = True
        self.crypto: dict[Epoch, Optional[CryptoPair]] = {
            Epoch.INITIAL: None,
            Epoch.ONE_RTT: None,
        }

        # Handshake / crypto stream state (Initial epoch only in this model).
        self._crypto_send = SendStream(-1, 1 << 30)
        self._crypto_recv = ReceiveStream(-1, 1 << 30)
        self._key_share = bytes(self._rng.randrange(256) for _ in range(32))
        self._handshake_sent = False
        self._ch_pending = False  # client: ClientHello not yet queued
        self.handshake_complete = False
        self.peer_transport_parameters: Optional[TransportParameters] = None

        # Streams and flow control.  The tables hold *live* halves only:
        # a half that reaches its terminal state moves to the closed-ID
        # sets, which is all a late frame needs to be recognised.
        self.streams_send: dict[int, SendStream] = {}
        self.streams_recv: dict[int, ReceiveStream] = {}
        self.closed_streams_send = _closed_id_sets()
        self.closed_streams_recv = _closed_id_sets()
        self._next_stream_id = 0 if self.is_client else 1
        self.max_data_local = configuration.transport_parameters.initial_max_data
        self.max_data_remote = 0  # learned from peer params
        self.data_sent = 0
        self.data_received = 0
        self._max_data_frame_pending = False

        # Control frames awaiting transmission (flow control updates, etc.).
        self._control_frames: list[F.Frame] = []
        # Plugin-reserved frames (deficit-round-robin between plugins).
        self.reserved_frames: list[ReservedFrame] = []

        # Spin bit state (§4.1: the only cleartext performance signal).
        self.spin_bit = False

        # Timers and lifecycle.
        self._pto_count = 0
        self._last_activity = now
        #: Extension wakeup hints: callables returning an absolute deadline
        #: (connection time) or None.  Consulted by :meth:`next_timer`
        #: alongside the loss and idle alarms so sans-io extensions (e.g.
        #: the plugin exchanger's retry clock) can wake an otherwise idle
        #: connection.  Plain callables — not protoops — to keep the
        #: paper's 72-operation census intact.
        self.wakeup_hints: list[Callable[[], Optional[float]]] = []
        self.state = ConnectionState.ACTIVE
        self.close_error: Optional[tuple[int, str]] = None
        self._close_frame_pending: Optional[F.ConnectionCloseFrame] = None
        #: Absolute deadline of the drain period (3×PTO) while CLOSING or
        #: DRAINING; None otherwise.
        self.drain_deadline: Optional[float] = None
        #: CIDs this connection retired on termination; endpoints unbind
        #: them from their demux tables.
        self.retired_cids: list[bytes] = []
        # Connection ID rotation (§5.1/§9.5): spare CIDs we issued to the
        # peer, unused CIDs the peer issued to us, and the stateless reset
        # tokens (§10.3) we learned for the peer's CIDs.
        self.issued_cids: list[bytes] = []
        self.peer_cids_available: list[bytes] = []
        self._peer_reset_tokens: set[bytes] = set()
        #: Endpoint callback: a fresh local CID was issued to the peer
        #: (servers bind it into their demux table).
        self.on_cid_issued: Optional[Callable[[bytes], None]] = None
        # CONNECTION_CLOSE retransmit rate limit (RFC 9000 §10.2.1): one
        # close packet per 2^k packets received while closing.
        self._close_rexmit_threshold = 1
        self._close_packets_seen = 0

        # Application callbacks.
        self.on_stream_data: Optional[Callable[[int, bytes, bool], None]] = None
        self.on_established: Optional[Callable[[], None]] = None
        self.on_close: Optional[Callable[[int, str], None]] = None
        #: Fires once at *termination* (CLOSED), after the drain period —
        #: unlike ``on_close``, which fires when closing begins.
        self.on_closed: Optional[Callable[["QuicConnection"], None]] = None
        self.on_plugin_message: Optional[Callable[[str, bytes], None]] = None

        # Plugin machinery attachment points (populated by repro.core).
        self.plugins: dict[str, Any] = {}
        self.plugin_queues: dict[str, list] = {}
        #: Additional local addresses a multipath plugin may open paths on.
        self.extra_local_addresses: list = []

        # Reusable per-packet encode buffer (cleared before each use).
        self._payload_buf = Buffer()
        # Pooled scatter-gather packet buffer: header ‖ ciphertext ‖ tag
        # are appended into it, never concatenated.
        self._pkt_buf = bytearray()

        # Statistics (read by the monitoring plugin through get/set API).
        self.stats = {
            "packets_sent": 0,
            "packets_received": 0,
            "bytes_sent": 0,
            "bytes_received": 0,
            "packets_lost": 0,
            "packets_acked": 0,
            "probes_sent": 0,
            "spurious_losses": 0,
            "persistent_congestion": 0,
            "pto_fired": 0,
            "frames_received": 0,
            "acks_received": 0,
            "spurious_received": 0,
            "ecn_ce_received": 0,
            "migrations": 0,
            "cids_rotated": 0,
            "path_challenges_sent": 0,
            "path_responses_sent": 0,
            "amp_blocked": 0,
            "off_path_rejected": 0,
            "stateless_resets_received": 0,
            "undersized_initials_dropped": 0,
            "stream_halves_retired": 0,
        }

        self._register_protocol_operations()

        if self.is_client:
            self._start_client_handshake()

    # ------------------------------------------------------------------
    # Protocol operation registration (the gray box of §2.2).
    # ------------------------------------------------------------------

    def _register_protocol_operations(self) -> None:
        t = self.protoops
        # -- Parameterized frame operations (the 4 parameterized protoops).
        for name in ("parse_frame", "process_frame", "write_frame", "notify_frame"):
            t.register(name, None, parameterized=True)
        t.register("parse_frame", self._default_parse_frame, param="default",
                   parameterized=True)
        t.register("write_frame", self._default_write_frame, param="default",
                   parameterized=True)
        for ftype, handler in self._default_frame_processors().items():
            t.register("process_frame", handler, param=ftype, parameterized=True)
        for ftype, handler in self._default_frame_notifiers().items():
            t.register("notify_frame", handler, param=ftype, parameterized=True)

        # -- Internal processing.
        t.register("update_rtt", self._op_update_rtt)
        t.register("set_loss_alarm", self._op_set_loss_alarm)
        t.register("on_loss_alarm", self._op_on_loss_alarm)
        t.register("detect_lost_packets", self._op_detect_lost_packets)
        t.register("on_packet_acked", self._op_on_packet_acked)
        t.register("on_packet_lost", self._op_on_packet_lost)
        t.register("congestion_on_ack", self._op_congestion_on_ack)
        t.register("congestion_on_loss", self._op_congestion_on_loss)
        t.register("retransmit_packet", self._op_retransmit_packet)
        t.register("stream_to_send", self._op_stream_to_send)
        t.register("schedule_frames", self._op_schedule_frames)
        t.register("reserve_frame_slot", self._op_reserve_frame_slot)
        t.register("get_max_data", self._op_get_max_data)
        t.register("update_flow_credit", self._op_update_flow_credit)
        t.register("should_send_max_data", self._op_should_send_max_data)
        t.register("create_stream", self._op_create_stream)
        t.register("get_send_stream", self._op_get_send_stream)
        t.register("get_receive_stream", self._op_get_receive_stream)
        t.register("stream_data_received", self._op_stream_data_received)
        t.register("crypto_data_received", self._op_crypto_data_received)
        t.register("process_handshake_message", self._op_process_handshake_message)
        t.register("derive_one_rtt_keys", self._op_derive_one_rtt_keys)
        t.register("set_idle_timer", self._op_set_idle_timer)
        t.register("queue_control_frame", self._op_queue_control_frame)

        # -- Packet management.
        t.register("prepare_packet", self._op_prepare_packet)
        t.register("finalize_and_protect_packet", self._op_finalize_and_protect)
        t.register("parse_packet_header", self._op_parse_packet_header)
        t.register("decode_packet_number", self._op_decode_packet_number)
        t.register("process_incoming_packet", self._op_process_incoming_packet)
        t.register("set_spin_bit", self._op_set_spin_bit)
        t.register("get_destination_cid", self._op_get_destination_cid)
        t.register("get_source_cid", self._op_get_source_cid)
        t.register("select_sending_path", self._op_select_sending_path)
        t.register("get_path", self._op_get_path)
        t.register("create_path", self._op_create_path)
        t.register("path_bytes_allowed", self._op_path_bytes_allowed)
        t.register("map_incoming_path", self._op_map_incoming_path)
        t.register("process_recovered_payload", self._op_process_recovered_payload)

        # -- Introspection operations (used by monitoring & multipath).
        t.register("get_rtt", lambda conn, i=0: self.paths[i].rtt.smoothed,
                   doc="Smoothed RTT of a path.")
        t.register("get_cwin", lambda conn, i=0: self.paths[i].cc.cwnd,
                   doc="Congestion window of a path.")
        t.register("get_bytes_in_flight",
                   lambda conn, i=0: self.paths[i].cc.bytes_in_flight,
                   doc="Bytes currently in flight on a path.")
        t.register("stream_bytes_pending",
                   lambda conn: sum(s.bytes_in_flight_or_pending
                                    for s in self.streams_send.values()),
                   doc="Application bytes waiting for (re)transmission.")
        t.register("is_ack_needed",
                   lambda conn, i=0: self.paths[i].space.ack_needed,
                   doc="Whether the path's space owes the peer an ACK.")
        t.register("get_largest_acked",
                   lambda conn, i=0: self.paths[i].space.largest_acked,
                   doc="Largest packet number acked by the peer on a path.")
        t.register("get_next_packet_number",
                   lambda conn, i=0: self.paths[i].space.next_packet_number,
                   doc="Next packet number to be used on a path.")

        # -- Connection-workflow events (empty anchors, §2.2 category 4).
        for event in (
            "connection_established",
            "before_sending_packet",
            "packet_ready",            # (epoch, path_index, pn, plaintext)
            "packet_sent_event",       # (sent_packet,)
            "packet_received_event",   # (epoch, path_index, pn, plaintext)
            "frames_decoded",          # after decoding all frames of a packet
            "packet_lost_event",       # after a packet loss
            "packet_acked_event",
            "rtt_updated",
            "stream_opened",
            "stream_closed",
            "handshake_message_sent",
            "connection_closing",
            "connection_closed",
            "idle_timeout_event",
            "plugin_injected",
            "path_created",
            "path_validated",
            "ack_frame_built",
            "flow_control_raised",
            "loss_alarm_fired",
            "cc_window_updated",
            "spin_bit_flipped",
        ):
            t.declare(event)
        # Fault containment & recovery events (plugin_fault,
        # plugin_quarantined, plugin_exchange_retry, ...) are declared by
        # the modules that emit them (repro.core.containment/.exchange):
        # they are extensions, not part of the paper's 72-protoop census.

    # ------------------------------------------------------------------
    # Handshake.
    # ------------------------------------------------------------------

    def _start_client_handshake(self) -> None:
        self.peer_cid = bytes(self._rng.randrange(256) for _ in range(CID_LENGTH))
        self._original_dcid = self.peer_cid
        self.crypto[Epoch.INITIAL] = initial_crypto_pair(self._original_dcid, True)
        # The ClientHello is queued lazily (first send) so extensions set
        # up after construction — e.g. a PluginExchanger advertising the
        # cache via supported_plugins — make it into the handshake.
        self._ch_pending = True

    def _handshake_params(self) -> TransportParameters:
        params = self.configuration.transport_parameters
        params.supported_plugins = list(self.configuration.supported_plugins)
        params.plugins_to_inject = list(self.configuration.plugins_to_inject)
        if not self.is_client and self.configuration.stateless_reset_key is not None:
            # §10.3: only the server advertises a reset token in transport
            # parameters (the client's handshake CID is transient).
            params.stateless_reset_token = stateless_reset_token(
                self.configuration.stateless_reset_key, self.local_cid
            )
        return params

    def _queue_handshake_message(self, msg_type: int) -> None:
        buf = Buffer()
        buf.push_uint8(msg_type)
        buf.push_bytes(self._key_share)
        buf.push_varint_prefixed_bytes(self._handshake_params().serialize())
        self._crypto_send.write(buf.data())
        self._handshake_sent = True
        self.protoops.run(self, "handshake_message_sent", None, msg_type)

    def _op_process_handshake_message(self, conn, data: bytes) -> None:
        """Process one handshake message arriving on the crypto stream."""
        buf = Buffer(data)
        msg_type = buf.pull_uint8()
        peer_share = buf.pull_bytes(32)
        params = TransportParameters.parse(buf.pull_varint_prefixed_bytes())
        self.peer_transport_parameters = params
        self.max_data_remote = params.initial_max_data
        if params.stateless_reset_token:
            self._peer_reset_tokens.add(bytes(params.stateless_reset_token))
        for path in self.paths:
            path.rtt.max_ack_delay = params.max_ack_delay
        if msg_type == HANDSHAKE_CH and not self.is_client:
            self.protoops.run(self, "derive_one_rtt_keys", None, peer_share)
            self._queue_handshake_message(HANDSHAKE_SH)
            self._set_established()
        elif msg_type == HANDSHAKE_SH and self.is_client:
            self.protoops.run(self, "derive_one_rtt_keys", None, peer_share)
            self._set_established()
        else:
            raise ProtocolViolation(f"unexpected handshake message {msg_type}")

    def _op_derive_one_rtt_keys(self, conn, peer_share: bytes) -> None:
        if self.is_client:
            secret = session_secret(self._key_share, peer_share)
        else:
            secret = session_secret(peer_share, self._key_share)
        self.crypto[Epoch.ONE_RTT] = one_rtt_crypto_pair(secret, self.is_client)

    def _set_established(self) -> None:
        if self.handshake_complete:
            return
        self.handshake_complete = True
        # Handshake progress also resets the PTO backoff (RFC 9002 §6.2.1).
        self._pto_count = 0
        if not self.is_client:
            # Completing the handshake validates the client address (§8.1)
            # and is the moment to offer a spare CID the client can rotate
            # to when it migrates (§9.5).
            self.paths[0].amp_limited = False
            self._issue_new_cid()
        self.protoops.run(self, "connection_established", None)
        if self.on_established is not None:
            self.on_established()

    def _issue_new_cid(self) -> None:
        cid = bytes(self._rng.randrange(256) for _ in range(CID_LENGTH))
        token = b""
        if self.configuration.stateless_reset_key is not None:
            token = stateless_reset_token(
                self.configuration.stateless_reset_key, cid)
        self.issued_cids.append(cid)
        self._control_frames.append(F.NewConnectionIdFrame(
            sequence=len(self.issued_cids), connection_id=cid,
            reset_token=token))
        if self.on_cid_issued is not None:
            self.on_cid_issued(cid)

    # ------------------------------------------------------------------
    # Public application API.
    # ------------------------------------------------------------------

    def create_stream(self) -> int:
        return self.protoops.run_external(self, "create_stream", None)

    def send_stream_data(self, stream_id: int, data: bytes, fin: bool = False) -> None:
        stream = self.protoops.run(self, "get_send_stream", None, stream_id)
        if stream is None:
            raise StreamStateError(
                f"write on stream {stream_id}: send half is closed")
        stream.write(data)
        if fin:
            stream.finish()

    @property
    def closed(self) -> bool:
        """True once closing has begun (any state past ACTIVE)."""
        return self.state is not ConnectionState.ACTIVE

    def close(self, error_code: int = 0, reason: str = "") -> None:
        if self.state is not ConnectionState.ACTIVE:
            return
        self.protoops.run(self, "connection_closing", None, error_code, reason)
        self._close_frame_pending = F.ConnectionCloseFrame(
            error_code=error_code, reason=reason
        )
        self._finish_close(error_code, reason)

    def _finish_close(
        self, error_code: int, reason: str,
        next_state: str = ConnectionState.CLOSING,
    ) -> None:
        """Leave ACTIVE: record the error, notify, enter ``next_state``.

        ``CLOSING``/``DRAINING`` arm the drain timer; ``CLOSED`` (silent
        close, e.g. idle timeout) terminates immediately.
        """
        self.close_error = (error_code, reason)
        self.protoops.run(self, "connection_closed", None)
        if self.on_close is not None:
            self.on_close(error_code, reason)
        if next_state is ConnectionState.CLOSED:
            self._set_state(next_state)
            self._terminate()
        else:
            self._set_state(next_state)
            self.drain_deadline = self.now + 3 * self.paths[0].rtt.pto()

    def _set_state(self, state: str) -> None:
        if state == self.state:
            return
        self.state = state
        # Declared on first emission, like the containment/exchange
        # events: a lifecycle extension, not part of the paper's
        # 72-protoop census.
        if not self.protoops.exists("connection_state_changed"):
            self.protoops.declare("connection_state_changed")
        self.protoops.run(self, "connection_state_changed", None, state)

    def _terminate(self) -> None:
        """End of the drain period: retire CIDs, release per-connection
        state and fire ``on_closed``.  Idempotent."""
        if self.retired_cids:
            return
        self._set_state(ConnectionState.CLOSED)
        self.drain_deadline = None
        self._close_frame_pending = None
        self._release_state()
        if self.on_closed is not None:
            self.on_closed(self)

    def _release_state(self) -> None:
        """Retire connection IDs and drop the bulky per-connection
        buffers (streams, sent-packet maps, received ranges) so a server
        holding many terminated connections does not accrete memory."""
        self.retired_cids = [
            cid for cid in (self.local_cid, self._original_dcid) if cid
        ]
        self.streams_send.clear()
        self.streams_recv.clear()
        self.closed_streams_send = _closed_id_sets()
        self.closed_streams_recv = _closed_id_sets()
        self._record_streams_open()
        self._control_frames.clear()
        self.reserved_frames.clear()
        self.wakeup_hints.clear()
        for space, _path in self._spaces_and_paths():
            space.release()

    def abort_on_plugin_failure(self, error: TransportError) -> None:
        """Plugin machinery failures terminate the connection (§2.1)."""
        if self.state is ConnectionState.ACTIVE:
            self._close_frame_pending = F.ConnectionCloseFrame(
                error_code=int(error.code), reason=error.reason
            )
            self._finish_close(int(error.code), error.reason)

    def run_external_protoop(self, name: str, param: Any = None, *args: Any) -> Any:
        """Application entry point to external protocol operations (§2.4)."""
        return self.protoops.run_external(self, name, param, *args)

    def push_message_to_app(self, plugin_name: str, message: bytes) -> None:
        """Used by plugins to asynchronously message the application."""
        if self.on_plugin_message is not None:
            self.on_plugin_message(plugin_name, message)
        else:
            self.plugin_queues.setdefault(plugin_name, []).append(message)

    # ------------------------------------------------------------------
    # Stream protoops.
    # ------------------------------------------------------------------

    def _op_create_stream(self, conn) -> int:
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
            )
        self._record_streams_open()

    def _retire_stream_half(self, table: dict, closed: tuple,
                            stream_id: int) -> None:
        """Move a half that reached its terminal state from its live
        *table* to the matching *closed*-ID sets."""
        del table[stream_id]
        closed[stream_id & 3].add(stream_id >> 2)
        self.stats["stream_halves_retired"] += 1
        self._record_streams_open()

    def _op_get_send_stream(self, conn, stream_id: int) -> Optional[SendStream]:
        """The live send half, created on first reference; None once it
        has been retired."""
        stream = self.streams_send.get(stream_id)
        if stream is None:
            self._get_or_create_streams(stream_id)
            stream = self.streams_send.get(stream_id)
        return stream

    def _op_get_receive_stream(self, conn, stream_id: int) -> Optional[ReceiveStream]:
        """The live receive half, created on first reference; None once
        it has been retired."""
        stream = self.streams_recv.get(stream_id)
        if stream is None:
            self._get_or_create_streams(stream_id)
            stream = self.streams_recv.get(stream_id)
        return stream

    def _op_stream_data_received(self, conn, stream_id: int, readable: bytes, fin: bool) -> None:
        if self.on_stream_data is not None and (readable or fin):
            self.on_stream_data(stream_id, readable, fin)

    def _op_crypto_data_received(self, conn, data: bytes) -> None:
        """Drain complete handshake messages from the crypto stream."""
        stash = getattr(self, "_crypto_pending", b"") + data
        while True:
            if len(stash) < 33:
                break
            buf = Buffer(stash)
            buf.pull_uint8()
            buf.pull_bytes(32)
            try:
                buf.pull_varint_prefixed_bytes()
            except QuicError:
                break
            msg_len = buf.position
            message, stash = stash[:msg_len], stash[msg_len:]
            self.protoops.run(self, "process_handshake_message", None, message)
        self._crypto_pending = stash

    # ------------------------------------------------------------------
    # Flow control protoops.
    # ------------------------------------------------------------------

    def _op_get_max_data(self, conn) -> int:
        return self.max_data_remote

    def _op_should_send_max_data(self, conn) -> bool:
        window = self.configuration.transport_parameters.initial_max_data
        return self.data_received > self.max_data_local - window // 2

    def _op_update_flow_credit(self, conn) -> None:
        """Raise connection and stream receive windows as data is consumed."""
        window = self.configuration.transport_parameters.initial_max_data
        if self.protoops.run(self, "should_send_max_data", None):
            self.max_data_local = self.data_received + window
            self.protoops.run(
                self, "queue_control_frame", None,
                F.MaxDataFrame(maximum=self.max_data_local),
            )
            self.protoops.run(self, "flow_control_raised", None, self.max_data_local)
        stream_window = self.configuration.transport_parameters.initial_max_stream_data
        for stream_id, stream in self.streams_recv.items():
            if stream.final_size is not None:
                continue
            if stream.bytes_received > stream.max_stream_data - stream_window // 2:
                new_limit = stream.grant_credit(stream_window)
                if new_limit:
                    self.protoops.run(
                        self, "queue_control_frame", None,
                        F.MaxStreamDataFrame(stream_id=stream_id, maximum=new_limit),
                    )

    def _op_queue_control_frame(self, conn, frame: F.Frame) -> None:
        self._control_frames.append(frame)

    # ------------------------------------------------------------------
    # Frame parsing / processing defaults.
    # ------------------------------------------------------------------

    def _default_parse_frame(self, conn, buf: Buffer, frame_type: int) -> F.Frame:
        cls = self.frame_registry.lookup(frame_type)
        return cls.parse(buf, frame_type)

    def _default_write_frame(self, conn, frame: F.Frame, buf: Buffer) -> None:
        frame.serialize(buf)

    def _default_frame_processors(self) -> dict:
        return {
            F.PADDING: lambda conn, frame, ctx: None,
            F.PING: lambda conn, frame, ctx: None,
            F.ACK: self._process_ack_frame,
            F.CRYPTO: self._process_crypto_frame,
            "stream": self._process_stream_frame,
            F.MAX_DATA: self._process_max_data_frame,
            F.MAX_STREAM_DATA: self._process_max_stream_data_frame,
            F.MAX_STREAMS: lambda conn, frame, ctx: None,
            F.DATA_BLOCKED: lambda conn, frame, ctx: None,
            F.STREAM_DATA_BLOCKED: lambda conn, frame, ctx: None,
            F.RESET_STREAM: self._process_reset_stream_frame,
            F.STOP_SENDING: lambda conn, frame, ctx: None,
            F.NEW_CONNECTION_ID: self._process_new_connection_id,
            F.PATH_CHALLENGE: self._process_path_challenge,
            F.PATH_RESPONSE: self._process_path_response,
            F.CONNECTION_CLOSE: self._process_connection_close,
            F.CONNECTION_CLOSE + 1: self._process_connection_close,
            F.HANDSHAKE_DONE: lambda conn, frame, ctx: None,
        }

    def _frame_param(self, frame_type: int) -> Any:
        if F.STREAM_BASE <= frame_type < F.STREAM_BASE + 8:
            return "stream"
        return frame_type

    def _process_ack_frame(self, conn, frame: F.AckFrame, ctx: dict) -> None:
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
            self._run_spurious_loss(pkt, path.index)
        for pkt in result.lost:
            self.protoops.run(self, "on_packet_lost", None, pkt, path.index)
        self._maybe_persistent_congestion(space, path, result.lost)
        if result.newly_acked:
            # Forward progress: the PTO backoff restarts (RFC 9002 §6.2.1).
            self._pto_count = 0

    def _process_crypto_frame(self, conn, frame: F.CryptoFrame, ctx: dict) -> None:
        readable = self._crypto_recv.receive(frame.offset, frame.data, False)
        if readable:
            self.protoops.run(self, "crypto_data_received", None, readable)

    def _process_stream_frame(self, conn, frame: F.StreamFrame, ctx: dict) -> None:
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

    def _process_max_data_frame(self, conn, frame: F.MaxDataFrame, ctx: dict) -> None:
        if frame.maximum > self.max_data_remote:
            self.max_data_remote = frame.maximum

    def _process_max_stream_data_frame(self, conn, frame: F.MaxStreamDataFrame, ctx: dict) -> None:
        stream = self._op_get_send_stream(self, frame.stream_id)
        if stream is not None:
            stream.update_max_stream_data(frame.maximum)

    def _process_reset_stream_frame(self, conn, frame: F.ResetStreamFrame, ctx: dict) -> None:
        stream = self._op_get_receive_stream(self, frame.stream_id)
        if stream is None:
            return
        # RFC 9000 §4.5: the final size counts against connection flow
        # control whether or not the bytes below it ever arrived.
        self._charge_data_received(stream.reset(frame.final_size))
        self._retire_stream_half(
            self.streams_recv, self.closed_streams_recv, frame.stream_id)
        self.protoops.run(self, "stream_closed", None, frame.stream_id)
        self.protoops.run(self, "update_flow_credit", None)

    def _process_new_connection_id(self, conn, frame: F.NewConnectionIdFrame, ctx: dict) -> None:
        """Stash a peer-issued CID (§5.1.1) for rotation on migration
        (§9.5), and its stateless reset token (§10.3) for detection."""
        if frame.connection_id and frame.connection_id not in self.peer_cids_available:
            self.peer_cids_available.append(bytes(frame.connection_id))
        if frame.reset_token:
            self._peer_reset_tokens.add(bytes(frame.reset_token))

    def _process_path_challenge(self, conn, frame: F.PathChallengeFrame, ctx: dict) -> None:
        # §8.2.2: the response must leave on the path the challenge came
        # in on, so it rides the per-path probe queue rather than the
        # path-agnostic control-frame queue.
        path_index = ctx.get("path_index", 0)
        self.paths[path_index].probe_frames.append(
            F.PathResponseFrame(data=frame.data))
        self.stats["path_responses_sent"] += 1

    def _process_path_response(self, conn, frame: F.PathResponseFrame, ctx: dict) -> None:
        for path in self.paths:
            if path.challenge_data == frame.data:
                path.challenge_data = None
                path.probe_deadline = None
                path.probe_count = 0
                path.amp_limited = False
                path.active = True
                self._set_path_state(path, PathState.VALIDATED)
                self.protoops.run(self, "path_validated", None, path.index)

    def _process_connection_close(self, conn, frame: F.ConnectionCloseFrame, ctx: dict) -> None:
        if self.state is ConnectionState.ACTIVE:
            self._finish_close(frame.error_code, frame.reason,
                               next_state=ConnectionState.DRAINING)

    # ------------------------------------------------------------------
    # Path validation, migration and stateless reset (RFC 9000 §8-§10.3).
    # ------------------------------------------------------------------

    def _run_extension_event(self, name: str, *args: Any) -> None:
        """Run a lazily-declared extension event: declared on first
        emission, like the containment/exchange events, so the paper's
        72-protoop census stays intact."""
        if not self.protoops.exists(name):
            self.protoops.declare(name)
        self.protoops.run(self, name, None, *args)

    def _record_path_metric(self, name: str, amount: int = 1) -> None:
        registry = getattr(self, "metrics", None)
        if registry is not None:
            registry.counter("quic.path." + name).inc(amount)

    def _record_streams_open(self) -> None:
        """Host-side ``quic.streams_open`` gauge: live stream halves."""
        registry = getattr(self, "metrics", None)
        if registry is not None:
            registry.gauge("quic.streams_open").set(
                float(len(self.streams_send) + len(self.streams_recv)))

    def _record_recovery_metric(self, name: str, amount: int = 1) -> None:
        """Host-side ``quic.recovery.*`` counters (probes, spurious
        losses, persistent congestion); unprefixed like ``quic.path.*``
        so vantage points aggregate identically."""
        registry = getattr(self, "metrics", None)
        if registry is not None:
            registry.counter("quic.recovery." + name).inc(amount)

    def _emit_cc_state(self, path_index: int, old: str, new: str,
                       trigger: str) -> None:
        if old != new:
            self._run_extension_event(
                "congestion_state_changed", path_index, old, new, trigger)

    def _set_path_state(self, path: Path, state: str) -> None:
        if path.state == state:
            return
        old = path.state
        path.state = state
        self._run_extension_event(
            "path_validation_state_changed", path.index, old, state)
        if state == PathState.VALIDATED:
            self._record_path_metric("validated")
        elif state == PathState.FAILED:
            self._record_path_metric("failed")

    def start_path_validation(self, path_index: int) -> None:
        """Begin (or restart) §8.2 validation of a path: queue a
        PATH_CHALLENGE carrying a fresh random 8-byte token on the path
        itself and arm the PTO-based probe retransmission timer."""
        path = self.paths[path_index]
        path.challenge_data = bytes(
            self._rng.randrange(256) for _ in range(8))
        path.probe_count = 0
        path.probe_frames.append(
            F.PathChallengeFrame(data=path.challenge_data))
        path.probe_deadline = self.now + self._probe_timeout(path)
        self.stats["path_challenges_sent"] += 1
        self._record_path_metric("challenges_sent")
        self._set_path_state(path, PathState.PROBING)

    def _probe_timeout(self, path: Path) -> float:
        # §8.2.1: probe timers back off like PTO.
        return path.rtt.pto() * (1 << min(path.probe_count, 6))

    def _on_probe_timeout(self, path: Path) -> None:
        path.probe_count += 1
        if path.probe_count >= MAX_PATH_PROBES:
            # §8.2.4: give up — the path is unusable.
            path.probe_deadline = None
            path.challenge_data = None
            path.probe_frames = [
                f for f in path.probe_frames if f.type != F.PATH_CHALLENGE
            ]
            path.active = False
            self._set_path_state(path, PathState.FAILED)
            return
        path.probe_frames.append(
            F.PathChallengeFrame(data=path.challenge_data))
        path.probe_deadline = self.now + self._probe_timeout(path)
        self.stats["path_challenges_sent"] += 1
        self._record_path_metric("challenges_sent")

    def on_peer_address_changed(self, path_index: int, new_addr: str,
                                received_bytes: int = 0) -> None:
        """Passive migration (§9): an authenticated packet arrived from a
        new peer address (NAT rebinding).  The path follows the peer,
        loses its congestion and RTT state (§9.4), becomes
        amplification-limited again and must revalidate."""
        path = self.paths[path_index]
        old = path.peer_addr or ""
        path.peer_addr = new_addr
        path.cc = NewRenoController(self.configuration.initial_window)
        max_ack_delay = path.rtt.max_ack_delay
        path.rtt = RttEstimator()
        path.rtt.max_ack_delay = max_ack_delay
        path.amp_limited = not self.is_client
        path.amp_received = received_bytes
        path.amp_sent = 0
        if path.state in (PathState.VALIDATED, PathState.FAILED):
            self._set_path_state(path, PathState.UNVALIDATED)
        self.stats["migrations"] += 1
        self._record_path_metric("migrations")
        self._run_extension_event(
            "connection_migrated", path_index, old, new_addr)
        self.start_path_validation(path_index)

    def migrate(self, new_local_addr: str) -> None:
        """Active client migration (§9.5): move path 0 to a new local
        address, rotate to an unused peer-issued CID so the old and new
        paths cannot be linked, and revalidate."""
        path = self.paths[0]
        old = path.local_addr or ""
        path.local_addr = new_local_addr
        if self.peer_cids_available:
            self.peer_cid = self.peer_cids_available.pop(0)
            self.stats["cids_rotated"] += 1
            self._record_path_metric("cids_rotated")
        self.stats["migrations"] += 1
        self._record_path_metric("migrations")
        self._run_extension_event(
            "connection_migrated", 0, old, new_local_addr)
        if path.state == PathState.VALIDATED:
            self._set_path_state(path, PathState.UNVALIDATED)
        self.start_path_validation(0)

    def note_off_path_packet(self) -> None:
        """An unauthenticated datagram from a foreign address was dropped
        without touching any connection state (§9.3.2)."""
        self.stats["off_path_rejected"] += 1
        self._record_path_metric("off_path_rejected")

    def _handle_stateless_reset(self) -> None:
        """§10.3: the peer lost its state — stop sending immediately."""
        self.stats["stateless_resets_received"] += 1
        self._record_path_metric("stateless_resets")
        self._run_extension_event("stateless_reset")
        self._finish_close(0, "stateless reset",
                           next_state=ConnectionState.DRAINING)

    # ------------------------------------------------------------------
    # ACK / loss protoops.
    # ------------------------------------------------------------------

    def _op_update_rtt(self, conn, path_index: int, latest: float, ack_delay: float) -> float:
        path = self.paths[path_index]
        self.protoops.run(self, "rtt_updated", None, path_index, latest)
        return path.rtt.smoothed

    def _op_on_packet_acked(self, conn, pkt: SentPacket, path_index: int) -> None:
        if pkt.in_flight:
            self.protoops.run(self, "congestion_on_ack", None, pkt, path_index)
        for frame in pkt.frames:
            self.protoops.run(
                self, "notify_frame", self._frame_param(frame.type), frame, True, pkt
            )
        self.protoops.run(self, "packet_acked_event", None, pkt)

    def _op_on_packet_lost(self, conn, pkt: SentPacket, path_index: int) -> None:
        self.stats["packets_lost"] += 1
        if pkt.in_flight:
            self.protoops.run(self, "congestion_on_loss", None, pkt, path_index)
        self.protoops.run(self, "retransmit_packet", None, pkt)
        self.protoops.run(self, "packet_lost_event", None, pkt)

    def _op_congestion_on_ack(self, conn, pkt: SentPacket, path_index: int) -> None:
        path = self.paths[path_index]
        old = path.cc.state
        path.cc.on_ack(pkt.size, self.now, pkt.sent_time,
                       app_limited=pkt.app_limited)
        self._emit_cc_state(path_index, old, path.cc.state, "ack")
        self.protoops.run(self, "cc_window_updated", None, path_index, path.cc.cwnd)

    def _op_congestion_on_loss(self, conn, pkt: SentPacket, path_index: int) -> None:
        path = self.paths[path_index]
        old = path.cc.state
        path.cc.on_loss(pkt.size, self.now, pkt.sent_time)
        self._emit_cc_state(path_index, old, path.cc.state, "loss")
        self.protoops.run(self, "cc_window_updated", None, path_index, path.cc.cwnd)

    def _run_spurious_loss(self, pkt: SentPacket, path_index: int) -> None:
        """Dispatch the ``on_spurious_loss`` protoop anchor, registering
        its default lazily (first spurious loss) so the paper's
        72-protoop census stays intact, like the other extension ops."""
        table = self.protoops
        if not table.exists("on_spurious_loss") or \
                not table.get("on_spurious_loss").defaults:
            table.register("on_spurious_loss", self._op_on_spurious_loss)
        table.run(self, "on_spurious_loss", None, pkt, path_index)

    def _op_on_spurious_loss(self, conn, pkt: SentPacket, path_index: int) -> None:
        """A packet declared lost was later acknowledged: the loss was
        spurious.  The send-side mirror of the receive side's
        ``spurious_received`` accounting — and the congestion response
        the false loss triggered is undone."""
        path = self.paths[path_index]
        self.stats["spurious_losses"] += 1
        self._record_recovery_metric("spurious_losses")
        old = path.cc.state
        if pkt.in_flight:
            path.cc.on_spurious_loss(pkt.size, pkt.lost_time, pkt.sent_time)
        self._emit_cc_state(path_index, old, path.cc.state, "spurious_loss")
        self.protoops.run(self, "cc_window_updated", None, path_index, path.cc.cwnd)

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
        old = path.cc.state
        path.cc.on_persistent_congestion()
        self.stats["persistent_congestion"] += 1
        self._record_recovery_metric("persistent_congestion")
        self._emit_cc_state(path.index, old, path.cc.state,
                            "persistent_congestion")
        self.protoops.run(self, "cc_window_updated", None, path.index, path.cc.cwnd)

    def _op_retransmit_packet(self, conn, pkt: SentPacket) -> None:
        for frame in pkt.frames:
            self.protoops.run(
                self, "notify_frame", self._frame_param(frame.type), frame, False, pkt
            )

    def _default_frame_notifiers(self) -> dict:
        """Default ACK/loss notifications per frame type.

        Signature: (conn, frame, acked: bool, sent_packet).
        """
        def stream_notify(conn, frame, acked, pkt):
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

        def crypto_notify(conn, frame, acked, pkt):
            if acked:
                self._crypto_send.on_ack(frame.offset, len(frame.data), False)
            else:
                self._crypto_send.on_loss(frame.offset, len(frame.data), False)

        def requeue_on_loss(conn, frame, acked, pkt):
            if not acked:
                self._control_frames.append(frame)

        def ignore(conn, frame, acked, pkt):
            return None

        def path_challenge_lost(conn, frame, acked, pkt):
            # Probe retransmission is timer-driven (PTO backoff in
            # _on_probe_timeout), so a lost challenge is NOT requeued
            # here: doing both would duplicate probes, and the generic
            # control-frame queue could not honour the per-path routing
            # of §8.2.2 anyway.
            return None

        def path_response_lost(conn, frame, acked, pkt):
            # §13.3: a PATH_RESPONSE is sent only once.  If it is lost,
            # the peer's probe-retransmit repeats the PATH_CHALLENGE and
            # a fresh response answers that copy.
            return None

        return {
            "stream": stream_notify,
            F.CRYPTO: crypto_notify,
            F.MAX_DATA: requeue_on_loss,
            F.MAX_STREAM_DATA: requeue_on_loss,
            F.MAX_STREAMS: requeue_on_loss,
            F.RESET_STREAM: requeue_on_loss,
            F.STOP_SENDING: requeue_on_loss,
            F.PING: ignore,
            F.ACK: ignore,
            F.PADDING: ignore,
            F.PATH_CHALLENGE: path_challenge_lost,
            F.PATH_RESPONSE: path_response_lost,
            F.CONNECTION_CLOSE: ignore,
            F.HANDSHAKE_DONE: requeue_on_loss,
            F.NEW_CONNECTION_ID: requeue_on_loss,
            F.DATA_BLOCKED: ignore,
            F.STREAM_DATA_BLOCKED: ignore,
        }

    # ------------------------------------------------------------------
    # Timers.
    # ------------------------------------------------------------------

    def _op_set_loss_alarm(self, conn) -> Optional[float]:
        """Earliest loss/PTO deadline across spaces and paths."""
        pto_count = self._pto_count
        earliest = self.initial_space.next_timer(self.paths[0].rtt, pto_count)
        for path in self.paths:
            t = path.space.next_timer(path.rtt, pto_count)
            if t is not None and (earliest is None or t < earliest):
                earliest = t
        return earliest

    def _op_set_idle_timer(self, conn) -> float:
        return self._last_activity + self.configuration.transport_parameters.idle_timeout

    def next_timer(self) -> Optional[float]:
        if self.state is ConnectionState.CLOSED:
            return None
        if self.drain_deadline is not None:
            return self.drain_deadline
        earliest = self.protoops.run(self, "set_loss_alarm", None)
        idle = self.protoops.run(self, "set_idle_timer", None)
        if idle is not None and (earliest is None or idle < earliest):
            earliest = idle
        for path in self.paths:
            t = path.probe_deadline
            if t is not None and (earliest is None or t < earliest):
                earliest = t
        for hint in self.wakeup_hints:
            t = hint()
            if t is not None and (earliest is None or t < earliest):
                earliest = t
        return earliest

    def handle_timer(self, now: float) -> None:
        if self.state is ConnectionState.CLOSED:
            return
        self.now = max(self.now, now)
        if self.drain_deadline is not None:
            if now >= self.drain_deadline - 1e-12:
                self._terminate()
            return
        idle = self.protoops.run(self, "set_idle_timer", None)
        if now >= idle:
            # Silent close (RFC 9000 §10.1): nothing is sent, no drain.
            self.protoops.run(self, "idle_timeout_event", None)
            self._finish_close(0, "idle timeout",
                               next_state=ConnectionState.CLOSED)
            return
        for path in self.paths:
            if (path.probe_deadline is not None
                    and now >= path.probe_deadline - 1e-12):
                self._on_probe_timeout(path)
        alarm = self.protoops.run(self, "set_loss_alarm", None)
        if alarm is not None and now >= alarm - 1e-12:
            self.protoops.run(self, "on_loss_alarm", None)

    def _op_on_loss_alarm(self, conn) -> None:
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
            self._record_recovery_metric("pto_fired")
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
                self.protoops.run(self, "retransmit_packet", None, pkt)
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
            self._record_recovery_metric("probes_sent")
            self._run_extension_event("probe_sent", pkt, path.index)

    def _op_detect_lost_packets(self, conn, space: PacketNumberSpace, path_index: int) -> list:
        return space.detect_lost(self.now, self.paths[path_index].rtt)

    def _spaces_and_paths(self):
        yield self.initial_space, self.paths[0]
        for path in self.paths:
            yield path.space, path

    # ------------------------------------------------------------------
    # Receiving datagrams.
    # ------------------------------------------------------------------

    def receive_datagram(self, data: bytes, now: float, path_index: int = 0,
                         from_peer: bool = True) -> None:
        if self.state is ConnectionState.CLOSING:
            self._receive_while_closing(data, now)
            return
        if self.state is not ConnectionState.ACTIVE:
            return
        self.now = max(self.now, now)
        self._last_activity = self.now
        self.stats["bytes_received"] += len(data)
        if from_peer and path_index < len(self.paths):
            # §8.1: every byte received on a path earns 3x send credit,
            # decryptable or not (the credit is per address, not per
            # authenticated packet).
            self.paths[path_index].amp_received += len(data)
        try:
            self.protoops.run(self, "process_incoming_packet", None, data, path_index)
        except ProtoopError as exc:
            self.abort_on_plugin_failure(exc)
        except CryptoError:
            # Undecryptable datagrams are dropped silently — unless they
            # end in a stateless reset token we were told about (§10.3).
            if is_stateless_reset(data, self._peer_reset_tokens):
                self._handle_stateless_reset()
        except TransportError as exc:
            self.close(int(exc.code), exc.reason)

    def _receive_while_closing(self, data: bytes, now: float) -> None:
        """CLOSING-state receive path (RFC 9000 §10.2.1/§10.2.2): the
        peer's CONNECTION_CLOSE moves us to DRAINING; any other packet
        re-arms our own close packet, rate-limited by doubling the
        number of packets required between retransmissions."""
        self.now = max(self.now, now)
        if self._datagram_contains_close(data):
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

    def _datagram_contains_close(self, data: bytes) -> bool:
        """Decrypt and scan a datagram for CONNECTION_CLOSE without
        processing it (used while CLOSING, when normal processing has
        stopped).  Scans every coalesced packet in the datagram (§12.2);
        anything undecodable counts as not-a-close."""
        try:
            buf = Buffer(data)
            while not buf.eof():
                start = buf.position
                header, payload_len = parse_header(buf, CID_LENGTH)
                header_bytes = data[start:buf.position]
                ciphertext = buf.pull_bytes(payload_len)
                pair = self.crypto.get(header.epoch)
                if pair is None:
                    return False
                space = (self.initial_space if header.epoch is Epoch.INITIAL
                         else self.paths[0].space)
                pn = decode_packet_number(
                    header.packet_number, space.largest_received)
                plaintext = pair.recv.open(pn, header_bytes, ciphertext)
                fbuf = Buffer(plaintext)
                while not fbuf.eof():
                    ftype = fbuf.pull_varint()
                    self.frame_registry.lookup(ftype).parse(fbuf, ftype)
                    if ftype in (F.CONNECTION_CLOSE, F.CONNECTION_CLOSE + 1):
                        return True
        except (QuicError, ValueError, KeyError):
            return False
        return False

    def _op_parse_packet_header(self, conn, buf: Buffer) -> tuple:
        return parse_header(buf, CID_LENGTH)

    def _op_decode_packet_number(self, conn, truncated: int, largest: int) -> int:
        return decode_packet_number(truncated, largest)

    def _op_process_incoming_packet(self, conn, data: bytes, path_index: int) -> None:
        """Process every QUIC packet coalesced into the datagram (§12.2).

        Everything up to AEAD opening works on unauthenticated bytes: a
        corrupted datagram must be *dropped*, never close the connection
        (which a bare FrameEncodingError — a TransportError — would do).
        Once at least one packet of the datagram has authenticated, an
        undecodable or undecryptable tail is dropped silently (§12.2:
        receivers ignore coalesced packets they cannot process); only a
        datagram with *no* authenticated packet raises, which keeps the
        stateless-reset check in :meth:`receive_datagram` reachable —
        a reset datagram (§10.3) never authenticates.
        """
        buf = Buffer(data)
        mview = memoryview(data)
        datagram_len = len(data)
        authenticated = 0
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
            if path_index >= len(self.paths):
                path_index = 0
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
            authenticated += 1
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
            self._process_payload(epoch, path_index, full_pn, plaintext, space)

    def _process_payload(
        self,
        epoch: Epoch,
        path_index: int,
        pn: int,
        plaintext: bytes,
        space: PacketNumberSpace,
    ) -> None:
        self.stats["packets_received"] += 1
        buf = Buffer(plaintext)
        ctx = {"epoch": epoch, "path_index": path_index, "packet_number": pn}
        ack_eliciting = False
        decoded = []
        table = self.protoops
        while not buf.eof():
            frame_type = buf.pull_varint()
            param = self._frame_param(frame_type)
            if not table.has_behavior("parse_frame", param):
                param = "default"
            frame = table.run(self, "parse_frame", param, buf, frame_type)
            decoded.append((frame_type, frame))
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
            space.ack_needed = True
        self.protoops.run(self, "frames_decoded", None, epoch, path_index, pn, decoded)
        self.protoops.run(
            self, "packet_received_event", None, epoch, path_index, pn, plaintext
        )

    def _op_process_recovered_payload(self, conn, path_index: int, pn: int, plaintext: bytes) -> None:
        """Inject a FEC-recovered packet payload as if the packet arrived."""
        space = self.paths[path_index].space
        if pn in space.received:
            return
        self._process_payload(Epoch.ONE_RTT, path_index, pn, plaintext, space)

    # ------------------------------------------------------------------
    # Sending datagrams.
    # ------------------------------------------------------------------

    def _op_get_destination_cid(self, conn) -> bytes:
        return self.peer_cid

    def _op_get_source_cid(self, conn) -> bytes:
        return self.local_cid

    def _op_set_spin_bit(self, conn) -> bool:
        return self.spin_bit

    def _op_select_sending_path(self, conn) -> int:
        """Default single-path behaviour; the multipath plugin replaces it."""
        return 0

    def _op_get_path(self, conn, index: int) -> Path:
        return self.paths[index]

    def _op_map_incoming_path(self, conn, local_addr: str, peer_addr: str) -> int:
        """Which path an incoming datagram belongs to. The multipath
        plugin replaces this to create paths for new address pairs."""
        for path in self.paths:
            if path.local_addr == local_addr and path.peer_addr == peer_addr:
                return path.index
        return 0

    def _op_create_path(self, conn, local_addr: str, peer_addr: str) -> int:
        path = Path(len(self.paths), self.configuration.initial_window)
        path.local_addr = local_addr
        path.peer_addr = peer_addr
        path.active = True
        # A server-created path is amplification-limited until validated
        # (§8.1); a client opens paths toward an already-validated server.
        path.amp_limited = not self.is_client
        if self.peer_transport_parameters is not None:
            path.rtt.max_ack_delay = self.peer_transport_parameters.max_ack_delay
        self.paths.append(path)
        self.protoops.run(self, "path_created", None, path.index)
        return path.index

    def _op_path_bytes_allowed(self, conn, path_index: int) -> int:
        return self.paths[path_index].cc.available_window

    def _op_stream_to_send(self, conn) -> Optional[int]:
        """Pick the first live stream, in order of creation, that has
        sendable data."""
        for stream_id, stream in self.streams_send.items():
            if stream.has_pending:
                return stream_id
        return None

    def _op_reserve_frame_slot(self, conn, reserved: ReservedFrame) -> None:
        self.reserved_frames.append(reserved)

    def reserve_frames(self, reserved: list) -> None:
        """Plugin API (Table 1): book slots for sending frames."""
        for r in reserved:
            self.protoops.run(self, "reserve_frame_slot", None, r)

    def datagrams_to_send(self, now: float) -> list:
        """Build as many packets as credit allows; returns
        [(datagram, path_index), ...].  Several QUIC packets may share
        one datagram (§12.2 coalescing)."""
        self.now = max(self.now, now)
        out = []
        if self._close_frame_pending is not None:
            pkt = self._build_close_packet()
            if pkt is not None:
                out.append((pkt, 0))
            self._close_frame_pending = None
            return out
        if self.closed:
            return out
        for _ in range(256):  # per-call packet budget
            if self._nothing_to_send():
                break
            built = self.protoops.run(self, "prepare_packet", None)
            if built is None:
                break
            out.append(built)
        if len(out) > 1:
            out = self._coalesce_datagrams(out)
        return out

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
                or self.initial_space.ack_needed
                or self._control_frames or self.reserved_frames):
            return False
        for path in self.paths:
            if (path.space.ack_needed or path.probe_frames
                    or path.pto_probes or path.amp_limited):
                return False
        return not self.data_to_send_pending()

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

    def _op_prepare_packet(self, conn) -> Optional[tuple]:
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
        return self._crypto_send.has_pending or self.initial_space.ack_needed

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
                self._record_path_metric("amp_blocked")
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

    def _op_finalize_and_protect(
        self,
        conn,
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
            header = encode_long_header(
                PacketType.INITIAL,
                dcid,
                self.protoops.run(self, "get_source_cid", None),
                pn,
                len(plaintext) + TAG_LENGTH,
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
        if epoch is Epoch.INITIAL and self.is_client and len(packet) < INITIAL_PADDING_TARGET:
            # Clients pad Initial datagrams (anti-amplification).
            pad = INITIAL_PADDING_TARGET - len(packet)
            padded_plain = plaintext + b"\x00" * pad
            packet = seal_packet(
                encode_long_header(
                    PacketType.INITIAL, dcid,
                    self.local_cid, pn, len(padded_plain) + TAG_LENGTH,
                ),
                padded_plain, self.crypto[epoch].send, pn,
            )
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
                and not self.data_to_send_pending()
            )
        if path.amp_limited:
            path.amp_sent += len(packet)
        self.stats["packets_sent"] += 1
        self.stats["bytes_sent"] += len(packet)
        self._last_activity = self.now
        self.protoops.run(self, "packet_sent_event", None, sent)
        return packet

    # ------------------------------------------------------------------
    # Frame scheduling (default; repro.core.scheduler provides CBQ+DRR
    # once plugins reserve frames).
    # ------------------------------------------------------------------

    def _op_schedule_frames(self, conn, epoch: Epoch, path_index: int, budget: int) -> tuple:
        """Fill one packet's frame list. Returns (frames, ack_only)."""
        from repro.core.scheduler import schedule_packet_frames

        return schedule_packet_frames(self, epoch, path_index, budget)

    # Helpers used by the scheduler ------------------------------------

    def pop_control_frame(self) -> Optional[F.Frame]:
        if self._control_frames:
            return self._control_frames.pop(0)
        return None

    def connection_flow_credit(self) -> int:
        return max(0, self.max_data_remote - self.data_sent)

    @property
    def is_established(self) -> bool:
        return self.handshake_complete

    def data_to_send_pending(self) -> bool:
        """True when application data is waiting (used by the scheduler's
        core-traffic guarantee)."""
        for stream in self.streams_send.values():
            if stream.has_pending:
                return True
        return False
