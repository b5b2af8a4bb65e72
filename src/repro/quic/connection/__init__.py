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

:class:`QuicConnection` keeps the state, the census and the public API;
its defaults live in one mixin per census group: :mod:`.handshake`,
:mod:`.streams`, :mod:`.receive`, :mod:`.send`, :mod:`.loss`, :mod:`.paths`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.protoop import ProtoopError, ProtoopTable
from repro.core.scheduler import ReservedFrame
from repro.errors import CryptoError, StreamStateError, TransportError

from .. import frames as F
from ..cc import DEFAULT_INITIAL_WINDOW
from ..crypto import CryptoPair, random_bytes
from ..packet import Epoch
from ..recovery import PacketNumberSpace
from ..reset import is_stateless_reset
from ..stream import FlowWindow, ReceiveStream, SendStream
from ..transport_params import TransportParameters
from ..wire import Buffer
from .handshake import CID_LENGTH, ConnectionState, HandshakeMixin
from .loss import LossMixin
from .paths import AMP_FACTOR, MAX_PATH_PROBES, Path, PathsMixin, PathState
from .receive import ReceiveMixin
from .send import _SEND_ATTEMPT_OPS, INITIAL_PADDING_TARGET, SendMixin
from .streams import StreamsMixin, _closed_id_sets

__all__ = ["AMP_FACTOR", "CID_LENGTH", "INITIAL_PADDING_TARGET", "MAX_PATH_PROBES",
           "ConnectionState", "Path", "PathState", "QuicConfiguration", "QuicConnection",
           "ReservedFrame", "_SEND_ATTEMPT_OPS", "reset_instance_counter"]

_instance_counter = itertools.count(1)


def reset_instance_counter() -> None:
    """Reset the per-process connection counter that perturbs connection
    RNG seeds.  Experiments that must be bit-identical across repeated
    in-process runs (e.g. fault-injection determinism checks) call this
    between runs so the i-th connection of each run draws the same seed."""
    global _instance_counter
    _instance_counter = itertools.count(1)


#: Connection-workflow events: empty anchors (§2.2 category 4).
_EVENTS = (
    "connection_established", "before_sending_packet",
    "packet_ready",            # (epoch, path_index, pn, plaintext)
    "packet_sent_event",       # (sent_packet,)
    "packet_received_event",   # (epoch, path_index, pn, plaintext)
    "frames_decoded",          # after decoding all frames of a packet
    "packet_lost_event",       # after a packet loss
    "packet_acked_event", "rtt_updated", "stream_opened", "stream_closed",
    "handshake_message_sent", "connection_closing", "connection_closed",
    "idle_timeout_event", "plugin_injected", "path_created",
    "path_validated", "ack_frame_built", "flow_control_raised",
    "loss_alarm_fired", "cc_window_updated", "spin_bit_flipped",
)


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


class QuicConnection(HandshakeMixin, StreamsMixin, ReceiveMixin, SendMixin, LossMixin, PathsMixin):
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
        self.local_cid = random_bytes(self._rng, CID_LENGTH)
        self.peer_cid = b""
        self._original_dcid = b""
        self.protoops = ProtoopTable(self.protoop_census())
        self.frame_registry = F.FrameRegistry()
        self.now = now

        # Packet-number spaces: Initial is global, 1-RTT is per-path.
        self.initial_space = PacketNumberSpace(delayed_acks=False)
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
        self._key_share = random_bytes(self._rng, 32)
        self._handshake_sent = False
        self._ch_pending = False  # client: ClientHello not yet queued
        #: An Initial-space PTO found no CRYPTO data left to resend, so
        #: its probe is a PING (RFC 9002 §6.2.4).
        self._initial_ping = False
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
        self._data_window = FlowWindow(self.max_data_local, now)
        self.max_data_remote = 0  # learned from peer params
        self.data_sent = 0
        self.data_received = 0

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
        #: Plugin name -> handler of its messages (§2.4); others are dropped.
        self.message_handlers: dict[str, Callable[[bytes], None]] = {}

        # Plugin machinery attachment points (populated by repro.core).
        self.plugins: dict[str, Any] = {}
        #: Additional local addresses a multipath plugin may open paths on.
        self.extra_local_addresses: list = []

        # Reusable per-packet encode buffer (cleared before each use).
        self._payload_buf = Buffer()
        # Pooled scatter-gather packet buffer: header ‖ ciphertext ‖ tag
        # are appended into it, never concatenated.
        self._pkt_buf = bytearray()

        # The connection's one ledger of counts: the monitoring plugin
        # reads it through the get/set API, a metrics registry watches it.
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

        if self.is_client:
            self._start_client_handshake()

    @classmethod
    def protoop_census(cls) -> ProtoopTable:
        """The protocol operations of this class and their defaults, built
        on first use and shared by every connection of the class.  Every
        ``_op_<name>`` method found on the class is the default of
        operation *name*: the class's own function (so a subclass's
        ``_op_*`` override is the default of its connections), which a
        run calls with its connection as ``self``."""
        census = cls.__dict__.get("_protoop_census")
        if census is not None:
            return census
        t = ProtoopTable()
        # -- Parameterized frame operations (the 4 parameterized protoops).
        for name, defaults in (
                ("parse_frame", {"default": cls._default_parse_frame}),
                ("process_frame", cls._default_frame_processors()),
                ("write_frame", {"default": cls._default_write_frame}),
                ("notify_frame", cls._default_frame_notifiers())):
            t.register(name, None, parameterized=True)
            for param, func in defaults.items():
                t.register(name, func, param=param, parameterized=True)
        for attr in dir(cls):
            if attr.startswith("_op_"):
                t.register(attr[len("_op_"):], getattr(cls, attr))
        for event in _EVENTS:
            t.declare(event)
        # Fault containment & recovery events (plugin_fault,
        # plugin_quarantined, plugin_exchange_retry, ...) are declared by
        # the modules that emit them (repro.core.containment/.exchange):
        # they are extensions, not part of the paper's 72-protoop census.
        cls._protoop_census = t
        return t

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

    def close(self, error_code: int = 0, reason: str = "",
              now: Optional[float] = None) -> None:
        """Begin closing (RFC 9000 §10.2).  The drain period runs from
        *now*, the caller's clock: after a quiet spell ``self.now`` is the
        last time the connection heard from anything."""
        if self.state is not ConnectionState.ACTIVE:
            return
        if now is not None:
            self.now = max(self.now, now)
        self.protoops.run(self, "connection_closing", None, error_code, reason)
        self._close_frame_pending = F.ConnectionCloseFrame(
            error_code=error_code, reason=reason
        )
        self._finish_close(error_code, reason)

    def run_external_protoop(self, name: str, param: Any = None, *args: Any) -> Any:
        """Application entry point to external protocol operations (§2.4)."""
        return self.protoops.run_external(self, name, param, *args)

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
            # An owed ACK wakes the connection when it falls due; one
            # already due and still owed waits for the next send.
            space = path.space
            if (space.ack_needed and space.ack_due > self.now
                    and (earliest is None or space.ack_due < earliest)):
                earliest = space.ack_due
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

    def receive_datagram(self, data: bytes, now: float, path_index: int = 0,
                         from_peer: bool = True) -> None:
        if self.state is ConnectionState.CLOSING:
            self._receive_while_closing(data, now, path_index)
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

    @property
    def is_established(self) -> bool:
        return self.handshake_complete
