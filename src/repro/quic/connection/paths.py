"""Paths: creation, selection, validation, migration and stateless reset (RFC 9000 §8-§10.3)."""

from __future__ import annotations

from typing import Optional

from .. import frames as F
from ..cc import NewRenoController
from ..crypto import random_bytes
from ..recovery import MAX_ACK_DELAY, PacketNumberSpace, RttEstimator
from .handshake import ConnectionState

#: §8.1: an unvalidated path may carry at most 3x the bytes received on it.
AMP_FACTOR = 3
#: PATH_CHALLENGE (re)transmissions before a path is declared FAILED.
MAX_PATH_PROBES = 6


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

    def __init__(self, index: int, initial_window: int,
                 max_ack_delay: float = MAX_ACK_DELAY):
        self.index = index
        self.initial_window = initial_window
        self.local_addr: Optional[str] = None
        self.peer_addr: Optional[str] = None
        self.space = PacketNumberSpace()
        self.reset_recovery(max_ack_delay)
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

    def reset_recovery(self, max_ack_delay: float) -> None:
        """Build the path's RTT estimator and congestion controller: the
        one place either is made, when the path is created and when the
        peer's address changes (RFC 9000 §9.4).  ``max_ack_delay`` is the
        peer's transport parameter, which outlives any path state."""
        self.rtt = RttEstimator(max_ack_delay=max_ack_delay)
        self.cc = NewRenoController(self.initial_window)

    def amp_budget(self) -> int:
        """Bytes still sendable under the 3x anti-amplification limit."""
        if not self.amp_limited:
            return 1 << 62
        return AMP_FACTOR * self.amp_received - self.amp_sent

    def __repr__(self) -> str:
        return f"<Path {self.index} {self.local_addr}->{self.peer_addr}>"


class PathsMixin:
    def _set_path_state(self, path: Path, state: str) -> None:
        if path.state == state:
            return
        old = path.state
        path.state = state
        self.protoops.emit(
            self, "path_validation_state_changed", path.index, old, state)

    def start_path_validation(self, path_index: int) -> None:
        """Begin (or restart) §8.2 validation of a path: queue a
        PATH_CHALLENGE carrying a fresh random 8-byte token on the path
        itself and arm the PTO-based probe retransmission timer."""
        path = self.paths[path_index]
        path.challenge_data = random_bytes(self._rng, 8)
        path.probe_count = 0
        path.probe_frames.append(
            F.PathChallengeFrame(data=path.challenge_data))
        path.probe_deadline = self.now + self._probe_timeout(path)
        self.stats["path_challenges_sent"] += 1
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

    def on_peer_address_changed(self, path_index: int, new_addr: str,
                                received_bytes: int = 0) -> None:
        """Passive migration (§9): an authenticated packet arrived from a
        new peer address (NAT rebinding).  The path follows the peer,
        loses its congestion and RTT state (§9.4), becomes
        amplification-limited again and must revalidate."""
        path = self.paths[path_index]
        old = path.peer_addr or ""
        path.peer_addr = new_addr
        path.reset_recovery(self._peer_max_ack_delay)
        path.amp_limited = not self.is_client
        path.amp_received = received_bytes
        path.amp_sent = 0
        if path.state in (PathState.VALIDATED, PathState.FAILED):
            self._set_path_state(path, PathState.UNVALIDATED)
        self.stats["migrations"] += 1
        self.protoops.emit(
            self, "connection_migrated", path_index, old, new_addr)
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
        self.stats["migrations"] += 1
        self.protoops.emit(
            self, "connection_migrated", 0, old, new_local_addr)
        if path.state == PathState.VALIDATED:
            self._set_path_state(path, PathState.UNVALIDATED)
        self.start_path_validation(0)

    def note_off_path_packet(self) -> None:
        """An unauthenticated datagram from a foreign address was dropped
        without touching any connection state (§9.3.2)."""
        self.stats["off_path_rejected"] += 1

    def _handle_stateless_reset(self) -> None:
        """§10.3: the peer lost its state — stop sending immediately."""
        self.stats["stateless_resets_received"] += 1
        self.protoops.emit(self, "stateless_reset")
        self._finish_close(0, "stateless reset",
                           next_state=ConnectionState.DRAINING)

    def _op_select_sending_path(self) -> int:
        """Default single-path behaviour; the multipath plugin replaces it."""
        return 0

    def _op_get_path(self, index: int) -> Path:
        return self.paths[index]

    def _op_map_incoming_path(self, local_addr: str, peer_addr: str) -> int:
        """Which path an incoming datagram belongs to. The multipath
        plugin replaces this to create paths for new address pairs."""
        for path in self.paths:
            if path.local_addr == local_addr and path.peer_addr == peer_addr:
                return path.index
        return 0

    def _op_get_rtt(self, i: int = 0) -> float:
        """Smoothed RTT of a path."""
        return self.paths[i].rtt.smoothed

    def _op_get_cwin(self, i: int = 0) -> int:
        """Congestion window of a path."""
        return self.paths[i].cc.cwnd

    def _op_get_bytes_in_flight(self, i: int = 0) -> int:
        """Bytes currently in flight on a path."""
        return self.paths[i].cc.bytes_in_flight

    def _op_get_largest_acked(self, i: int = 0) -> int:
        """Largest packet number acked by the peer on a path."""
        return self.paths[i].space.largest_acked

    def _op_get_next_packet_number(self, i: int = 0) -> int:
        """Next packet number to be used on a path."""
        return self.paths[i].space.next_packet_number

    @property
    def _peer_max_ack_delay(self) -> float:
        """The peer's ``max_ack_delay`` transport parameter, or the
        default until its parameters arrive."""
        peer = self.peer_transport_parameters
        return MAX_ACK_DELAY if peer is None else peer.max_ack_delay

    def _op_create_path(self, local_addr: str, peer_addr: str) -> int:
        path = Path(len(self.paths), self.configuration.initial_window,
                    self._peer_max_ack_delay)
        path.local_addr = local_addr
        path.peer_addr = peer_addr
        path.active = True
        # A server-created path is amplification-limited until validated
        # (§8.1); a client opens paths toward an already-validated server.
        path.amp_limited = not self.is_client
        self.paths.append(path)
        self.protoops.run(self, "path_created", None, path.index)
        return path.index

    def _op_path_bytes_allowed(self, path_index: int) -> int:
        return self.paths[path_index].cc.available_window
