"""Handshake and lifecycle: the crypto-stream handshake, connection-ID
issue, and closing, draining and releasing state (RFC 9000 §10)."""

from __future__ import annotations

from repro.errors import ProtocolViolation, QuicError, TransportError

from .. import frames as F
from ..crypto import (initial_crypto_pair, one_rtt_crypto_pair, random_bytes,
                      session_secret)
from ..packet import Epoch
from ..reset import stateless_reset_token
from ..transport_params import TransportParameters
from ..wire import Buffer
from .streams import _closed_id_sets

CID_LENGTH = 8
HANDSHAKE_CH = 1
HANDSHAKE_SH = 2


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


class HandshakeMixin:
    def _start_client_handshake(self) -> None:
        self.peer_cid = random_bytes(self._rng, CID_LENGTH)
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

    def _op_process_handshake_message(self, data: bytes) -> None:
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

    def _op_derive_one_rtt_keys(self, peer_share: bytes) -> None:
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
        cid = random_bytes(self._rng, CID_LENGTH)
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
        self.protoops.emit(self, "connection_state_changed", state)

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

    def _op_crypto_data_received(self, data: bytes) -> None:
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
