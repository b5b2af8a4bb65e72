"""A VPN over the Datagram plugin (§4.2).

"We implement a simple VPN that captures raw IP packets and passes them to
PQUIC. [...] This VPN application reads IP datagrams from the tunnel
interface and writes them to the message socket exposed by the Datagram
plugin."

:class:`VpnTunnel` is the tunnel interface: inner packets (one flow-id
byte + raw packet bytes) ride DATAGRAM frames.  Like a real tun device it
has an MTU and a bounded queue — packets beyond either are dropped, which
is how the inner TCP gets its congestion signal.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.plugins.datagram import DatagramSocket

DEFAULT_TUNNEL_MTU = 1400
DEFAULT_QUEUE_PACKETS = 64


class VpnTunnel:
    """One end of the VPN: wraps an established PQUIC connection whose
    datagram plugin is attached."""

    def __init__(
        self,
        conn,
        pump: Callable[[], None],
        mtu: int = DEFAULT_TUNNEL_MTU,
        queue_packets: int = DEFAULT_QUEUE_PACKETS,
    ):
        self.conn = conn
        self.pump = pump
        self.queue_packets = queue_packets
        self._handlers: dict[int, Callable[[bytes], None]] = {}
        self.socket = DatagramSocket(conn, on_message=self._on_message)
        # The tunnel MTU can never exceed what one DATAGRAM frame carries
        # (minus the flow-id byte).
        self.mtu = min(mtu, self.socket.max_size() - 1)
        self.packets_in = 0
        self.packets_out = 0
        self.dropped_mtu = 0
        self.dropped_queue = 0

    def bind(self, flow_id: int, handler: Callable[[bytes], None]) -> None:
        """Register the consumer of inner packets for one flow."""
        self._handlers[flow_id] = handler

    def send(self, flow_id: int, packet: bytes) -> bool:
        """Write one inner IP packet to the tunnel; False if dropped."""
        if len(packet) > self.mtu:
            self.dropped_mtu += 1
            return False
        queued = sum(
            1 for r in self.conn.reserved_frames
            if r.plugin == "org.pquic.datagram"
        )
        if queued >= self.queue_packets:
            self.dropped_queue += 1
            return False
        accepted = self.socket.send(bytes([flow_id & 0xFF]) + packet)
        if accepted:
            self.packets_out += 1
            self.pump()
            return True
        return False

    def _on_message(self, data: bytes) -> None:
        if not data:
            return
        self.packets_in += 1
        handler = self._handlers.get(data[0])
        if handler is not None:
            handler(data[1:])
