"""Endpoint adapters: glue between sans-io connections and the simulator.

A :class:`ClientEndpoint` drives a single connection; a
:class:`ServerEndpoint` demultiplexes incoming datagrams onto per-client
connections by destination connection ID and spawns new connections for
unknown Initials.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Optional

from repro.netsim import Datagram, DatagramBurst, Host, Simulator

from .connection import (
    CID_LENGTH,
    INITIAL_PADDING_TARGET,
    ConnectionState,
    QuicConfiguration,
    QuicConnection,
)
from .packet import FORM_LONG
from .reset import build_stateless_reset, stateless_reset_token


class _ConnectionDriver:
    """Pumps one connection: sends datagrams, manages its timer event."""

    def __init__(self, sim: Simulator, host: Host, local_port: int,
                 peer_port: int, conn: QuicConnection):
        self.sim = sim
        self.host = host
        self.local_port = local_port
        self.peer_port = peer_port
        self.conn = conn
        self._timer_event = None
        #: What ``conn.next_timer()`` last said; the queued event may be
        #: due earlier than this (see :meth:`_rearm_timer`), never later.
        self._deadline = 0.0
        #: CIDs this driver is registered under in a server demux table.
        self.bound_cids: list[bytes] = []
        #: Called once when the connection reaches CLOSED (after the
        #: drain period); endpoints use it to evict and unbind.
        self.on_terminated: Optional[Callable[["_ConnectionDriver"], None]] = None
        self._terminated = False

    def pump(self) -> None:
        """Send everything sendable and rearm the timer."""
        out = self.conn.datagrams_to_send(self.sim.now)
        if len(out) > 1:
            self._send_batched(out)
        else:
            for payload, path_index in out:
                path = self.conn.paths[path_index]
                if path.local_addr is None or path.peer_addr is None:
                    continue
                self.host.sendto(
                    payload, path.local_addr, self.local_port,
                    path.peer_addr, self.peer_port,
                )
        self._rearm_timer()
        if (not self._terminated
                and self.conn.state is ConnectionState.CLOSED):
            self._terminated = True
            self.stop()
            if self.on_terminated is not None:
                self.on_terminated(self)

    #: Max datagrams per GSO burst.  RFC 9002 §7.7 tells senders to limit
    #: bursts to the initial congestion window (~10 packets); the cap also
    #: keeps the tail-aligned burst delivery model honest — an uncapped
    #: burst would collapse a whole flight into one arrival instant and
    #: erase intra-flight ACK clocking.
    MAX_BURST_SEGMENTS = 10

    def _send_batched(self, out: list) -> None:
        """GSO-style emit: consecutive datagrams for the same path travel
        as one :class:`DatagramBurst` — a single simulator event and one
        route lookup per hop for the whole train."""
        conn = self.conn
        segments: list = []
        cur_path = None
        for payload, path_index in out:
            path = conn.paths[path_index]
            if path.local_addr is None or path.peer_addr is None:
                continue
            if segments and (path is not cur_path
                             or len(segments) >= self.MAX_BURST_SEGMENTS):
                self._flush_burst(segments)
                segments = []
            cur_path = path
            segments.append(Datagram(
                path.local_addr, self.local_port,
                path.peer_addr, self.peer_port, payload))
        if segments:
            self._flush_burst(segments)

    def _flush_burst(self, segments: list) -> None:
        if len(segments) == 1:
            d = segments[0]
            self.host.sendto(d.payload, d.src_addr, d.src_port,
                             d.dst_addr, d.dst_port)
        else:
            self.host.send_burst(DatagramBurst(segments))

    def _rearm_timer(self) -> None:
        """Arm the timer lazily: a deadline that only moved *later* keeps
        the event already queued (it fires early and :meth:`_on_timer`
        re-arms it), so a pump costs the simulator nothing unless the
        deadline moved earlier or vanished."""
        # A closing/draining connection still reports its drain deadline
        # through next_timer(); only CLOSED (or a fully idle connection)
        # returns None.
        deadline = self.conn.next_timer()
        if deadline is None:
            self.stop()
            return
        # Enforce minimum progress: a deadline at or before `now` must
        # still advance simulated time, or a no-op alarm would loop the
        # simulation at a single instant.
        deadline = max(deadline, self.sim.now + 1e-4)
        event = self._timer_event
        if event is not None:
            if event.time <= deadline:
                self._deadline = deadline
                return
            event.cancel()
        self._arm(deadline)

    def _arm(self, deadline: float) -> None:
        event = self._timer_event = self.sim.schedule_at(
            deadline, self._on_timer)
        # ``schedule_at`` rounds through a delay: remember when the event
        # really fires, so firing on time is never mistaken for early.
        self._deadline = event.time

    def _on_timer(self) -> None:
        if self.sim.now < self._deadline:
            # Fired early: nothing is due, so nothing runs that a plugin
            # or the peer could see.
            self._arm(self._deadline)
            return
        self._timer_event = None
        self.conn.handle_timer(self.sim.now)
        self.pump()

    def receive(self, dgram: Datagram) -> None:
        self._receive_one(dgram)
        self.pump()

    def receive_burst(self, burst: DatagramBurst) -> None:
        """GRO-style receive: drain the whole burst, then pump ONCE —
        ACK generation and the timer re-arm are coalesced per batch
        instead of per datagram (the dominant batching win: one ACK
        packet answers the train)."""
        for dgram in burst.segments:
            self._receive_one(dgram)
        self.pump()

    def _receive_one(self, dgram: Datagram) -> None:
        try:
            path_index = self.conn.protoops.run(
                self.conn, "map_incoming_path", None,
                dgram.dst_addr, dgram.src_addr,
            )
        except Exception:
            path_index = 0
        if path_index >= len(self.conn.paths):
            path_index = 0
        path = self.conn.paths[path_index]
        # Only datagrams from the path's known peer address earn the §8.1
        # anti-amplification credit; an off-path source must not be able
        # to buy send budget for an address it merely wrote on a packet.
        from_peer = path.peer_addr is None or path.peer_addr == dgram.src_addr
        before = self.conn.stats["packets_received"]
        if getattr(dgram, "ecn_ce", False):
            self.conn.stats["ecn_ce_received"] += 1
        self.conn.receive_datagram(dgram.payload, self.sim.now, path_index,
                                   from_peer=from_peer)
        authenticated = self.conn.stats["packets_received"] > before
        moved = (path.peer_addr != dgram.src_addr
                 or self.peer_port != dgram.src_port)
        if authenticated and moved and self.conn.handshake_complete:
            # The packet authenticated under this connection's keys but
            # arrived from a new peer address: a NAT rebinding.  QUIC's
            # connection IDs make the connection survive it (§4.3) — the
            # path follows the peer, must revalidate the new address (§9)
            # and is amplification-limited until it does (§8.1).
            self.conn.on_peer_address_changed(
                path_index, dgram.src_addr, dgram.size)
            self.peer_port = dgram.src_port
        elif not authenticated and not from_peer:
            self.conn.note_off_path_packet()

    def stop(self) -> None:
        if self._timer_event is not None:
            self._timer_event.cancel()
            self._timer_event = None


class ClientEndpoint:
    """A client endpoint owning one connection on one UDP port."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        local_addr: str,
        local_port: int,
        server_addr: str,
        server_port: int,
        configuration: Optional[QuicConfiguration] = None,
    ):
        self.sim = sim
        self.host = host
        configuration = configuration or QuicConfiguration(is_client=True)
        configuration.is_client = True
        self.conn = QuicConnection(configuration, now=sim.now)
        path0 = self.conn.paths[0]
        path0.local_addr = local_addr
        path0.peer_addr = server_addr
        self.driver = _ConnectionDriver(sim, host, local_port, server_port, self.conn)
        self.driver.on_terminated = self._on_terminated
        host.bind(local_port, self.driver.receive, self.driver.receive_burst)
        self._unbound = False

    def connect(self) -> None:
        """Kick off the handshake (the client Initial)."""
        self.driver.pump()

    def pump(self) -> None:
        self.driver.pump()

    def migrate(self, new_local_addr: str,
                new_local_port: Optional[int] = None) -> None:
        """Actively migrate the connection to a new local address (§9.5):
        bind the new port, rotate to a server-issued CID if one is
        available, and start validating the new path.  The old binding
        stays so in-flight replies are not dropped mid-switch."""
        if new_local_port is not None and new_local_port != self.driver.local_port:
            self.host.bind(new_local_port, self.driver.receive,
                           self.driver.receive_burst)
            self.driver.local_port = new_local_port
        self.conn.migrate(new_local_addr)
        self.driver.pump()

    def close(self, error_code: int = 0, reason: str = "") -> None:
        """Begin closing: send CONNECTION_CLOSE and enter the drain
        period.  The port unbinds once the connection terminates."""
        self.conn.close(error_code, reason)
        self.driver.pump()

    def _on_terminated(self, driver: _ConnectionDriver) -> None:
        if not self._unbound:
            self._unbound = True
            self.host.unbind(driver.local_port)


class ServerEndpoint:
    """A server endpoint accepting any number of connections on one port.

    Connections whose drain period ends are *evicted*: their drivers are
    unbound from the CID demux table, removed from ``connections`` and
    their timer events cancelled, so a server under churn stays bounded
    by the number of *open* connections.  Lifecycle counters live in
    ``stats`` and, when a metrics registry is supplied, are mirrored
    into it under ``quic.server.*``.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        local_addr: str,
        port: int,
        configuration_factory: Optional[Callable[[], QuicConfiguration]] = None,
        on_connection: Optional[Callable[[QuicConnection], None]] = None,
        metrics=None,
        reset_key: Optional[bytes] = None,
    ):
        self.sim = sim
        self.host = host
        self.local_addr = local_addr
        self.port = port
        self.configuration_factory = configuration_factory or (
            lambda: QuicConfiguration(is_client=False)
        )
        self.on_connection = on_connection
        self.metrics = metrics
        if reset_key is None:
            # Derived from the listening address so a "rebooted" endpoint
            # on the same address/port regenerates the very tokens it
            # advertised before losing state — what §10.3 relies on.
            reset_key = hashlib.sha256(
                f"reset-key:{local_addr}:{port}".encode()).digest()
        self.reset_key = reset_key
        self._reset_rng = random.Random(
            int.from_bytes(hashlib.sha256(reset_key).digest()[:8], "big"))
        self.connections: list[QuicConnection] = []
        self._by_cid: dict[bytes, _ConnectionDriver] = {}
        self.stats = {
            "accepted": 0,
            "evicted": 0,
            "cids_retired": 0,
            "peak_connections": 0,
            "stateless_resets_sent": 0,
            "undersized_initials": 0,
        }
        host.bind(port, self._receive, self._receive_burst)

    def _receive(self, dgram: Datagram) -> None:
        driver = self._classify(dgram)
        if driver is not None:
            driver.receive(dgram)

    def _receive_burst(self, burst: DatagramBurst) -> None:
        """GRO-style batch receive: demux each segment, then pump every
        touched driver ONCE — one ACK and one timer re-arm per driver
        per burst, instead of per datagram."""
        pumped: list = []
        for dgram in burst.segments:
            driver = self._classify(dgram)
            if driver is None:
                continue
            driver._receive_one(dgram)
            if driver not in pumped:
                pumped.append(driver)
        for driver in pumped:
            driver.pump()

    def _classify(self, dgram: Datagram) -> Optional[_ConnectionDriver]:
        """Route one datagram to its driver (accepting a new connection
        if warranted), or handle it terminally (reset / drop)."""
        dcid = self._destination_cid(dgram.payload)
        if dcid is None:
            return None
        driver = self._by_cid.get(dcid)
        if driver is None:
            if not dgram.payload or not dgram.payload[0] & FORM_LONG:
                # Short-header packet for a connection we hold no state
                # for (e.g. we rebooted): answer with a stateless reset
                # so the peer stops retrying into the void (§10.3).
                self._send_stateless_reset(dgram, dcid)
                return None
            if len(dgram.payload) < INITIAL_PADDING_TARGET:
                # §14.1: drop undersized client Initials before spending
                # connection state on them — a spoofed mini-Initial gets
                # neither amplification nor a half-open connection.
                self.stats["undersized_initials"] += 1
                return None
            driver = self._accept(dgram, dcid)
        return driver

    def _send_stateless_reset(self, dgram: Datagram, dcid: bytes) -> None:
        reset = build_stateless_reset(
            stateless_reset_token(self.reset_key, dcid),
            self._reset_rng, dgram.size)
        if reset is None:
            return  # trigger too small to answer without looping (§10.3.3)
        self.stats["stateless_resets_sent"] += 1
        if self.metrics is not None:
            self.metrics.counter("quic.server.stateless_resets_sent").inc()
        self.host.sendto(reset, dgram.dst_addr, self.port,
                         dgram.src_addr, dgram.src_port)

    def _accept(self, dgram: Datagram, dcid: bytes) -> _ConnectionDriver:
        configuration = self.configuration_factory()
        configuration.is_client = False
        if configuration.stateless_reset_key is None:
            configuration.stateless_reset_key = self.reset_key
        conn = QuicConnection(configuration, now=self.sim.now)
        path0 = conn.paths[0]
        path0.local_addr = dgram.dst_addr
        path0.peer_addr = dgram.src_addr
        driver = _ConnectionDriver(self.sim, self.host, self.port,
                                   dgram.src_port, conn)
        self.connections.append(conn)
        self._by_cid[dcid] = driver           # client's initial random DCID
        self._by_cid[conn.local_cid] = driver  # our CID in short headers
        driver.bound_cids = [dcid, conn.local_cid]
        driver.on_terminated = self._evict
        conn.on_cid_issued = (
            lambda cid, drv=driver: self._bind_extra_cid(drv, cid))
        self.stats["accepted"] += 1
        if len(self.connections) > self.stats["peak_connections"]:
            self.stats["peak_connections"] = len(self.connections)
        if self.metrics is not None:
            self.metrics.counter("quic.server.connections_accepted").inc()
            self.metrics.gauge("quic.server.connections_peak").set(
                float(len(self.connections)))
        if self.on_connection is not None:
            self.on_connection(conn)
        return driver

    def _bind_extra_cid(self, driver: _ConnectionDriver, cid: bytes) -> None:
        """Register a freshly issued CID (§5.1.1) in the demux table so
        a client rotating to it on migration still reaches its driver."""
        self._by_cid[cid] = driver
        driver.bound_cids.append(cid)

    def shutdown(self) -> None:
        """Forget every connection and release the port — simulating an
        endpoint crash/reboot (the §10.3 stateless reset scenario).
        Nothing is sent to the peers; they discover the loss through the
        stateless resets of whatever next listens on this address."""
        for driver in set(self._by_cid.values()):
            driver.stop()
        self._by_cid.clear()
        self.connections.clear()
        self.host.unbind(self.port)

    def _evict(self, driver: _ConnectionDriver) -> None:
        """Unbind a terminated connection from the demux table and drop
        it from the live list; its timer events are already cancelled by
        the driver."""
        retired = 0
        for cid in driver.bound_cids:
            if self._by_cid.get(cid) is driver:
                del self._by_cid[cid]
                retired += 1
        driver.bound_cids = []
        try:
            self.connections.remove(driver.conn)
        except ValueError:
            pass
        self.stats["evicted"] += 1
        self.stats["cids_retired"] += retired
        if self.metrics is not None:
            self.metrics.counter("quic.server.connections_evicted").inc()
            if retired:
                self.metrics.counter("quic.server.cids_retired").inc(retired)

    @staticmethod
    def _destination_cid(payload: bytes) -> Optional[bytes]:
        if not payload:
            return None
        if payload[0] & FORM_LONG:
            if len(payload) < 6:
                return None
            dcid_len = payload[5]
            return payload[6:6 + dcid_len]
        return payload[1:1 + CID_LENGTH]
