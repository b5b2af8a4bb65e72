"""Hosts and routers exchanging UDP-like datagrams over simulated links.

Addressing is deliberately simple: every interface carries a unique string
address (e.g. ``"client.0"``), and routers forward on the destination
address through static routes.  Hosts expose a socket-like API —
``bind(port, handler)`` and ``sendto(...)`` — which is what the QUIC and
TCP endpoints are built on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .link import Link, Pipe
from .sim import Simulator

Handler = Callable[["Datagram"], None]


@dataclass
class Datagram:
    """A UDP-like datagram as it travels through the simulated network."""

    src_addr: str
    src_port: int
    dst_addr: str
    dst_port: int
    payload: bytes
    hops: int = 0
    #: ECN Congestion Experienced: set by a congested queue en route.
    ecn_ce: bool = False

    @property
    def size(self) -> int:
        return len(self.payload)

    def __repr__(self) -> str:
        return (
            f"<Datagram {self.src_addr}:{self.src_port} -> "
            f"{self.dst_addr}:{self.dst_port} {self.size}B>"
        )


@dataclass
class DatagramBurst:
    """A GSO/GRO-style train of datagrams traveling as ONE simulator event.

    A sender emits a whole pump's worth of datagrams for a path as
    a single burst; every hop then pays one route lookup and one event
    per *burst* instead of per datagram.  Loss, buffer admission and link
    statistics remain per segment (see ``Pipe.send_burst``), so drop
    patterns match the same datagrams sent one by one."""

    segments: list

    @property
    def size(self) -> int:
        return sum(d.size for d in self.segments)

    def __repr__(self) -> str:
        return f"<DatagramBurst {len(self.segments)} segs {self.size}B>"


class Interface:
    """Attachment point of a node to one direction-pair of pipes."""

    def __init__(self, node: "Node", address: str, tx: Pipe, rx: Pipe):
        self.node = node
        self.address = address
        self.tx = tx
        rx.connect(self._on_receive)

    def send(self, dgram: Datagram) -> bool:
        return self.tx.send(dgram, dgram.size)

    def send_burst(self, burst: DatagramBurst) -> int:
        return self.tx.send_burst(burst)

    def _on_receive(self, dgram) -> None:
        if type(dgram) is DatagramBurst:
            self.node.receive_burst(dgram, self)
        else:
            self.node.receive(dgram, self)


class Node:
    """Base class for hosts and routers."""

    MAX_HOPS = 32

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.interfaces: list[Interface] = []

    def attach(self, link: Link, address: str, far_side: bool = False) -> Interface:
        """Attach to one end of ``link``; ``far_side`` selects the end."""
        tx, rx = (link.backward, link.forward) if far_side else (link.forward, link.backward)
        iface = Interface(self, address, tx, rx)
        self.interfaces.append(iface)
        return iface

    def receive(self, dgram: Datagram, iface: Interface) -> None:
        raise NotImplementedError

    def receive_burst(self, burst: DatagramBurst, iface: Interface) -> None:
        """Default: unroll the burst for nodes without a batched path."""
        for dgram in list(burst.segments):
            self.receive(dgram, iface)

    def interface_for_address(self, address: str) -> Optional[Interface]:
        for iface in self.interfaces:
            if iface.address == address:
                return iface
        return None


class Host(Node):
    """An end host with a UDP-socket-like interface.

    Multiple interfaces give the host multiple local addresses, which the
    multipath experiments use (the Figure-7 client reaches the server over
    R1 and R2 via distinct local addresses).
    """

    def __init__(self, sim: Simulator, name: str):
        super().__init__(sim, name)
        self._bindings: dict[int, Handler] = {}
        self._burst_bindings: dict[int, Callable[["DatagramBurst"], None]] = {}
        self.rx_datagrams = 0
        self.tx_datagrams = 0
        self.unrouted = 0

    def bind(self, port: int, handler: Handler,
             burst_handler: Optional[Callable[["DatagramBurst"], None]] = None,
             ) -> None:
        """Bind ``handler`` for per-datagram delivery; a GRO-capable
        endpoint may also register ``burst_handler`` to drain a whole
        :class:`DatagramBurst` per wakeup."""
        if port in self._bindings:
            raise ValueError(f"port {port} already bound on {self.name}")
        self._bindings[port] = handler
        if burst_handler is not None:
            self._burst_bindings[port] = burst_handler

    def unbind(self, port: int) -> None:
        self._bindings.pop(port, None)
        self._burst_bindings.pop(port, None)

    def sendto(
        self,
        payload: bytes,
        src_addr: str,
        src_port: int,
        dst_addr: str,
        dst_port: int,
    ) -> bool:
        """Send a datagram out of the interface owning ``src_addr``."""
        iface = self.interface_for_address(src_addr)
        if iface is None:
            raise ValueError(f"{self.name} has no interface {src_addr}")
        self.tx_datagrams += 1
        return iface.send(Datagram(src_addr, src_port, dst_addr, dst_port, payload))

    def send_burst(self, burst: DatagramBurst) -> int:
        """GSO-style send: the whole train leaves as one link event.
        All segments must share the source address (one route)."""
        src_addr = burst.segments[0].src_addr
        iface = self.interface_for_address(src_addr)
        if iface is None:
            raise ValueError(f"{self.name} has no interface {src_addr}")
        self.tx_datagrams += len(burst.segments)
        return iface.send_burst(burst)

    def receive(self, dgram: Datagram, iface: Interface) -> None:
        handler = self._bindings.get(dgram.dst_port)
        if handler is None:
            self.unrouted += 1
            return
        self.rx_datagrams += 1
        handler(dgram)

    def receive_burst(self, burst: DatagramBurst, iface: Interface) -> None:
        segments = burst.segments
        port = segments[0].dst_port
        if any(d.dst_port != port for d in segments):
            # Mixed destination ports (possible after splintering): fall
            # back to per-datagram demux.
            for dgram in segments:
                self.receive(dgram, iface)
            return
        burst_handler = self._burst_bindings.get(port)
        if burst_handler is not None:
            self.rx_datagrams += len(segments)
            burst_handler(burst)
            return
        handler = self._bindings.get(port)
        if handler is None:
            self.unrouted += len(segments)
            return
        for dgram in segments:
            self.rx_datagrams += 1
            handler(dgram)

    @property
    def addresses(self) -> list[str]:
        return [iface.address for iface in self.interfaces]


class Nat(Node):
    """An address-translating hop (NAPT) between one inside host and the
    outside network.

    Outbound datagrams get their source rewritten to the NAT's current
    external address and a per-flow external port; inbound datagrams are
    matched on destination port and rewritten back to the inside flow.
    :meth:`rebind` models the event QUIC's connection IDs exist to survive
    (§4.3 / RFC 9000 §9): the binding table is flushed and the external
    address changes generation, so the same inside flow reappears to the
    outside world from a brand-new source address and port.
    """

    def __init__(self, sim: Simulator, name: str,
                 external_prefix: str = "nat", port_base: int = 42000):
        super().__init__(sim, name)
        self.external_prefix = external_prefix
        self.port_base = port_base
        self.generation = 0
        self.inside: Optional[Interface] = None
        self.outside: Optional[Interface] = None
        self._forward: dict[tuple[str, int], int] = {}
        self._reverse: dict[int, tuple[str, int]] = {}
        self._next_port = port_base
        self.translated = 0
        self.dropped = 0
        self.rebinds = 0

    @property
    def external_addr(self) -> str:
        return f"{self.external_prefix}.{self.generation}"

    def attach_inside(self, link: Link, address: str = "",
                      far_side: bool = False) -> Interface:
        self.inside = self.attach(link, address or f"{self.name}.in", far_side)
        return self.inside

    def attach_outside(self, link: Link, far_side: bool = False) -> Interface:
        self.outside = self.attach(link, self.external_addr, far_side)
        return self.outside

    def rebind(self) -> None:
        """Flush all bindings and move to a fresh external address — the
        classic mid-connection NAT rebinding."""
        self._forward.clear()
        self._reverse.clear()
        self.generation += 1
        self._next_port = self.port_base + 1000 * self.generation
        if self.outside is not None:
            self.outside.address = self.external_addr
        self.rebinds += 1

    def _translate(self, dgram: Datagram, iface: Interface) -> Optional[Datagram]:
        """Rewrite one datagram, or None if the NAT drops it."""
        dgram.hops += 1
        if dgram.hops > self.MAX_HOPS:
            self.dropped += 1
            return None
        if iface is self.inside:
            key = (dgram.src_addr, dgram.src_port)
            port = self._forward.get(key)
            if port is None:
                port = self._next_port
                self._next_port += 1
                self._forward[key] = port
                self._reverse[port] = key
            self.translated += 1
            return Datagram(
                self.external_addr, port, dgram.dst_addr, dgram.dst_port,
                dgram.payload, hops=dgram.hops, ecn_ce=dgram.ecn_ce)
        key = self._reverse.get(dgram.dst_port)
        if key is None or dgram.dst_addr != self.external_addr:
            # No binding (e.g. a reply that outlived a rebind, or a
            # packet for a stale external address): silently dropped,
            # exactly like a real NAT.
            self.dropped += 1
            return None
        self.translated += 1
        return Datagram(
            dgram.src_addr, dgram.src_port, key[0], key[1],
            dgram.payload, hops=dgram.hops, ecn_ce=dgram.ecn_ce)

    def receive(self, dgram: Datagram, iface: Interface) -> None:
        out = self._translate(dgram, iface)
        if out is None:
            return
        target = self.outside if iface is self.inside else self.inside
        target.send(out)

    def receive_burst(self, burst: DatagramBurst, iface: Interface) -> None:
        """Translate each segment; survivors continue as one burst."""
        segments = [d for d in (self._translate(dgram, iface)
                                for dgram in burst.segments) if d is not None]
        if not segments:
            return
        target = self.outside if iface is self.inside else self.inside
        target.send_burst(DatagramBurst(segments))


class Router(Node):
    """A store-and-forward router with static routes on destination address.

    Routes may be exact addresses or ``prefix.*`` wildcards so one entry can
    cover all addresses of a multi-homed host.
    """

    def __init__(self, sim: Simulator, name: str):
        super().__init__(sim, name)
        self._routes: dict[str, int] = {}
        self.forwarded = 0
        self.unrouted = 0

    def add_route(self, dst: str, iface_index: int) -> None:
        self._routes[dst] = iface_index

    def _lookup(self, dst: str) -> Optional[int]:
        if dst in self._routes:
            return self._routes[dst]
        head, _, _ = dst.rpartition(".")
        while head:
            wild = head + ".*"
            if wild in self._routes:
                return self._routes[wild]
            head, _, _ = head.rpartition(".")
        return self._routes.get("*")

    def receive(self, dgram: Datagram, iface: Interface) -> None:
        dgram.hops += 1
        if dgram.hops > self.MAX_HOPS:
            self.unrouted += 1
            return
        index = self._lookup(dgram.dst_addr)
        if index is None or index >= len(self.interfaces):
            self.unrouted += 1
            return
        self.forwarded += 1
        self.interfaces[index].send(dgram)

    def receive_burst(self, burst: DatagramBurst, iface: Interface) -> None:
        """Forward the whole burst with ONE route lookup (the GSO win)."""
        segments = burst.segments
        first = segments[0]
        if any(d.dst_addr != first.dst_addr for d in segments):
            # Mixed destinations (possible after splintering): unroll.
            for dgram in segments:
                self.receive(dgram, iface)
            return
        for dgram in segments:
            dgram.hops += 1
        if first.hops > self.MAX_HOPS:
            self.unrouted += len(segments)
            return
        index = self._lookup(first.dst_addr)
        if index is None or index >= len(self.interfaces):
            self.unrouted += len(segments)
            return
        self.forwarded += len(segments)
        self.interfaces[index].send_burst(burst)
