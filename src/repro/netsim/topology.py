"""The Figure-7 experimental topology.

::

            R1 --{d1, bw1, l1}--\\
    Client--|                    R3 --- Server
            R2 --{d2, bw2, l2}--/

The client is dual-homed (addresses ``client.0`` via R1 and ``client.1``
via R2); the server has a single address ``server.0``.  Single-path
experiments use only the top path, multipath experiments use both, matching
the paper's evaluation setup.
"""

from __future__ import annotations

from dataclasses import dataclass

from .link import Link
from .node import Host, Nat, Router
from .sim import Simulator

#: Bandwidth of the access/LAN segments (client-R1/R2, R3-server): fast
#: enough never to be the bottleneck, mirroring the testbed's 1 Gbps NICs.
LAN_BANDWIDTH = 1_000_000_000.0
LAN_DELAY = 0.0001


@dataclass
class PathParams:
    """One bottleneck path: one-way delay (s), bandwidth (bit/s), loss."""

    delay: float
    bandwidth: float
    loss: float = 0.0

    @classmethod
    def from_paper_units(cls, d_ms: float, bw_mbps: float, loss_pct: float = 0.0) -> "PathParams":
        """Build from the paper's units: ms, Mbps and percent."""
        return cls(delay=d_ms / 1000.0, bandwidth=bw_mbps * 1_000_000.0,
                   loss=loss_pct / 100.0)


class Figure7Topology:
    """Builds the two-path lab network used throughout Section 4."""

    def __init__(
        self,
        sim: Simulator,
        path1: PathParams,
        path2: PathParams,
        seed: int = 0,
        buffer_bytes: int = 64 * 1024,
    ):
        self.sim = sim
        self.client = Host(sim, "client")
        self.server = Host(sim, "server")
        self.r1 = Router(sim, "R1")
        self.r2 = Router(sim, "R2")
        self.r3 = Router(sim, "R3")

        # Access links (never the bottleneck).
        l_c_r1 = Link(sim, LAN_DELAY, LAN_BANDWIDTH, buffer_bytes=buffer_bytes)
        l_c_r2 = Link(sim, LAN_DELAY, LAN_BANDWIDTH, buffer_bytes=buffer_bytes)
        l_r3_s = Link(sim, LAN_DELAY, LAN_BANDWIDTH, buffer_bytes=buffer_bytes)
        # Bottleneck links with the paper's {d, bw, l} parameters.
        l_r1_r3 = Link(sim, path1.delay, path1.bandwidth, path1.loss,
                       seed=seed * 10 + 1, buffer_bytes=buffer_bytes)
        l_r2_r3 = Link(sim, path2.delay, path2.bandwidth, path2.loss,
                       seed=seed * 10 + 2, buffer_bytes=buffer_bytes)
        self.path_links = (l_r1_r3, l_r2_r3)

        self.client.attach(l_c_r1, "client.0")
        self.r1.attach(l_c_r1, "r1.c", far_side=True)
        self.client.attach(l_c_r2, "client.1")
        self.r2.attach(l_c_r2, "r2.c", far_side=True)

        self.r1.attach(l_r1_r3, "r1.up")
        self.r3.attach(l_r1_r3, "r3.p1", far_side=True)
        self.r2.attach(l_r2_r3, "r2.up")
        self.r3.attach(l_r2_r3, "r3.p2", far_side=True)

        self.r3.attach(l_r3_s, "r3.s")
        self.server.attach(l_r3_s, "server.0", far_side=True)

        # R1/R2: iface 0 faces client, iface 1 faces R3.
        self.r1.add_route("client.*", 0)
        self.r1.add_route("*", 1)
        self.r2.add_route("client.*", 0)
        self.r2.add_route("*", 1)
        # R3: iface 0 = path1 (R1), iface 1 = path2 (R2), iface 2 = server.
        self.r3.add_route("client.0", 0)
        self.r3.add_route("client.1", 1)
        self.r3.add_route("server.*", 2)


def symmetric_topology(
    sim: Simulator,
    d_ms: float,
    bw_mbps: float,
    loss_pct: float = 0.0,
    seed: int = 0,
    buffer_bytes: int = 64 * 1024,
) -> Figure7Topology:
    """Topology with both paths sharing {d, bw, l}, the paper's default
    (``d2 = d1, bw2 = bw1, l2 = l1``)."""
    params = PathParams.from_paper_units(d_ms, bw_mbps, loss_pct)
    return Figure7Topology(sim, params, params, seed=seed, buffer_bytes=buffer_bytes)


@dataclass
class NatTopology:
    """``client --(access)-- NAT --(wan bottleneck)-- server``."""

    client: Host
    nat: Nat
    server: Host
    access: Link
    wan: Link


def nat_topology(
    sim: Simulator,
    d_ms: float = 10.0,
    bw_mbps: float = 10.0,
    loss_pct: float = 0.0,
    seed: int = 0,
    buffer_bytes: int = 64 * 1024,
) -> NatTopology:
    """A single-path topology with an address-translating hop: the client
    sits behind a :class:`~repro.netsim.node.Nat`, so a scheduled
    ``rebind()`` flaps the connection's externally visible source address
    mid-transfer (the RFC 9000 §9 migration scenario)."""
    params = PathParams.from_paper_units(d_ms, bw_mbps, loss_pct)
    client = Host(sim, "client")
    server = Host(sim, "server")
    nat = Nat(sim, "nat")
    access = Link(sim, LAN_DELAY, LAN_BANDWIDTH, buffer_bytes=buffer_bytes)
    wan = Link(sim, params.delay, params.bandwidth, params.loss,
               seed=seed * 10 + 1, buffer_bytes=buffer_bytes)
    client.attach(access, "client.0")
    nat.attach_inside(access, far_side=True)
    nat.attach_outside(wan)
    server.attach(wan, "server.0", far_side=True)
    return NatTopology(client=client, nat=nat, server=server,
                       access=access, wan=wan)
