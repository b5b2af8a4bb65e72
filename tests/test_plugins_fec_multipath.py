"""Multipath + FEC RLC on a lossy transfer.

The path shape of the bench's ``bulk-plugins-lossy`` (two 25 ms /
10 Mbit/s paths, 1 % loss, the loss process seeded by the pattern
number), a 400 kB download with seeded payload as the bench generates
it, and both plugins on both ends.  Multipath gives every path its own
packet-number space, so FEC identifies a source symbol by (path id, pn).
When it used the packet number alone, patterns 2 and 3 failed: one sat
idle until ``(0, 'idle timeout')``, and the other parsed a "recovered"
packet of the wrong path as frames (``(7, 'read of 246976943 bytes past
end')``).
"""

from __future__ import annotations

import hashlib
import random
import struct

import pytest

from repro.core import PluginInstance
from repro.netsim import Simulator, symmetric_topology
from repro.plugins import build_fec_plugin, build_multipath_plugin
from repro.quic import ClientEndpoint, QuicConfiguration, ServerEndpoint
from repro.quic.connection import reset_instance_counter

PLUGINS = (build_multipath_plugin, build_fec_plugin)
PATH = dict(d_ms=25, bw_mbps=10, loss_pct=1.0)
SIZE = 400_000
SEED = 1


def lossy_transfer(pattern: int) -> tuple:
    """Download about ``SIZE`` bytes over loss pattern *pattern*; return
    ``(completed intact, client close error, server close error)``."""
    rng = random.Random(SEED * 1_000_003 + pattern)
    size = int(SIZE * rng.uniform(0.99, 1.01))
    payload = rng.randbytes(size)
    request = struct.pack(">QI", 0, size) + payload[:52]

    reset_instance_counter()
    sim = Simulator()
    topo = symmetric_topology(sim, seed=pattern, **PATH)
    servers: list = []

    def on_connection(conn):
        for build in PLUGINS:
            PluginInstance(build(), conn).attach()
        servers.append(conn)
        conn.on_stream_data = lambda sid, data, fin: (
            conn.send_stream_data(sid, payload, fin=True) if fin else None)

    ServerEndpoint(sim, topo.server, "server.0", 443,
                   on_connection=on_connection)
    client = ClientEndpoint(
        sim, topo.client, "client.0", 5000, "server.0", 443,
        configuration=QuicConfiguration(is_client=True, seed=SEED))
    client.conn.extra_local_addresses = ["client.1"]
    for build in PLUGINS:
        PluginInstance(build(), client.conn).attach()
    digest = hashlib.sha256()
    state = {"bytes": 0, "fin": False}

    def on_data(stream_id, data, fin):
        digest.update(data)
        state["bytes"] += len(data)
        state["fin"] = state["fin"] or fin

    client.conn.on_stream_data = on_data
    client.connect()
    assert sim.run_until(lambda: client.conn.is_established and servers,
                         timeout=10)
    stream_id = client.conn.create_stream()
    client.conn.send_stream_data(stream_id, request, fin=True)
    client.pump()
    sim.run_until(lambda: state["fin"], timeout=300)
    intact = (state["fin"] and state["bytes"] == size
              and digest.digest() == hashlib.sha256(payload).digest())
    return intact, client.conn.close_error, servers[0].close_error


@pytest.mark.parametrize("pattern", range(8))
def test_multipath_with_fec_completes_a_lossy_transfer(pattern):
    assert lossy_transfer(pattern) == (True, None, None)
