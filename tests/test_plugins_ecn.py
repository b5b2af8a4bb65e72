"""ECN plugin tests (the §4 '<100 lines' case study)."""

import struct

import pytest

from repro.core import PluginInstance
from repro.netsim import Simulator, symmetric_topology
from repro.plugins.ecn import (
    OFF_LAST_REACTED,
    OFF_REDUCTIONS,
    ST_AREA,
    EcnFeedbackFrame,
    build_ecn_plugin,
)
from repro.quic import ClientEndpoint, ServerEndpoint
from repro.quic.wire import Buffer
from repro.vm.analysis.termination import check_termination
from repro.vm.interpreter import HEAP_BASE


def sender_state(instance):
    addr = instance.runtime._opaque.get(ST_AREA)
    if addr is None:
        return None
    vals = struct.unpack_from("<4Q", instance.runtime.memory.data,
                              addr - HEAP_BASE)
    return {"reported": vals[0], "reacted": vals[1],
            "reductions": vals[2], "last_cut_us": vals[3]}


def run_ecn_transfer(size=600_000, threshold=20_000, use_ecn=True, seed=3):
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=20, bw_mbps=10, seed=seed)
    if threshold is not None:
        for link in topo.path_links:
            for pipe in (link.forward, link.backward):
                pipe.ecn_threshold = threshold
    server = ServerEndpoint(sim, topo.server, "server.0", 443)
    client = ClientEndpoint(sim, topo.client, "client.0", 5000, "server.0", 443)
    ci = None
    if use_ecn:
        ci = PluginInstance(build_ecn_plugin(), client.conn)
        ci.attach()
    state = {}

    def on_conn(conn):
        if use_ecn:
            PluginInstance(build_ecn_plugin(), conn).attach()
        state["sconn"] = conn

    server.on_connection = on_conn
    client.connect()
    done = [False]
    assert sim.run_until(
        lambda: client.conn.is_established and "sconn" in state, timeout=5)
    state["sconn"].on_stream_data = lambda sid, d, fin: done.__setitem__(0, fin)
    sid = client.conn.create_stream()
    client.conn.send_stream_data(sid, b"e" * size, fin=True)
    client.pump()
    assert sim.run_until(lambda: done[0], timeout=120)
    return sim, topo, client, state["sconn"], ci


def test_frame_roundtrip():
    frame = EcnFeedbackFrame(ce_count=1234)
    buf = Buffer(frame.to_bytes())
    parsed = EcnFeedbackFrame.parse(buf, buf.pull_varint())
    assert parsed.ce_count == 1234
    assert not frame.ack_eliciting


def test_pluglets_verified_and_terminating():
    plugin = build_ecn_plugin()
    plugin.verify_all()
    for pluglet in plugin.pluglets:
        assert check_termination(pluglet.instructions).proven


def test_router_marks_instead_of_dropping():
    sim, topo, client, sconn, ci = run_ecn_transfer()
    marked = sum(p.ecn_marked for l in topo.path_links
                 for p in (l.forward, l.backward))
    assert marked > 0
    assert sconn.stats["ecn_ce_received"] > 0


def test_sender_reacts_at_most_once_per_rtt():
    sim, topo, client, sconn, ci = run_ecn_transfer()
    state = sender_state(ci)
    assert state["reductions"] > 0
    # RFC 3168 pacing: far fewer cuts than CE marks echoed.
    assert state["reductions"] < state["reacted"] / 3
    # Whole transfer lasted ~1-2s, RTT 40 ms: cuts bounded accordingly.
    assert state["reductions"] < 40


def test_ecn_reduces_losses():
    """The point of ECN: congestion signalled by marks, not drops."""
    _sim, topo1, client_ecn, _s1, _ci = run_ecn_transfer(use_ecn=True)
    _sim2, topo2, client_plain, _s2, _ = run_ecn_transfer(use_ecn=False,
                                                          threshold=None)
    # With ECN + AQM, the sender backs off before the buffer overflows.
    assert (client_ecn.conn.stats["packets_lost"]
            <= client_plain.conn.stats["packets_lost"])


def test_no_marks_without_congestion():
    sim, topo, client, sconn, ci = run_ecn_transfer(size=5_000)
    assert sconn.stats["ecn_ce_received"] == 0
    state = sender_state(ci)
    assert state is None or state["reductions"] == 0
