"""Multipath plugin tests (§4.3)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import PluginInstance
from repro.netsim import Simulator, symmetric_topology
from repro.netsim.topology import Figure7Topology, PathParams
from repro.plugins.multipath import (
    AddAddressFrame,
    MpAckFrame,
    build_multipath_plugin,
)
from repro.quic import ClientEndpoint, ServerEndpoint
from repro.quic import frames as F
from repro.quic.wire import Buffer, RangeSet

from tests.test_quic_frames import ack_delays, ack_layouts, ack_ranges


def setup_pair(sim, topo, scheduler="rr"):
    server = ServerEndpoint(sim, topo.server, "server.0", 443)
    client = ClientEndpoint(sim, topo.client, "client.0", 5000, "server.0", 443)
    client.conn.extra_local_addresses = ["client.1"]
    PluginInstance(build_multipath_plugin(scheduler), client.conn).attach()
    state = {}

    def on_conn(conn):
        PluginInstance(build_multipath_plugin(scheduler), conn).attach()
        state["sconn"] = conn

    server.on_connection = on_conn
    client.connect()
    assert sim.run_until(
        lambda: client.conn.is_established and "sconn" in state, timeout=5)
    return client, server, state


def transfer(sim, client, state, size, timeout=120):
    done = [False]
    rx = [0]
    state["sconn"].on_stream_data = lambda sid, d, fin: (
        rx.__setitem__(0, rx[0] + len(d)), done.__setitem__(0, fin))
    sid = client.conn.create_stream()
    client.conn.send_stream_data(sid, b"m" * size, fin=True)
    client.pump()
    assert sim.run_until(lambda: done[0], timeout=timeout)
    return rx[0]


class TestFrames:
    def test_add_address_roundtrip(self):
        frame = AddAddressFrame(address="client.1", address_id=1)
        buf = Buffer(frame.to_bytes())
        ftype = buf.pull_varint()
        parsed = AddAddressFrame.parse(buf, ftype)
        assert parsed.address == "client.1"
        assert parsed.address_id == 1

    def test_mp_ack_roundtrip(self):
        ack = F.AckFrame(ranges=RangeSet([range(0, 5), range(8, 10)]),
                         ack_delay=0.002)
        frame = MpAckFrame(path_id=1, ack=ack)
        buf = Buffer(frame.to_bytes())
        ftype = buf.pull_varint()
        parsed = MpAckFrame.parse(buf, ftype)
        assert parsed.path_id == 1
        assert parsed.ack.ranges == ack.ranges

    @given(ack_layouts, ack_delays,
           st.sampled_from([0, 1, 63, 64, 16383, 16384]))
    def test_mp_ack_encoded_size_matches_serialization(
            self, layout, ack_delay, path_id):
        frame = MpAckFrame(path_id=path_id, ack=F.AckFrame(
            ranges=ack_ranges(layout), ack_delay=ack_delay))
        assert frame.encoded_size() == len(frame.to_bytes())

    def test_mp_ack_not_ack_eliciting(self):
        frame = MpAckFrame(path_id=0, ack=F.AckFrame(
            ranges=RangeSet([range(0, 1)])))
        assert not frame.ack_eliciting


class TestPathEstablishment:
    def test_both_sides_open_second_path(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=10)
        client, server, state = setup_pair(sim, topo)
        sim.run(until=sim.now + 0.5)
        assert len(client.conn.paths) == 2
        assert len(state["sconn"].paths) == 2
        assert client.conn.paths[1].local_addr == "client.1"
        assert state["sconn"].paths[1].peer_addr == "client.1"

    def test_single_homed_client_stays_single_path(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=10)
        server = ServerEndpoint(sim, topo.server, "server.0", 443)
        client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                                "server.0", 443)
        PluginInstance(build_multipath_plugin(), client.conn).attach()
        client.connect()
        assert sim.run_until(lambda: client.conn.is_established, timeout=5)
        sim.run(until=sim.now + 0.5)
        assert len(client.conn.paths) == 1


class TestScheduling:
    def test_round_robin_splits_traffic(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=10, seed=2)
        client, server, state = setup_pair(sim, topo)
        transfer(sim, client, state, 500_000)
        pns = [p.space.next_packet_number for p in client.conn.paths]
        assert min(pns) > 0.3 * max(pns)  # both paths genuinely used

    def test_multipath_speedup_on_large_file(self):
        """Figure 9: with 1 MB, two symmetric paths approach 2x."""
        sim1 = Simulator()
        topo1 = symmetric_topology(sim1, d_ms=10, bw_mbps=10, seed=2)
        server1 = ServerEndpoint(sim1, topo1.server, "server.0", 443)
        client1 = ClientEndpoint(sim1, topo1.client, "client.0", 5000,
                                 "server.0", 443)
        done = [False]
        server1.on_connection = lambda conn: setattr(
            conn, "on_stream_data",
            lambda sid, d, fin: done.__setitem__(0, fin))
        client1.connect()
        assert sim1.run_until(lambda: client1.conn.is_established, timeout=5)
        t0 = sim1.now
        sid = client1.conn.create_stream()
        client1.conn.send_stream_data(sid, b"m" * 1_000_000, fin=True)
        client1.pump()
        assert sim1.run_until(lambda: done[0], timeout=60)
        single = sim1.now - t0

        sim2 = Simulator()
        topo2 = symmetric_topology(sim2, d_ms=10, bw_mbps=10, seed=2)
        client2, server2, state2 = setup_pair(sim2, topo2)
        t0 = sim2.now
        transfer(sim2, client2, state2, 1_000_000)
        multi = sim2.now - t0
        assert single / multi > 1.6

    def test_lowrtt_scheduler_prefers_faster_path(self):
        sim = Simulator()
        topo = Figure7Topology(
            sim,
            PathParams.from_paper_units(5, 20),
            PathParams.from_paper_units(60, 20),
            seed=3,
        )
        client, server, state = setup_pair(sim, topo, scheduler="lowrtt")
        transfer(sim, client, state, 300_000)
        fast = client.conn.paths[0].space.next_packet_number
        slow = client.conn.paths[1].space.next_packet_number
        assert fast > slow

    def test_asymmetric_delays_still_complete(self):
        sim = Simulator()
        topo = Figure7Topology(
            sim,
            PathParams.from_paper_units(5, 10),
            PathParams.from_paper_units(50, 10),
            seed=4,
        )
        client, server, state = setup_pair(sim, topo)
        assert transfer(sim, client, state, 200_000) == 200_000

    def test_multipath_with_loss(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=10, loss_pct=3, seed=5)
        client, server, state = setup_pair(sim, topo)
        assert transfer(sim, client, state, 200_000, timeout=300) == 200_000

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            build_multipath_plugin("priority")


class TestMpAcks:
    def test_per_path_packet_numbers_acknowledged(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=10, seed=2)
        client, server, state = setup_pair(sim, topo)
        transfer(sim, client, state, 300_000)
        sim.run(until=sim.now + 1.0)
        for path in client.conn.paths:
            # Every path's in-flight data was eventually acknowledged.
            assert path.space.largest_acked >= 0
            assert path.cc.bytes_in_flight == 0
