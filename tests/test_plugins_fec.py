"""FEC plugin tests: GF(256) codes and the framework (§4.4)."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Plugin, PluginInstance
from repro.netsim import Simulator, symmetric_topology
from repro.plugins.fec import (
    CODES,
    FecIdFrame,
    FecRepairFrame,
    build_fec_plugin,
    gf_div,
    gf_inv,
    gf_mul,
)
from repro.plugins.fec.framework import MAX_RX_PAYLOADS, MAX_RX_WINDOWS
from repro.quic import ClientEndpoint, QuicConfiguration, ServerEndpoint
from repro.quic.connection import QuicConnection
from repro.quic.frames import StreamFrame
from repro.quic.packet import Epoch
from repro.quic.wire import Buffer


class TestGf256:
    def test_multiplicative_identity(self):
        for a in (1, 7, 100, 255):
            assert gf_mul(a, 1) == a

    def test_zero_annihilates(self):
        assert gf_mul(0, 55) == 0
        assert gf_mul(55, 0) == 0

    def test_every_nonzero_invertible(self):
        for a in range(1, 256):
            assert gf_mul(a, gf_inv(a)) == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)

    def test_division(self):
        assert gf_div(gf_mul(7, 9), 9) == 7

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_distributive(self, a, b, c):
        left = gf_mul(a, b ^ c)
        right = gf_mul(a, b) ^ gf_mul(a, c)
        assert left == right

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_commutative(self, a, b):
        assert gf_mul(a, b) == gf_mul(b, a)


class TestXorCode:
    def test_single_loss_recovery(self):
        code = CODES["xor"]
        window = [b"alpha", b"bravo-longer", b"c"]
        rs = code.encode(window, 0, seed=1)
        for lost in range(3):
            damaged = list(window)
            damaged[lost] = None
            assert code.recover(damaged, [(0, rs)], seed=1) == window

    def test_double_loss_unrecoverable(self):
        code = CODES["xor"]
        window = [b"a", b"b", b"c"]
        rs = code.encode(window, 0, seed=1)
        assert code.recover([None, None, b"c"], [(0, rs)], seed=1) is None

    def test_no_loss_passthrough(self):
        code = CODES["xor"]
        window = [b"a", b"b"]
        assert code.recover(window, [], seed=1) == window


class TestRlcCode:
    def test_multi_loss_recovery(self):
        code = CODES["rlc"]
        rng = random.Random(3)
        window = [bytes(rng.randrange(256) for _ in range(rng.randrange(1, 100)))
                  for _ in range(12)]
        repairs = [(i, code.encode(window, i, seed=9)) for i in range(5)]
        damaged = list(window)
        for i in (0, 3, 7, 11):
            damaged[i] = None
        assert code.recover(damaged, repairs[:4], seed=9) == window

    def test_insufficient_repairs(self):
        code = CODES["rlc"]
        window = [b"aa", b"bb", b"cc"]
        repairs = [(0, code.encode(window, 0, seed=2))]
        assert code.recover([None, None, b"cc"], repairs, seed=2) is None

    def test_seed_mismatch_fails_or_corrupts_detectably(self):
        code = CODES["rlc"]
        window = [b"aaaa", b"bbbb", b"cccc"]
        repairs = [(i, code.encode(window, i, seed=5)) for i in range(2)]
        out = code.recover([None, None, b"cccc"], repairs, seed=6)
        assert out != window  # wrong coefficients cannot reproduce

    @given(st.integers(1, 8), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_recover_any_loss_pattern(self, n_lost, seed):
        code = CODES["rlc"]
        rng = random.Random(seed)
        window = [bytes(rng.randrange(256) for _ in range(rng.randrange(1, 60)))
                  for _ in range(10)]
        n_lost = min(n_lost, 8)
        repairs = [(i, code.encode(window, i, seed=seed)) for i in range(n_lost)]
        damaged = list(window)
        for i in rng.sample(range(10), n_lost):
            damaged[i] = None
        recovered = code.recover(damaged, repairs, seed=seed)
        # RLC with random coefficients is MDS-like w.h.p.; rank failures
        # return None rather than corrupt data.
        assert recovered is None or recovered == window


class TestFrames:
    def test_fec_id_roundtrip(self):
        frame = FecIdFrame(window_id=3,
                           protected=[(0, 10), (1, 11), (0, 13), (1, 20)])
        buf = Buffer(frame.to_bytes())
        parsed = FecIdFrame.parse(buf, buf.pull_varint())
        assert parsed.window_id == 3
        assert parsed.protected == [(0, 10), (1, 11), (0, 13), (1, 20)]

    def test_single_path_fec_id_carries_no_path_ids(self):
        """A window sent on path 0 alone costs one varint per packet, as
        before multipath: only the low bit of the count says so."""
        frame = FecIdFrame(window_id=3, protected=[(0, 10), (0, 11)])
        type_bytes = len(FecIdFrame(protected=[]).to_bytes()) - 2
        assert frame.to_bytes()[type_bytes:] == bytes([3, 2 << 1, 10, 11])
        buf = Buffer(frame.to_bytes())
        assert FecIdFrame.parse(buf, buf.pull_varint()).protected == \
            [(0, 10), (0, 11)]

    def test_repair_roundtrip(self):
        frame = FecRepairFrame(window_id=1, ecc=1, rs_index=2, seed=42,
                               total_len=1200, offset=600, payload=b"R" * 600)
        buf = Buffer(frame.to_bytes())
        parsed = FecRepairFrame.parse(buf, buf.pull_varint())
        assert (parsed.window_id, parsed.ecc, parsed.rs_index) == (1, 1, 2)
        assert (parsed.seed, parsed.total_len, parsed.offset) == (42, 1200, 600)
        assert parsed.payload == b"R" * 600

    def test_fec_frames_not_retransmittable(self):
        assert not FecIdFrame().retransmittable
        assert not FecRepairFrame().retransmittable


def run_fec_transfer(size, ecc="rlc", mode="full", loss=4, d=150, bw=2,
                     seed=11, use_fec=True, received=False):
    """A transfer with FEC on both ends; ``received``: each end's plugin
    decoded from the other's wire form."""
    def build():
        plugin = build_fec_plugin(ecc, mode)
        return Plugin.deserialize(plugin.serialize()) if received else plugin

    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=d, bw_mbps=bw, loss_pct=loss, seed=seed)
    server = ServerEndpoint(sim, topo.server, "server.0", 443)
    client = ClientEndpoint(sim, topo.client, "client.0", 5000, "server.0", 443)
    instances = []
    if use_fec:
        ci = PluginInstance(build(), client.conn)
        ci.attach()
        instances.append(ci)
    state = {}

    def on_conn(conn):
        if use_fec:
            si = PluginInstance(build(), conn)
            si.attach()
            instances.append(si)
        state["sconn"] = conn

    server.on_connection = on_conn
    client.connect()
    done = [False]
    assert sim.run_until(
        lambda: client.conn.is_established and "sconn" in state, timeout=10)
    state["sconn"].on_stream_data = lambda sid, d2, fin: done.__setitem__(0, fin)
    t0 = sim.now
    sid = client.conn.create_stream()
    client.conn.send_stream_data(sid, b"f" * size, fin=True)
    client.pump()
    assert sim.run_until(lambda: done[0], timeout=600)
    return sim.now - t0, instances


class TestFramework:
    def test_transfer_completes_with_fec(self):
        for ecc in ("xor", "rlc"):
            for mode in ("full", "eos"):
                dct, _ = run_fec_transfer(60_000, ecc=ecc, mode=mode)
                assert dct > 0

    def test_receiver_recovers_lost_packets(self):
        recovered_any = 0
        for seed in (11, 12, 13, 14):
            _, instances = run_fec_transfer(100_000, seed=seed)
            receiver = instances[-1]
            recovered_any += receiver.runtime.fec_state.recovered_total
        assert recovered_any > 0

    def test_a_received_plugin_recovers_lost_packets(self):
        built = run_fec_transfer(100_000, seed=12)
        received = run_fec_transfer(100_000, seed=12, received=True)
        assert received[0] == built[0]
        recovered = [run[1][-1].runtime.fec_state.recovered_total
                     for run in (built, received)]
        assert recovered[0] == recovered[1] > 0

    def test_recovered_packets_not_retransmitted(self):
        """A recovered packet is ACKed, so the sender's spurious
        retransmission is avoided — visible as the receiver processing
        fewer duplicate packets."""
        _, instances = run_fec_transfer(100_000, seed=12)
        receiver = instances[-1]
        if receiver.runtime.fec_state.recovered_total:
            sconn = receiver.conn
            # Recovered pns were marked received.
            assert sconn.stats["packets_received"] > 0

    def test_no_fec_frames_without_losses_harmless(self):
        dct, instances = run_fec_transfer(30_000, loss=0)
        assert instances[-1].runtime.fec_state.recovered_total == 0

    def test_external_recovered_count_op(self):
        _, instances = run_fec_transfer(100_000, seed=13)
        receiver = instances[-1]
        count = receiver.conn.run_external_protoop("fec_recovered_count")
        assert count == receiver.runtime.fec_state.recovered_total

    def test_eos_sends_fewer_repair_symbols_than_full(self):
        _, full = run_fec_transfer(150_000, mode="full", loss=0)
        _, eos = run_fec_transfer(150_000, mode="eos", loss=0)
        full_windows = full[0].runtime.fec_state.window_counter
        eos_windows = eos[0].runtime.fec_state.window_counter
        assert eos_windows < full_windows

    def test_xor_repair_budget_is_one(self):
        plugin = build_fec_plugin("xor", "full")
        # attach to a dummy conn to materialize state
        conn = QuicConnection(QuicConfiguration())
        inst = PluginInstance(plugin, conn)
        assert inst.runtime.fec_state.repair == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_fec_plugin("reed-solomon", "full")
        with pytest.raises(ValueError):
            build_fec_plugin("rlc", "middle")


class TestPeerControlledState:
    """A peer picks the window ids, symbol lengths and packet numbers the
    FEC receiver stores: every collection stays under its named cap, and
    a malformed repair fragment is a counted drop, never an allocation
    the peer sized."""

    @staticmethod
    def receiver():
        conn = QuicConnection(QuicConfiguration())
        instance = PluginInstance(build_fec_plugin("rlc", "full"), conn)
        instance.attach()
        return conn, instance.runtime.fec_state

    @staticmethod
    def process(conn, frame):
        conn.protoops.run(conn, "process_frame", frame.type, frame, None)

    def test_fresh_window_ids_stay_under_the_window_cap(self):
        conn, state = self.receiver()
        for wid in range(3 * MAX_RX_WINDOWS):
            self.process(conn, FecIdFrame(window_id=wid, protected=[(0, wid)]))
            self.process(conn, FecRepairFrame(
                window_id=10**6 + wid, total_len=8, payload=b"r" * 8))
            assert len(state.rx_windows) <= MAX_RX_WINDOWS
        assert len(state.rx_windows) > MAX_RX_WINDOWS // 2
        assert state.refused_fragments == 0

    def test_received_packets_stay_under_the_payload_cap(self):
        conn, state = self.receiver()
        for pn in range(3 * MAX_RX_PAYLOADS):
            conn.protoops.run(conn, "packet_received_event", None,
                              Epoch.ONE_RTT, pn % 3, pn, b"p")
            assert len(state.rx_payloads) <= MAX_RX_PAYLOADS
        assert len(state.rx_payloads) > MAX_RX_PAYLOADS // 2

    def test_sent_symbols_stay_under_the_window(self):
        conn, state = self.receiver()
        payload = StreamFrame(stream_id=0, data=b"s").to_bytes()
        for pn in range(3 * state.window):
            conn.protoops.run(conn, "packet_ready", None,
                              Epoch.ONE_RTT, 0, pn, payload)
            assert len(state.send_symbols) <= state.window
        assert len(state.send_symbols) == state.window

    @pytest.mark.parametrize("fragment", [
        dict(total_len=1 << 40, payload=b"r"),       # no packet is this long
        dict(total_len=100, offset=99, payload=b"rr"),  # past its symbol
        dict(total_len=100, rs_index=10**9, payload=b"r"),  # past the window
    ])
    def test_malformed_fragments_are_counted_drops(self, fragment):
        conn, state = self.receiver()
        self.process(conn, FecRepairFrame(window_id=1, **fragment))
        assert state.refused_fragments == 1
        assert not state.rx_windows

    def test_a_fragment_disagreeing_with_its_symbol_length_is_dropped(self):
        conn, state = self.receiver()
        self.process(conn, FecRepairFrame(window_id=1, total_len=100,
                                          payload=b"r" * 10))
        self.process(conn, FecRepairFrame(window_id=1, total_len=1000,
                                          offset=900, payload=b"r" * 100))
        assert state.refused_fragments == 1
        buffer, _offsets = state.rx_windows[1].partial[0]
        assert len(buffer) == 100


def test_importing_the_plugins_leaves_numpy_unloaded():
    """numpy is loaded by the first coded symbol, not by declaring the
    plugins: a process that imports them, and decodes a received FEC
    plugin that finds its host binding, has not loaded it."""
    code = (
        "import sys\n"
        "import repro.plugins\n"
        "from repro.core.plugin import Plugin\n"
        "from repro.plugins.fec import build_fec_plugin\n"
        "from repro.plugins.fec.framework import HOST\n"
        "plugin = Plugin.deserialize(build_fec_plugin().serialize())\n"
        "assert plugin.host is HOST\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
