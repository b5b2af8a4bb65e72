"""The requester's plugin-exchange reassembly is bounded (§3.4): a
PLUGIN_PROOF or PLUGIN frame for a name with no pending request is
refused and counted, a name's state goes when its exchange ends, and one
name buffers at most ``MAX_PLUGIN_BYTES`` in at most
``MAX_PLUGIN_CHUNKS`` chunks."""

from repro.core import PluginCache
from repro.core.exchange import (
    MAX_PLUGIN_BYTES,
    MAX_PLUGIN_CHUNKS,
    PLUGIN_CHUNK,
    PluginExchanger,
    PluginFrame,
    _IncomingPlugin,
    make_proof_provider,
)
from repro.netsim import Simulator, symmetric_topology
from repro.quic import ClientEndpoint, QuicConfiguration, ServerEndpoint
from repro.quic.connection import QuicConnection
from tests.test_core_exchange import build_world


def test_unrequested_names_and_a_late_chunk_leave_no_state():
    """A provider that, once the plugin is received, sends 1 000 chunks
    of names never requested and one more chunk of the received plugin:
    the requester keeps nothing of them and stays open."""
    plugin, repo, validators, trust = build_world(1)
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=10, bw_mbps=20)
    server_cache = PluginCache()
    server_cache.store(plugin)
    provider = make_proof_provider(repo, validators)
    providers = []
    server = ServerEndpoint(
        sim, topo.server, "server.0", 443,
        configuration_factory=lambda: QuicConfiguration(
            is_client=False, plugins_to_inject=[plugin.name]),
        on_connection=lambda conn: providers.append(PluginExchanger(
            conn, server_cache, proof_provider=provider)))
    client = ClientEndpoint(sim, topo.client, "client.0", 5000, "server.0", 443)
    exchanger = PluginExchanger(client.conn, PluginCache(), trust=trust,
                                formula="PV1")
    client.connect()
    assert sim.run_until(lambda: exchanger.received == [plugin.name],
                         timeout=5)
    assert exchanger.stats["frames_refused"] == 0

    for i in range(1000):
        providers[0]._queue(PluginFrame(plugin_name=f"org.junk.{i}",
                                        offset=0, data=b"j" * 64))
    providers[0]._queue(PluginFrame(
        plugin_name=plugin.name, offset=0,
        data=plugin.compressed()[:PLUGIN_CHUNK]))
    next(iter(server._by_cid.values())).pump()
    assert sim.run_until(
        lambda: exchanger.stats["frames_refused"] == 1001, timeout=10)
    assert exchanger._incoming == {}
    assert not client.conn.closed
    assert exchanger.received == [plugin.name]


def test_giving_up_on_a_request_drops_its_state():
    conn = QuicConnection(QuicConfiguration(is_client=True))
    exchanger = PluginExchanger(conn, PluginCache())
    exchanger._request("org.x.silent")
    exchanger._process_plugin(conn, PluginFrame(
        plugin_name="org.x.silent", offset=0, data=b"part"), None)
    assert "org.x.silent" in exchanger._incoming
    request = exchanger.pending["org.x.silent"]
    request.attempts = exchanger.max_retries + 1
    request.next_retry = conn.now
    exchanger._on_tick(conn, (), None)
    assert "org.x.silent" in exchanger.degraded
    assert exchanger._incoming == {}
    exchanger._process_plugin(conn, PluginFrame(
        plugin_name="org.x.silent", offset=4, data=b"late"), None)
    assert exchanger._incoming == {}
    assert exchanger.stats["frames_refused"] == 1


def test_a_name_buffers_at_most_the_cap_before_its_length_is_known():
    state = _IncomingPlugin()
    fits = MAX_PLUGIN_BYTES // PLUGIN_CHUNK
    verdicts = [state.add_chunk(offset, b"c" * PLUGIN_CHUNK)
                for offset in range(0, (fits + 8) * PLUGIN_CHUNK,
                                    PLUGIN_CHUNK)]
    assert verdicts == ["ok"] * fits + ["rejected"] * 8
    assert sum(map(len, state.chunks.values())) <= MAX_PLUGIN_BYTES


def test_a_name_buffers_at_most_the_cap_of_chunks():
    """One-byte chunks: each is checked against every chunk held, so
    their number is what bounds the time a hostile provider can take."""
    state = _IncomingPlugin()
    verdicts = [state.add_chunk(offset, b"c")
                for offset in range(MAX_PLUGIN_CHUNKS + 8)]
    assert verdicts == ["ok"] * MAX_PLUGIN_CHUNKS + ["rejected"] * 8
    assert state.add_chunk(0, b"c") == "duplicate"
