"""Plugin exchange over QUIC connections (§3.4, Figure 6)."""

import pytest

from repro.core import Plugin, PluginCache, Pluglet, QuarantineRegistry
from repro.core.exchange import (
    PLUGIN_CHUNK,
    PluginExchanger,
    PluginFrame,
    PluginProofFrame,
    PluginValidateFrame,
    ProofEntry,
    TrustStore,
    _IncomingPlugin,
    make_proof_provider,
)
from repro.netsim import Simulator, symmetric_topology
from repro.plugins import build_multipath_plugin
from repro.quic import ClientEndpoint, QuicConfiguration, ServerEndpoint
from repro.quic.wire import Buffer
from repro.secure import EquivocatingValidator, PluginRepository, PluginValidator
from repro.vm import assemble
from repro.vm.analysis import AbstractInterpretation


def make_plugin(name="org.x.exch"):
    return Plugin(name, [
        Pluglet("nop", "packet_sent_event", "post", assemble("exit")),
    ])


def build_world(n_validators=3, plugin=None):
    plugin = plugin or make_plugin()
    repo = PluginRepository()
    validators = {}
    for i in range(1, n_validators + 1):
        pv = PluginValidator(f"PV{i}", seed=i)
        repo.register_validator(pv)
        validators[pv.validator_id] = pv
    repo.publish("dev", plugin.name, plugin.serialize())
    repo.advance_epoch()
    trust = TrustStore()
    for pv in validators.values():
        trust.trust_validator(pv.validator_id, pv.public_key)
        trust.cache_str(repo.get_str(pv.validator_id))
    return plugin, repo, validators, trust


def connect_with_exchange(plugin, repo, validators, trust, formula,
                          client_has_plugin=False):
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=10, bw_mbps=20)
    client_cache = PluginCache()
    if client_has_plugin:
        client_cache.store(plugin)
    server_cache = PluginCache()
    server_cache.store(plugin)
    provider = make_proof_provider(repo, validators)
    server = ServerEndpoint(
        sim, topo.server, "server.0", 443,
        configuration_factory=lambda: QuicConfiguration(
            is_client=False, plugins_to_inject=[plugin.name]),
    )
    server.on_connection = lambda conn: PluginExchanger(
        conn, server_cache, proof_provider=provider)
    client = ClientEndpoint(sim, topo.client, "client.0", 5000, "server.0", 443)
    exchanger = PluginExchanger(client.conn, client_cache, trust=trust,
                                formula=formula)
    client.connect()
    sim.run_until(lambda: client.conn.is_established, timeout=5)
    sim.run(until=sim.now + 2.0)
    return sim, client, exchanger, client_cache


class TestFrameCodecs:
    def test_validate_frame_roundtrip(self):
        frame = PluginValidateFrame(plugin_name="org.x", formula="PV1 & PV2")
        buf = Buffer(frame.to_bytes())
        parsed = PluginValidateFrame.parse(buf, buf.pull_varint())
        assert parsed.plugin_name == "org.x"
        assert parsed.formula == "PV1 & PV2"

    def test_plugin_frame_roundtrip(self):
        frame = PluginFrame(plugin_name="org.x", offset=1000, data=b"chunk")
        buf = Buffer(frame.to_bytes())
        parsed = PluginFrame.parse(buf, buf.pull_varint())
        assert (parsed.plugin_name, parsed.offset, parsed.data) == (
            "org.x", 1000, b"chunk")

    def test_proof_frame_roundtrip(self):
        plugin, repo, validators, trust = build_world(1)
        pv = validators["PV1"]
        signed = pv.current_str
        entry = ProofEntry(pv.validator_id, signed.epoch, signed.root,
                           signed.signature, pv.lookup(plugin.name))
        frame = PluginProofFrame(plugin_name=plugin.name, total_length=123,
                                 proof=entry)
        buf = Buffer(frame.to_bytes())
        parsed = PluginProofFrame.parse(buf, buf.pull_varint())
        assert parsed.total_length == 123
        assert parsed.proof.validator_id == "PV1"
        assert parsed.proof.str_root == signed.root
        assert parsed.proof.path.siblings == entry.path.siblings


class TestChunkReassembly:
    """The PLUGIN-chunk reassembly buffer must survive out-of-order,
    duplicated and hostile chunk streams."""

    def test_out_of_order_chunks_complete(self):
        state = _IncomingPlugin(total_length=2500)
        assert state.add_chunk(2000, b"c" * 500) == "ok"
        assert not state.complete()
        assert state.add_chunk(0, b"a" * 1000) == "ok"
        assert state.add_chunk(1000, b"b" * 1000) == "ok"
        assert state.complete()
        assert state.assemble() == b"a" * 1000 + b"b" * 1000 + b"c" * 500

    def test_exact_multiple_of_chunk_size(self):
        """Boundary bug: a body of exactly k * PLUGIN_CHUNK bytes must
        complete with k chunks, not wait for a phantom k+1-th."""
        total = 2 * PLUGIN_CHUNK
        state = _IncomingPlugin(total_length=total)
        state.add_chunk(0, b"x" * PLUGIN_CHUNK)
        state.add_chunk(PLUGIN_CHUNK, b"y" * PLUGIN_CHUNK)
        assert state.complete()
        assert len(state.assemble()) == total

    def test_hole_not_masked_by_byte_count(self):
        """Two 1000-byte chunks covering [0,1000) and [500,1500) total
        2000 bytes but leave [1500,2000) unreceived: must NOT complete."""
        state = _IncomingPlugin(total_length=2000)
        state.chunks = {0: b"a" * 1000, 500: b"b" * 1000}
        assert not state.complete()

    def test_zero_length_chunk_rejected(self):
        state = _IncomingPlugin(total_length=100)
        assert state.add_chunk(0, b"") == "rejected"
        assert state.chunks == {}

    def test_out_of_range_chunk_rejected(self):
        state = _IncomingPlugin(total_length=100)
        assert state.add_chunk(50, b"z" * 100) == "rejected"

    def test_identical_duplicate_tolerated(self):
        state = _IncomingPlugin(total_length=100)
        assert state.add_chunk(0, b"z" * 100) == "ok"
        assert state.add_chunk(0, b"z" * 100) == "duplicate"
        assert state.complete()

    def test_conflicting_duplicate_rejected(self):
        state = _IncomingPlugin(total_length=100)
        assert state.add_chunk(0, b"z" * 100) == "ok"
        assert state.add_chunk(0, b"w" * 100) == "rejected"
        assert state.assemble() == b"z" * 100

    def test_partial_overlap_rejected(self):
        state = _IncomingPlugin(total_length=200)
        assert state.add_chunk(0, b"a" * 100) == "ok"
        assert state.add_chunk(50, b"b" * 100) == "rejected"

    def test_unknown_total_never_complete(self):
        state = _IncomingPlugin()
        state.add_chunk(0, b"a" * 10)
        assert not state.complete()

    def test_integrity_check(self):
        import hashlib

        state = _IncomingPlugin(total_length=5,
                                digest=hashlib.sha256(b"hello").digest())
        assert state.integrity_ok(b"hello")
        assert not state.integrity_ok(b"hellp")
        # No digest announced -> nothing to check against.
        assert _IncomingPlugin(total_length=5).integrity_ok(b"anything")


class TestExchangeResilience:
    def test_request_retries_then_degrades_when_provider_silent(self):
        """A server with no proof provider never answers: the client
        retries with backoff and then gives up gracefully — connection
        alive, no plugin."""
        plugin, repo, validators, trust = build_world(1)
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=20)
        server = ServerEndpoint(
            sim, topo.server, "server.0", 443,
            configuration_factory=lambda: QuicConfiguration(
                is_client=False, plugins_to_inject=[plugin.name]),
        )
        # The server speaks the exchange frames but has no proof provider:
        # every PLUGIN_VALIDATE is swallowed without an answer.
        server.on_connection = lambda conn: PluginExchanger(
            conn, PluginCache(), proof_provider=None)
        client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                                "server.0", 443)
        exchanger = PluginExchanger(client.conn, PluginCache(), trust=trust,
                                    formula="PV1", request_timeout=0.2,
                                    max_retries=2)
        client.connect()
        assert sim.run_until(lambda: plugin.name in exchanger.degraded,
                             timeout=30)
        assert not client.conn.closed
        assert exchanger.received == []
        assert exchanger.stats["retries"] == 2
        assert "no response" in exchanger.degraded[plugin.name]

    def test_proof_digest_announced_and_verified(self):
        plugin, repo, validators, trust = build_world(1)
        sim, client, exchanger, cache = connect_with_exchange(
            plugin, repo, validators, trust, "PV1")
        assert exchanger.received == [plugin.name]
        assert exchanger.stats["integrity_failures"] == 0

    def test_digest_mismatch_discards_chunks(self):
        """A reassembled body that does not hash to the announced digest
        is thrown away (and the transfer stays pending for retry)."""
        conn_stub = None
        exchanger = object.__new__(PluginExchanger)  # skip connection wiring
        exchanger.stats = {"integrity_failures": 0, "chunks_rejected": 0,
                           "chunks_duplicated": 0}
        exchanger.pending = {}
        exchanger.rejected = {}
        exchanger.degraded = {}
        exchanger._incoming = {}
        state = _IncomingPlugin(total_length=4, digest=b"\x00" * 32)
        state.add_chunk(0, b"zzzz")
        exchanger._incoming["org.x.p"] = state
        exchanger._maybe_finish("org.x.p")
        assert exchanger.stats["integrity_failures"] == 1
        assert state.chunks == {}  # cleared for re-request
        assert "org.x.p" in exchanger._incoming

    def test_quarantined_plugin_not_injected_degrades_instead(self):
        """negotiate() skips a quarantined cached plugin instead of
        blowing up the connection."""
        plugin, repo, validators, trust = build_world(1)
        registry = QuarantineRegistry(blocklist_threshold=1)
        registry.record_crash(plugin.name, now=0.0)
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=20)
        client_cache = PluginCache(quarantine=registry)
        client_cache.store(plugin)
        server = ServerEndpoint(
            sim, topo.server, "server.0", 443,
            configuration_factory=lambda: QuicConfiguration(
                is_client=False, plugins_to_inject=[plugin.name]),
        )
        client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                                "server.0", 443)
        exchanger = PluginExchanger(client.conn, client_cache, trust=trust)
        client.connect()
        assert sim.run_until(lambda: plugin.name in exchanger.degraded,
                             timeout=10)
        assert exchanger.injected == []
        assert not client.conn.closed
        assert "blocklisted" in exchanger.degraded[plugin.name]


class TestExchange:
    def test_full_exchange_and_cache(self):
        plugin, repo, validators, trust = build_world()
        sim, client, exchanger, cache = connect_with_exchange(
            plugin, repo, validators, trust, "PV1 & (PV2 | PV3)")
        assert exchanger.received == [plugin.name]
        assert cache.has(plugin.name)
        # Received plugins are NOT activated on this connection (§3.4).
        assert plugin.name not in client.conn.plugins

    def test_cached_plugin_injected_immediately(self):
        plugin, repo, validators, trust = build_world()
        sim, client, exchanger, cache = connect_with_exchange(
            plugin, repo, validators, trust, "PV1", client_has_plugin=True)
        assert exchanger.injected == [plugin.name]
        assert exchanger.received == []
        assert plugin.name in client.conn.plugins

    def test_unsatisfiable_formula_rejects(self):
        plugin, repo, validators, trust = build_world(1)
        sim, client, exchanger, cache = connect_with_exchange(
            plugin, repo, validators, trust, "PV1 & PV9")
        assert exchanger.received == []
        assert not cache.has(plugin.name)
        assert "unsatisfied" in exchanger.rejected.get(plugin.name, "")

    def test_untrusted_validator_proofs_ignored(self):
        plugin, repo, validators, trust = build_world(2)
        empty_trust = TrustStore()  # trusts no one
        sim, client, exchanger, cache = connect_with_exchange(
            plugin, repo, validators, empty_trust, "PV1")
        assert exchanger.received == []

    def test_tampered_plugin_rejected(self):
        """The binding check: the received code must hash into the PV's
        tree at the plugin-name leaf."""
        plugin, repo, validators, trust = build_world(1)
        # The server serves a DIFFERENT plugin body under the same name.
        evil = Plugin(plugin.name, [
            Pluglet("evil", "connection_closing", "post", assemble("exit")),
        ])
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=20)
        provider_honest = make_proof_provider(repo, validators)

        def evil_provider(name, formula):
            result = provider_honest(name, formula)
            if result is None:
                return None
            _compressed, proofs = result
            return evil.compressed(), proofs

        server_cache = PluginCache()
        server_cache.store(evil)
        server = ServerEndpoint(
            sim, topo.server, "server.0", 443,
            configuration_factory=lambda: QuicConfiguration(
                is_client=False, plugins_to_inject=[plugin.name]),
        )
        server.on_connection = lambda conn: PluginExchanger(
            conn, server_cache, proof_provider=evil_provider)
        client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                                "server.0", 443)
        cache = PluginCache()
        exchanger = PluginExchanger(client.conn, cache, trust=trust,
                                    formula="PV1")
        client.connect()
        sim.run_until(lambda: client.conn.is_established, timeout=5)
        sim.run(until=sim.now + 2.0)
        assert exchanger.received == []
        assert not cache.has(plugin.name)

    def test_equivocating_str_not_accepted(self):
        """A proof against a shadow STR differs from the cached one."""
        plugin = make_plugin()
        repo = PluginRepository()
        pv = EquivocatingValidator("PV1", seed=1)
        repo.register_validator(pv)
        repo.publish("dev", plugin.name, plugin.serialize())
        repo.advance_epoch()
        trust = TrustStore()
        trust.trust_validator("PV1", pv.public_key)
        trust.cache_str(repo.get_str("PV1"))
        evil = Plugin(plugin.name, [
            Pluglet("evil", "connection_closing", "post", assemble("exit"))])
        pv.inject_spurious(plugin.name, evil.serialize())
        shadow_path, shadow_str = pv.lookup_for_victim(plugin.name)

        def shadow_provider(name, formula):
            return evil.compressed(), [ProofEntry(
                "PV1", shadow_str.epoch, shadow_str.root,
                shadow_str.signature, shadow_path)]

        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=20)
        server_cache = PluginCache()
        server_cache.store(evil)
        server = ServerEndpoint(
            sim, topo.server, "server.0", 443,
            configuration_factory=lambda: QuicConfiguration(
                is_client=False, plugins_to_inject=[plugin.name]),
        )
        server.on_connection = lambda conn: PluginExchanger(
            conn, server_cache, proof_provider=shadow_provider)
        client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                                "server.0", 443)
        cache = PluginCache()
        exchanger = PluginExchanger(client.conn, cache, trust=trust,
                                    formula="PV1")
        client.connect()
        sim.run_until(lambda: client.conn.is_established, timeout=5)
        sim.run(until=sim.now + 2.0)
        assert exchanger.received == []
        assert "equivocation" in exchanger.rejected.get(plugin.name, "")

    def test_exchange_multiplexes_with_data(self):
        """§3.4: 'data and plugin streams can be concurrently used'."""
        plugin, repo, validators, trust = build_world()
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=20)
        server_cache = PluginCache()
        server_cache.store(plugin)
        provider = make_proof_provider(repo, validators)
        received = bytearray()
        done = [False]

        def on_conn(conn):
            PluginExchanger(conn, server_cache, proof_provider=provider)
            conn.on_stream_data = lambda sid, d, fin: (
                received.extend(d), done.__setitem__(0, fin))

        server = ServerEndpoint(
            sim, topo.server, "server.0", 443,
            configuration_factory=lambda: QuicConfiguration(
                is_client=False, plugins_to_inject=[plugin.name]),
        )
        server.on_connection = on_conn
        client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                                "server.0", 443)
        cache = PluginCache()
        exchanger = PluginExchanger(client.conn, cache, trust=trust,
                                    formula="PV1")
        client.connect()
        assert sim.run_until(lambda: client.conn.is_established, timeout=5)
        sid = client.conn.create_stream()
        client.conn.send_stream_data(sid, b"d" * 100_000, fin=True)
        client.pump()
        assert sim.run_until(
            lambda: done[0] and exchanger.received, timeout=60)
        assert len(received) == 100_000

    def test_reverse_direction_client_provides_plugin(self):
        """The exchange is symmetric: a client can push a plugin the
        server is missing (plugins_to_inject in the ClientHello)."""
        plugin, repo, validators, trust = build_world(1)
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=20)
        provider = make_proof_provider(repo, validators)
        server_exchangers = []

        def on_conn(conn):
            server_exchangers.append(PluginExchanger(
                conn, PluginCache(), trust=trust, formula="PV1"))

        server = ServerEndpoint(sim, topo.server, "server.0", 443)
        server.on_connection = on_conn
        client = ClientEndpoint(
            sim, topo.client, "client.0", 5000, "server.0", 443,
            configuration=QuicConfiguration(
                is_client=True, plugins_to_inject=[plugin.name]),
        )
        client_cache = PluginCache()
        client_cache.store(plugin)
        PluginExchanger(client.conn, client_cache, proof_provider=provider)
        client.connect()
        assert sim.run_until(
            lambda: server_exchangers and server_exchangers[0].received,
            timeout=10,
        )
        assert server_exchangers[0].cache.has(plugin.name)

    def test_exchange_survives_packet_loss(self):
        """PLUGIN_VALIDATE/PROOF/PLUGIN frames are retransmittable: the
        transfer completes across a lossy path."""
        plugin, repo, validators, trust = build_world(1)
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=20, loss_pct=10,
                                  seed=13)
        server_cache = PluginCache()
        server_cache.store(plugin)
        provider = make_proof_provider(repo, validators)
        server = ServerEndpoint(
            sim, topo.server, "server.0", 443,
            configuration_factory=lambda: QuicConfiguration(
                is_client=False, plugins_to_inject=[plugin.name]),
        )
        server.on_connection = lambda conn: PluginExchanger(
            conn, server_cache, proof_provider=provider)
        client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                                "server.0", 443)
        cache = PluginCache()
        exchanger = PluginExchanger(client.conn, cache, trust=trust,
                                    formula="PV1")
        client.connect()
        assert sim.run_until(lambda: bool(exchanger.received), timeout=60)
        assert cache.has(plugin.name)

    def test_received_plugin_is_decoded_once_and_interpreted_once(
            self, monkeypatch):
        """The proof check, the receive-time analyzer gate, the cache's
        verdict and the first load all work on one decoded plugin and one
        abstract interpretation per pluglet."""
        plugin, repo, validators, trust = build_world(
            plugin=build_multipath_plugin())
        decoded, interpreted = [], []
        deserialize = Plugin.deserialize.__func__
        monkeypatch.setattr(Plugin, "deserialize", classmethod(
            lambda cls, data: decoded.append(1) or deserialize(cls, data)))
        real_init = AbstractInterpretation.__init__
        monkeypatch.setattr(
            AbstractInterpretation, "__init__",
            lambda absint, *args: (interpreted.append(1),
                                   real_init(absint, *args))[1])

        sim, client, exchanger, cache = connect_with_exchange(
            plugin, repo, validators, trust, "PV1 & (PV2 | PV3)")
        assert exchanger.received == [plugin.name]
        cache.instantiate(plugin.name, client.conn).attach()
        assert len(decoded) == 1
        assert len(interpreted) == len(plugin.pluglets)

    def test_supported_plugins_advertised(self):
        plugin, repo, validators, trust = build_world(1)
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=5, bw_mbps=20)
        cache = PluginCache()
        cache.store(plugin)
        server = ServerEndpoint(sim, topo.server, "server.0", 443)
        sconns = []
        server.on_connection = sconns.append
        client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                                "server.0", 443)
        PluginExchanger(client.conn, cache, trust=trust)
        client.connect()
        assert sim.run_until(lambda: bool(sconns), timeout=5)
        sim.run(until=sim.now + 0.2)
        assert sconns[0].peer_transport_parameters.supported_plugins == [
            plugin.name]
