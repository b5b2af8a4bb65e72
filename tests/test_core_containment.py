"""Fault containment & recovery: classification, quarantine backoff,
blocklisting, and the end-to-end guarantee that a runaway pluglet is
stopped by its fuel budget and quarantined WITHOUT killing the connection.
"""

from pathlib import Path

import pytest

from repro.core import (
    ContainmentPolicy,
    FailureClass,
    Plugin,
    PluginCache,
    PluginInstance,
    Pluglet,
    PluginQuarantined,
    QuarantineRegistry,
    classify_failure,
)
from repro.core.api import ApiViolation
from repro.netsim import Simulator, symmetric_topology
from repro.quic import ClientEndpoint, QuicConfiguration, ServerEndpoint
from repro.quic.connection import QuicConnection
from repro.trace import ConnectionTracer
from repro.vm import ExecutionError, FuelExhausted, MemoryViolation, assemble

LOOP = "top:\nja top\nexit"  # statically verifiable, never terminates
CORPUS_BAD = Path(__file__).parent / "corpus" / "bad"


def make_conn():
    return QuicConnection(QuicConfiguration(is_client=True))


def looping_plugin(name="org.x.spin", fuel=500):
    return Plugin(name, [
        Pluglet("spin", "packet_sent_event", "post", assemble(LOOP),
                fuel=fuel),
    ])


class TestClassification:
    def test_memory_violation_is_fatal(self):
        assert classify_failure(MemoryViolation("wild")) is FailureClass.FATAL

    def test_bounded_resource_faults_are_transient(self):
        for exc in (FuelExhausted("fuel"), ExecutionError("div by zero"),
                    ApiViolation("bad field")):
            assert classify_failure(exc) is FailureClass.TRANSIENT


class TestQuarantineRegistry:
    def test_backoff_grows_exponentially(self):
        reg = QuarantineRegistry(backoff_base=1.0, backoff_factor=2.0)
        assert reg.record_crash("p", now=0.0).quarantined_until == 1.0
        assert reg.record_crash("p", now=5.0).quarantined_until == 7.0
        assert reg.record_crash("p", now=10.0).quarantined_until == 14.0

    def test_backoff_capped(self):
        reg = QuarantineRegistry(backoff_base=1.0, backoff_factor=10.0,
                                 backoff_max=50.0, blocklist_threshold=100)
        for _ in range(6):
            rec = reg.record_crash("p", now=0.0)
        assert rec.quarantined_until == 50.0

    def test_available_again_after_backoff(self):
        reg = QuarantineRegistry(backoff_base=2.0)
        reg.record_crash("p", now=1.0)
        assert not reg.available("p", now=2.0)
        assert reg.available("p", now=3.5)

    def test_blocklist_after_threshold(self):
        reg = QuarantineRegistry(blocklist_threshold=3)
        for i in range(3):
            reg.record_crash("p", now=float(i))
        assert reg.record("p").blocklisted
        # Blocklisting is permanent: no amount of waiting helps.
        assert not reg.available("p", now=1e9)
        with pytest.raises(PluginQuarantined, match="blocklisted"):
            reg.check("p", now=1e9)

    def test_check_raises_during_backoff_with_reason(self):
        reg = QuarantineRegistry(backoff_base=5.0)
        reg.record_crash("p", now=0.0, reason="fuel")
        with pytest.raises(PluginQuarantined, match="quarantined until"):
            reg.check("p", now=1.0)
        reg.check("p", now=6.0)  # backoff expired: no raise

    def test_forgive_clears_history(self):
        reg = QuarantineRegistry(blocklist_threshold=1)
        reg.record_crash("p", now=0.0)
        assert not reg.available("p", now=0.0)
        reg.forgive("p")
        assert reg.available("p", now=0.0)

    def test_unknown_plugin_always_available(self):
        reg = QuarantineRegistry()
        assert reg.available("ghost", now=0.0)
        reg.check("ghost", now=0.0)

    def test_stats(self):
        reg = QuarantineRegistry(blocklist_threshold=2)
        reg.record_crash("a", now=0.0)
        reg.record_crash("a", now=1.0)
        reg.record_crash("b", now=0.0)
        assert reg.stats() == {
            "plugins_crashed": 2,
            "total_crashes": 3,
            "blocklisted": ["a"],
        }

    def test_invalid_backoff_rejected(self):
        with pytest.raises(ValueError):
            QuarantineRegistry(backoff_base=0.0)
        with pytest.raises(ValueError):
            QuarantineRegistry(backoff_factor=0.5)


class TestCacheQuarantineEnforcement:
    def test_instantiate_refused_during_backoff(self):
        reg = QuarantineRegistry(backoff_base=10.0)
        cache = PluginCache(quarantine=reg)
        cache.store(looping_plugin())
        conn = make_conn()
        reg.record_crash("org.x.spin", now=conn.now)
        with pytest.raises(PluginQuarantined):
            cache.instantiate("org.x.spin", conn)

    def test_instantiate_allowed_after_backoff(self):
        reg = QuarantineRegistry(backoff_base=0.5)
        cache = PluginCache(quarantine=reg)
        cache.store(looping_plugin())
        conn = make_conn()
        reg.record_crash("org.x.spin", now=0.0)
        conn.now = 1.0
        inst = cache.instantiate("org.x.spin", conn)
        assert inst.plugin.name == "org.x.spin"

    def test_cache_without_registry_never_refuses(self):
        cache = PluginCache()
        cache.store(looping_plugin())
        assert cache.instantiate("org.x.spin", make_conn()) is not None


class TestContainmentPolicy:
    def test_transient_fault_detaches_without_closing(self):
        conn = make_conn()
        policy = ContainmentPolicy().attach(conn)
        inst = PluginInstance(looping_plugin(fuel=200), conn)
        inst.attach()
        conn.protoops.run(conn, "packet_sent_event", None)
        assert not conn.closed
        assert not inst.attached
        assert "org.x.spin" not in conn.plugins
        rec = policy.registry.record("org.x.spin")
        assert rec.crashes == 1
        assert "budget" in rec.reasons[0]
        assert policy.faults[0][2] is FailureClass.TRANSIENT

    def test_memory_violation_stays_fatal(self):
        """§2.1 semantics survive containment: a memory violation still
        terminates the connection."""
        conn = make_conn()
        policy = ContainmentPolicy().attach(conn)
        wild = Pluglet("wild", "packet_sent_event", "post",
                       assemble("lddw r2, 0x7f00000000\nldxdw r0, [r2+0]\nexit"))
        inst = PluginInstance(Plugin("org.x.bad", [wild]), conn)
        inst.attach()
        with pytest.raises(Exception):
            conn.protoops.run(conn, "packet_sent_event", None)
        assert conn.closed
        assert policy.registry.record("org.x.bad") is None  # not quarantined
        assert policy.faults[0][2] is FailureClass.FATAL

    def test_without_policy_legacy_termination(self):
        conn = make_conn()
        inst = PluginInstance(looping_plugin(fuel=200), conn)
        inst.attach()
        with pytest.raises(Exception):
            conn.protoops.run(conn, "packet_sent_event", None)
        assert conn.closed

    def test_repeat_crasher_blocklisted_across_connections(self):
        registry = QuarantineRegistry(backoff_base=0.0001,
                                      blocklist_threshold=3)
        cache = PluginCache(quarantine=registry)
        cache.store(looping_plugin(fuel=100))
        for i in range(3):
            conn = make_conn()
            conn.now = float(i)  # each connection starts past the backoff
            ContainmentPolicy(registry).attach(conn)
            inst = cache.instantiate("org.x.spin", conn)
            inst.attach()
            conn.protoops.run(conn, "packet_sent_event", None)
            assert not conn.closed
        assert registry.record("org.x.spin").blocklisted
        with pytest.raises(PluginQuarantined, match="blocklisted"):
            cache.instantiate("org.x.spin", make_conn())


class TestContainmentWithSharedCode:
    """One cached plugin, loaded once, live on two connections: a fault is
    contained on the connection it happened on."""

    BUMP = ("mov r1, 1\nmov r2, 8\ncall 5\nldxdw r3, [r0+0]\nadd r3, 1\n"
            "stxdw [r0+0], r3\nmov r0, r3\nexit")

    @pytest.mark.parametrize("fault, fatal", [
        ("infinite_loop", False),  # fuel bomb: transient, quarantined
        ("oob_store", True),       # heap OOB: §2.1, the connection dies
    ])
    def test_fault_on_one_connection_spares_sibling_and_code(
            self, monkeypatch, fault, fatal):
        monkeypatch.delenv("REPRO_JIT", raising=False)
        source = (CORPUS_BAD / f"{fault}.s").read_text()
        registry = QuarantineRegistry(backoff_base=1.0)
        cache = PluginCache(quarantine=registry)
        name = "org.x.shared"
        cache.store(Plugin(name, [
            Pluglet("bump", "bump", "replace", assemble(self.BUMP)),
            Pluglet("bomb", "bomb", "replace", assemble(source), fuel=300),
        ]))
        conn_a, conn_b = make_conn(), make_conn()
        for conn in (conn_a, conn_b):
            ContainmentPolicy(registry).attach(conn)
            cache.instantiate(name, conn).attach()
        sibling = conn_b.plugins[name]
        assert conn_a.protoops.run(conn_a, "bump", None) == 1
        assert conn_b.protoops.run(conn_b, "bump", None) == 1

        if fatal:
            with pytest.raises(Exception):
                conn_a.protoops.run(conn_a, "bomb", None)
        else:
            conn_a.protoops.run(conn_a, "bomb", None)
        assert conn_a.closed == fatal
        assert name not in conn_a.plugins
        assert (registry.record(name) is None) == fatal

        # The sibling never notices: attached, own heap, own counters.
        assert sibling.attached and not conn_b.closed
        assert conn_b.protoops.run(conn_b, "bump", None) == 2
        assert sibling.vms["bomb"].instructions_executed == 0

        # A later connection gets the same, still usable, code.
        conn_c = make_conn()
        if not fatal:
            with pytest.raises(PluginQuarantined):
                cache.instantiate(name, conn_c)
            conn_c.now = 5.0  # past the backoff
        later = cache.instantiate(name, conn_c)
        later.attach()
        assert later.vms["bump"].jit_function is sibling.vms["bump"].jit_function
        assert conn_c.protoops.run(conn_c, "bump", None) == 1
        assert (cache.misses, cache.hits) == (1, 2)


class TestEndToEndContainment:
    def test_runaway_pluglet_contained_connection_survives(self):
        """Acceptance: an unbounded-loop pluglet (which the static
        verifier admits) is stopped by the fuel budget and quarantined —
        and the data transfer on the same connection still completes."""
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=10)
        server = ServerEndpoint(sim, topo.server, "server.0", 443)
        received = bytearray()
        done = [False]

        def on_conn(conn):
            conn.on_stream_data = lambda sid, d, fin: (
                received.extend(d), done.__setitem__(0, fin))

        server.on_connection = on_conn
        client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                                "server.0", 443)
        policy = ContainmentPolicy().attach(client.conn)
        tracer = ConnectionTracer(client.conn)
        inst = PluginInstance(looping_plugin(fuel=500), client.conn)
        inst.attach()
        client.connect()
        assert sim.run_until(lambda: client.conn.is_established, timeout=10)
        sid = client.conn.create_stream()
        client.conn.send_stream_data(sid, b"z" * 50_000, fin=True)
        client.pump()
        assert sim.run_until(lambda: done[0], timeout=120)
        assert bytes(received) == b"z" * 50_000
        assert not client.conn.closed
        assert "org.x.spin" not in client.conn.plugins
        assert policy.registry.record("org.x.spin").crashes == 1
        # Recovery is observable in the qlog trace.
        names = [e.name for e in tracer.events]
        assert "plugin_fault" in names
        assert "plugin_quarantined" in names
        fault = next(e for e in tracer.events if e.name == "plugin_fault")
        assert fault.data["plugin"] == "org.x.spin"
        assert fault.data["failure_class"] == "transient"

    def test_monitoring_plugin_counts_faults(self):
        """The containment build of the monitoring plugin records faults
        of *other* plugins in its PI block."""
        from repro.plugins.monitoring import (
            OFF_PLUGIN_FAULTS,
            build_monitoring_plugin,
        )

        conn = make_conn()
        ContainmentPolicy().attach(conn)
        monitoring = build_monitoring_plugin(containment=True)
        assert len(monitoring.pluglets) == 16
        mon_inst = PluginInstance(monitoring, conn)
        mon_inst.attach()
        bad = PluginInstance(looping_plugin(fuel=100), conn)
        bad.attach()
        conn.protoops.run(conn, "packet_sent_event", None)
        pi = mon_inst.runtime.opaque_data(1, 256)
        heap_off = pi - 0x2000_0000
        data = mon_inst.runtime.memory.data
        faults = int.from_bytes(
            data[heap_off + OFF_PLUGIN_FAULTS:heap_off + OFF_PLUGIN_FAULTS + 8],
            "little")
        assert faults == 1

    def test_default_monitoring_plugin_stays_table2(self):
        from repro.plugins.monitoring import build_monitoring_plugin

        assert len(build_monitoring_plugin().pluglets) == 14


class TestBudgetsInManifest:
    def test_budgets_serialize_roundtrip(self):
        plugin = Plugin("org.x.b", [
            Pluglet("p", "packet_sent_event", "post", assemble("exit"),
                    fuel=1234, helper_budget=56),
        ])
        back = Plugin.deserialize(plugin.serialize())
        assert back.pluglets[0].fuel == 1234
        assert back.pluglets[0].helper_budget == 56

    def test_budgets_applied_to_vms(self):
        conn = make_conn()
        plugin = Plugin("org.x.b", [
            Pluglet("p", "packet_sent_event", "post", assemble("exit"),
                    fuel=777, helper_budget=11),
        ])
        inst = PluginInstance(plugin, conn)
        vm = inst.vms["p"]
        assert vm.instruction_budget == 777
        assert vm.helper_call_budget == 11

    def test_zero_means_host_default(self):
        from repro.vm import DEFAULT_FUEL, DEFAULT_HELPER_BUDGET

        conn = make_conn()
        inst = PluginInstance(Plugin("org.x.d", [
            Pluglet("p", "packet_sent_event", "post", assemble("exit")),
        ]), conn)
        vm = inst.vms["p"]
        assert vm.instruction_budget == DEFAULT_FUEL
        assert vm.helper_call_budget == DEFAULT_HELPER_BUDGET

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Pluglet("p", "op", "post", assemble("exit"), fuel=-1)
