"""Plugin / pluglet framework tests: serialization, attachment semantics,
memory isolation, runtime failure handling (§2)."""

import pytest

from repro.core import Anchor, Plugin, Pluglet, PluginCache, PluginInstance
from repro.core.api import FLD_SPIN_BIT, ApiViolation
from repro.core.cache import FieldPolicy
from repro.core.protoop import ProtoopError
from repro.quic import QuicConfiguration
from repro.quic.connection import QuicConnection
from repro.vm import VerificationError, assemble
from repro.vm.interpreter import HEAP_BASE


def make_conn():
    return QuicConnection(QuicConfiguration(is_client=True))


def noop_pluglet(name="nop", protoop="packet_sent_event", anchor="post", param=None):
    return Pluglet(name, protoop, anchor, assemble("exit"), param=param)


class TestSerialization:
    def test_roundtrip(self):
        plugin = Plugin("org.x.p", [
            noop_pluglet("a", "process_frame", "replace", param=0x30),
            noop_pluglet("b", "update_rtt", "pre"),
            noop_pluglet("c", "my_new_op", "external", param="stream"),
        ], memory_size=8192)
        data = plugin.serialize()
        back = Plugin.deserialize(data)
        assert back.name == plugin.name
        assert back.memory_size == 8192
        assert [(p.name, p.protoop, p.anchor, p.param) for p in back.pluglets] == [
            ("a", "process_frame", "replace", 0x30),
            ("b", "update_rtt", "pre", None),
            ("c", "my_new_op", "external", "stream"),
        ]
        assert back.serialize() == data

    def test_compression_roundtrip(self):
        plugin = Plugin("org.x.q", [noop_pluglet()])
        assert Plugin.decompress(plugin.compressed()).serialize() == plugin.serialize()

    def test_compressed_smaller_for_real_plugins(self):
        from repro.plugins.monitoring import build_monitoring_plugin

        plugin = build_monitoring_plugin()
        stats = plugin.stats()
        assert stats["compressed_bytes"] < stats["size_bytes"]

    def test_bad_anchor_rejected(self):
        with pytest.raises(ValueError):
            Pluglet("x", "op", "sideways", assemble("exit"))

    def test_verify_all_rejects_bad_bytecode(self):
        from repro.vm.isa import Instruction, Op

        bad = Pluglet("bad", "op", "post", [Instruction(Op.MOV_IMM, dst=0)])
        plugin = Plugin("org.x.bad", [bad])
        with pytest.raises(VerificationError):
            plugin.verify_all()
        with pytest.raises(VerificationError):
            PluginInstance(plugin, make_conn())


class TestAttachment:
    def test_post_pluglet_runs(self):
        conn = make_conn()
        pluglet = Pluglet("count", "packet_sent_event", "post", assemble("""
            mov r1, 1
            mov r2, 8
            call 5      ; get_opaque_data
            ldxdw r1, [r0+0]
            add r1, 1
            stxdw [r0+0], r1
            exit
        """))
        inst = PluginInstance(Plugin("org.x.c", [pluglet]), conn)
        inst.attach()
        conn.protoops.run(conn, "packet_sent_event", None, "pkt")
        conn.protoops.run(conn, "packet_sent_event", None, "pkt")
        assert int.from_bytes(inst.runtime.memory.data[0:8], "little") == 2

    def test_replace_pluglet_overrides(self):
        conn = make_conn()
        pluglet = Pluglet("always7", "select_sending_path", "replace",
                          assemble("mov r0, 0\nexit"))
        inst = PluginInstance(Plugin("org.x.r", [pluglet]), conn)
        inst.attach()
        assert conn.protoops.run(conn, "select_sending_path", None) == 0

    def test_double_replace_rolls_back_whole_plugin(self):
        """§2.2: if a second pluglet tries to replace the same operation,
        the plugin it belongs to is rolled back."""
        conn = make_conn()
        first = PluginInstance(Plugin("org.x.one", [
            Pluglet("r1", "select_sending_path", "replace",
                    assemble("mov r0, 0\nexit")),
        ]), conn)
        first.attach()
        second = PluginInstance(Plugin("org.x.two", [
            Pluglet("obs", "packet_sent_event", "post", assemble("exit")),
            Pluglet("r2", "select_sending_path", "replace",
                    assemble("mov r0, 0\nexit")),
        ]), conn)
        with pytest.raises(ProtoopError):
            second.attach()
        # The whole second plugin is gone, including its post pluglet.
        assert "org.x.two" not in conn.plugins
        op = conn.protoops.get("packet_sent_event")
        assert not op.post.get(None)
        # The first plugin still works.
        assert "org.x.one" in conn.plugins

    def test_detach_restores_builtin(self):
        conn = make_conn()
        inst = PluginInstance(Plugin("org.x.d", [
            Pluglet("r", "select_sending_path", "replace",
                    assemble("mov r0, 0\nexit")),
        ]), conn)
        inst.attach()
        inst.detach()
        assert conn.plugins == {}
        assert conn.protoops.run(conn, "select_sending_path", None) == 0

    def test_plugin_injected_event_fires(self):
        conn = make_conn()
        seen = []
        conn.protoops.attach("plugin_injected", Anchor.POST,
                             lambda c, args, res: seen.append(args[0]))
        PluginInstance(Plugin("org.x.e", [noop_pluglet()]), conn).attach()
        assert seen == ["org.x.e"]


class TestIsolation:
    def test_plugins_have_separate_memories(self):
        """§2: each plugin instance has its own memory, shared only among
        its pluglets."""
        conn = make_conn()
        writer = assemble(f"""
            mov r1, 1
            mov r2, 8
            call 5
            stdw [r0+0], 77
            exit
        """)
        p1 = PluginInstance(Plugin("org.x.p1", [
            Pluglet("w", "packet_sent_event", "post", writer)]), conn)
        p2 = PluginInstance(Plugin("org.x.p2", [
            Pluglet("w", "packet_lost_event", "post", writer)]), conn)
        p1.attach()
        p2.attach()
        conn.protoops.run(conn, "packet_sent_event", None)
        assert int.from_bytes(p1.runtime.memory.data[0:8], "little") == 77
        assert int.from_bytes(p2.runtime.memory.data[0:8], "little") == 0

    def test_pluglets_of_same_plugin_share_heap(self):
        conn = make_conn()
        writer = assemble("mov r1, 1\nmov r2, 8\ncall 5\nstdw [r0+0], 5\nexit")
        reader = assemble("mov r1, 1\nmov r2, 8\ncall 5\nldxdw r0, [r0+0]\nexit")
        inst = PluginInstance(Plugin("org.x.share", [
            Pluglet("w", "packet_sent_event", "post", writer),
            Pluglet("r", "my_reader", "replace", reader),
        ]), conn)
        inst.attach()
        conn.protoops.run(conn, "packet_sent_event", None)
        assert conn.protoops.run(conn, "my_reader", None) == 5

    def test_memory_violation_kills_plugin_and_connection(self):
        """§2.1: any violation of memory safety results in the removal of
        the plugin and the termination of the connection."""
        conn = make_conn()
        bad = Pluglet("wild", "packet_sent_event", "post",
                      assemble("lddw r2, 0x7f00000000\nldxdw r0, [r2+0]\nexit"))
        inst = PluginInstance(Plugin("org.x.bad", [bad]), conn)
        inst.attach()
        with pytest.raises(Exception):
            conn.protoops.run(conn, "packet_sent_event", None)
        assert conn.closed
        assert "org.x.bad" not in conn.plugins
        assert not inst.attached

    def test_passive_pluglet_cannot_set(self):
        """§2.2: pre/post pluglets have read-only access."""
        conn = make_conn()
        bad = Pluglet("setter", "packet_sent_event", "post", assemble(f"""
            mov r1, {FLD_SPIN_BIT}
            mov r2, 0
            mov r3, 1
            call 2       ; set
            exit
        """))
        inst = PluginInstance(Plugin("org.x.pw", [bad]), conn)
        inst.attach()
        with pytest.raises(ApiViolation):
            conn.protoops.run(conn, "packet_sent_event", None)
        assert conn.closed

    def test_replace_pluglet_can_set(self):
        conn = make_conn()
        ok = Pluglet("setter", "my_setter", "replace", assemble(f"""
            mov r1, {FLD_SPIN_BIT}
            mov r2, 0
            mov r3, 1
            call 2
            exit
        """))
        PluginInstance(Plugin("org.x.rw", [ok]), conn).attach()
        conn.protoops.run(conn, "my_setter", None)
        assert conn.spin_bit is True

    def test_field_policy_blocks_spin_bit_write(self):
        """§2.3: 'a client could refuse plugins that modify the Spin Bit'."""
        conn = make_conn()
        conn.field_policy = FieldPolicy(forbidden_writes={"spin_bit"})
        bad = Pluglet("setter", "my_setter", "replace", assemble(f"""
            mov r1, {FLD_SPIN_BIT}
            mov r2, 0
            mov r3, 1
            call 2
            exit
        """))
        PluginInstance(Plugin("org.x.pol", [bad]), conn).attach()
        with pytest.raises(ApiViolation):
            conn.protoops.run(conn, "my_setter", None)

    def test_field_accesses_recorded(self):
        conn = make_conn()
        reader = Pluglet("rd", "my_rd", "replace",
                         assemble("mov r1, 0x10\nmov r2, 0\ncall 1\nexit"))
        inst = PluginInstance(Plugin("org.x.acct", [reader]), conn)
        inst.attach()
        conn.protoops.run(conn, "my_rd", None)
        assert "srtt" in inst.runtime.fields_read


class TestCache:
    def test_instantiate_requires_store(self):
        cache = PluginCache()
        with pytest.raises(KeyError):
            cache.instantiate("nope", make_conn())

    def test_heap_write_never_visible_to_another_connection(self):
        """§2.5: connections share the cached plugin's code, never its
        heap — what connection A's pluglet wrote is not there for B."""
        cache = PluginCache()
        writer = Pluglet("w", "packet_sent_event", "post", assemble(
            "mov r1, 1\nmov r2, 8\ncall 5\nstdw [r0+0], 9\nexit"))
        cache.store(Plugin("org.x.cache", [writer]))
        conn1 = make_conn()
        inst1 = cache.instantiate("org.x.cache", conn1)
        inst1.attach()
        conn1.protoops.run(conn1, "packet_sent_event", None)
        assert any(inst1.runtime.memory.data)
        conn2 = make_conn()
        inst2 = cache.instantiate("org.x.cache", conn2)
        assert inst2.conn is conn2
        assert inst2.runtime.memory is not inst1.runtime.memory
        assert not any(inst2.runtime.memory.data)
        # B's own write lands in B's heap and leaves A's as it was.
        before = bytes(inst1.runtime.memory.data)
        inst2.attach()
        conn2.protoops.run(conn2, "packet_sent_event", None)
        assert any(inst2.runtime.memory.data)
        assert inst1.runtime.memory.data == before

    def test_every_instantiation_is_fresh_and_load_is_counted_once(
            self, monkeypatch):
        monkeypatch.delenv("REPRO_JIT", raising=False)
        cache = PluginCache()
        cache.store(Plugin("org.x.f", [noop_pluglet()]))
        a = cache.instantiate("org.x.f", make_conn())
        b = cache.instantiate("org.x.f", make_conn())
        assert a is not b
        assert a.runtime is not b.runtime and a.vms["nop"] is not b.vms["nop"]
        assert (cache.misses, cache.hits) == (1, 1)

    def test_store_verifies(self):
        from repro.vm.isa import Instruction, Op

        cache = PluginCache()
        bad = Plugin("org.x.nv", [
            Pluglet("b", "op", "post", [Instruction(Op.MOV_IMM, dst=0)])])
        with pytest.raises(VerificationError):
            cache.store(bad)
