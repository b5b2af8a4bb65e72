"""Table-1 helper API tests, exercised through real bytecode."""

import pytest

from repro.core import Plugin, PluginInstance, Pluglet
from repro.core.api import (
    FLD_CWND,
    FLD_IS_CLIENT,
    FLD_NB_PATHS,
    FLD_SRTT_US,
    ApiViolation,
)
from repro.errors import TransportError, TransportErrorCode
from repro.quic import QuicConfiguration
from repro.quic.connection import QuicConnection
from repro.vm import assemble
from repro.vm.interpreter import HEAP_BASE


def make_conn(is_client=True):
    return QuicConnection(QuicConfiguration(is_client=is_client))


def attach_one(conn, name, protoop, asm, anchor="replace", param=None,
               plugin_name="org.api.test"):
    pluglet = Pluglet(name, protoop, anchor, assemble(asm), param=param)
    inst = PluginInstance(Plugin(plugin_name, [pluglet]), conn)
    inst.attach()
    return inst


class TestGetSet:
    def test_get_connection_fields(self):
        conn = make_conn()
        attach_one(conn, "g", "read_fields", f"""
            mov r1, {FLD_IS_CLIENT}
            mov r2, 0
            call 1
            mov r6, r0
            mov r1, {FLD_NB_PATHS}
            mov r2, 0
            call 1
            add r0, r6
            exit
        """)
        # is_client(1) + nb_paths(1) == 2
        assert conn.protoops.run(conn, "read_fields", None) == 2

    def test_get_path_indexed_field(self):
        conn = make_conn()
        conn.paths[0].cc.cwnd = 12345
        attach_one(conn, "g", "read_cwnd", f"""
            mov r1, {FLD_CWND}
            mov r2, 0
            call 1
            exit
        """)
        assert conn.protoops.run(conn, "read_cwnd", None) == 12345

    def test_get_bad_path_index_faults(self):
        conn = make_conn()
        attach_one(conn, "g", "read_cwnd9", f"""
            mov r1, {FLD_CWND}
            mov r2, 9
            call 1
            exit
        """)
        with pytest.raises(Exception):
            conn.protoops.run(conn, "read_cwnd9", None)
        assert conn.closed

    def test_get_unknown_field_faults(self):
        conn = make_conn()
        attach_one(conn, "g", "read_bad", """
            mov r1, 0xEEEE
            mov r2, 0
            call 1
            exit
        """)
        with pytest.raises(ApiViolation):
            conn.protoops.run(conn, "read_bad", None)

    def test_set_read_only_field_faults(self):
        conn = make_conn()
        attach_one(conn, "s", "write_srtt", f"""
            mov r1, {FLD_SRTT_US}
            mov r2, 0
            mov r3, 1
            call 2
            exit
        """)
        with pytest.raises(ApiViolation):
            conn.protoops.run(conn, "write_srtt", None)

    def test_times_marshaled_as_microseconds(self):
        conn = make_conn()
        conn.paths[0].rtt.smoothed = 0.0375
        attach_one(conn, "g", "read_srtt", f"""
            mov r1, {FLD_SRTT_US}
            mov r2, 0
            call 1
            exit
        """)
        assert conn.protoops.run(conn, "read_srtt", None) == 37_500


class TestMemoryHelpers:
    def test_malloc_free_roundtrip(self):
        conn = make_conn()
        inst = attach_one(conn, "m", "alloc_it", """
            mov r1, 100
            call 3          ; pl_malloc
            mov r6, r0
            stdw [r6+0], 42
            ldxdw r7, [r6+0]
            mov r1, r6
            call 4          ; pl_free
            mov r0, r7
            exit
        """)
        assert conn.protoops.run(conn, "alloc_it", None) == 42
        assert inst.runtime.allocator.allocated_blocks == 0

    def test_opaque_data_stable_across_calls(self):
        conn = make_conn()
        attach_one(conn, "o", "bump", """
            mov r1, 9
            mov r2, 16
            call 5          ; get_opaque_data
            ldxdw r1, [r0+0]
            add r1, 1
            stxdw [r0+0], r1
            mov r0, r1
            exit
        """)
        assert conn.protoops.run(conn, "bump", None) == 1
        assert conn.protoops.run(conn, "bump", None) == 2
        assert conn.protoops.run(conn, "bump", None) == 3

    def test_memcpy_within_plugin_memory(self):
        conn = make_conn()
        inst = attach_one(conn, "c", "copy_it", """
            mov r1, 64
            call 3          ; src = pl_malloc(64)
            mov r6, r0
            stdw [r6+0], 0x11223344
            mov r1, 64
            call 3          ; dst
            mov r7, r0
            mov r1, r7
            mov r2, r6
            mov r3, 8
            call 6          ; pl_memcpy(dst, src, 8)
            ldxdw r0, [r7+0]
            exit
        """)
        assert conn.protoops.run(conn, "copy_it", None) == 0x11223344

    def test_memset(self):
        conn = make_conn()
        attach_one(conn, "s", "set_it", """
            mov r1, 64
            call 3
            mov r6, r0
            mov r1, r6
            mov r2, 0xAB
            mov r3, 4
            call 7          ; pl_memset
            ldxw r0, [r6+0]
            exit
        """)
        assert conn.protoops.run(conn, "set_it", None) == 0xABABABAB

    def test_memcpy_from_stack(self):
        conn = make_conn()
        attach_one(conn, "c", "stack_copy", """
            stdw [r10-8], 777
            mov r1, 64
            call 3
            mov r6, r0
            mov r1, r6
            mov r2, r10
            sub r2, 8
            mov r3, 8
            call 6
            ldxdw r0, [r6+0]
            exit
        """)
        assert conn.protoops.run(conn, "stack_copy", None) == 777


class TestRunProtoop:
    def test_pluglet_calls_other_protoop(self):
        """Table 1: plugin_run_protoop — pluglets invoke protocol
        operations, with loop detection intact."""
        conn = make_conn()
        pluglet = Pluglet("caller", "outer_op", "replace", assemble("""
            mov r1, 1    ; protoop id 1
            lddw r2, 0xffffffffffffffff   ; param = none
            mov r3, 0    ; nargs = 0
            call 8
            add r0, 1
            exit
        """))
        inst = PluginInstance(Plugin("org.api.rp", [pluglet]), conn)
        inst.runtime.protoop_id("get_cwin")  # id 1
        inst.attach()
        expected = conn.paths[0].cc.cwnd + 1
        assert conn.protoops.run(conn, "outer_op", None) == expected

    def test_protoop_loop_via_helper_detected(self):
        conn = make_conn()
        pluglet = Pluglet("selfcall", "loop_op", "replace", assemble("""
            mov r1, 1
            lddw r2, 0xffffffffffffffff
            mov r3, 0
            call 8
            exit
        """))
        inst = PluginInstance(Plugin("org.api.loop", [pluglet]), conn)
        inst.runtime.protoop_id("loop_op")  # calls itself
        inst.attach()
        with pytest.raises(Exception):
            conn.protoops.run(conn, "loop_op", None)
        assert conn.closed


class TestInputsAndMessages:
    def test_get_input_marshaling(self):
        conn = make_conn()
        attach_one(conn, "i", "echo2", """
            mov r1, 1
            call 10      ; get_input(1)
            exit
        """)
        assert conn.protoops.run(conn, "echo2", None, 5, 99) == 99
        # Floats arrive as microseconds.
        assert conn.protoops.run(conn, "echo2", None, 0, 0.25) == 250_000
        # Bools as 0/1.
        assert conn.protoops.run(conn, "echo2", None, 0, True) == 1

    def test_input_len_and_read_bytes(self):
        conn = make_conn()
        attach_one(conn, "b", "sum_bytes", """
            mov r1, 0
            call 11          ; input_len(0)
            mov r6, r0       ; length
            mov r1, 0
            mov r2, r10
            sub r2, 16
            mov r3, 0
            mov r4, 8
            call 12          ; read_input_bytes(0, stack, 0, 8)
            ldxb r0, [r10-16]
            add r0, r6
            exit
        """)
        result = conn.protoops.run(conn, "sum_bytes", None, b"\x07abcdefgh")
        assert result == 9 + 7  # len + first byte

    def test_push_message_reaches_app(self):
        conn = make_conn()
        got = []
        conn.on_plugin_message = lambda name, data: got.append((name, data))
        attach_one(conn, "p", "shout", """
            stb [r10-4], 72
            stb [r10-3], 73
            mov r1, r10
            sub r1, 4
            mov r2, 2
            call 14          ; push_message
            exit
        """, plugin_name="org.api.msg")
        conn.protoops.run(conn, "shout", None)
        assert got == [("org.api.msg", b"HI")]

    def test_get_time_us(self):
        conn = make_conn()
        conn.now = 1.5
        attach_one(conn, "t", "when", "call 15\nexit")
        assert conn.protoops.run(conn, "when", None) == 1_500_000


@pytest.fixture(params=["0", "1"], ids=["interpreter", "jit"])
def engine(request, monkeypatch):
    monkeypatch.setenv("REPRO_JIT", request.param)
    return request.param


class TestBulkRangeHelpers:
    """``pl_memcpy`` / ``pl_memset`` / ``read_input_bytes`` /
    ``write_input_bytes`` / ``push_message`` check ``[addr, addr + n)``
    against the monitor once and move the bytes by slice — same results
    from both engines."""

    HEAP_END = HEAP_BASE + 16 * 1024

    def run(self, asm, *args, plugin_name="org.api.bulk"):
        conn = make_conn()
        inst = attach_one(conn, "b", "bulk_op", asm, plugin_name=plugin_name)
        return conn, inst, lambda: conn.protoops.run(conn, "bulk_op", None,
                                                     *args)

    def violation(self, call):
        with pytest.raises(TransportError) as info:
            call()
        assert info.value.code is TransportErrorCode.PLUGIN_MEMORY_VIOLATION

    def test_overlapping_memcpy_is_a_memmove(self, engine):
        conn, inst, call = self.run(f"""
            lddw r6, {HEAP_BASE}
            lddw r1, 0x0807060504030201
            stxdw [r6+0], r1
            mov r1, r6
            add r1, 2       ; dst = src + 2: a byte loop would smear
            mov r2, r6
            mov r3, 6
            call 6
            ldxdw r0, [r6+0]
            exit
        """)
        assert call() == 0x0605040302010201

    def test_memcpy_between_stack_and_heap(self, engine):
        conn, inst, call = self.run(f"""
            lddw r1, 0x1122334455667788
            stxdw [r10-8], r1
            lddw r6, {HEAP_BASE}
            mov r1, r6
            mov r2, r10
            sub r2, 8
            mov r3, 8
            call 6          ; heap <- stack
            mov r1, r10
            sub r1, 16
            mov r2, r6
            add r2, 4
            mov r3, 4
            call 6          ; stack <- heap
            ldxw r0, [r10-16]
            exit
        """)
        assert call() == 0x11223344
        assert inst.runtime.memory.data[:8] == bytes.fromhex(
            "8877665544332211")

    def test_length_zero_checks_nothing(self, engine):
        # Every address is wild; with length 0 none of them is looked at.
        conn, inst, call = self.run("""
            lddw r1, 0x7f0000000000
            lddw r2, 0x7e0000000000
            mov r3, 0
            call 6          ; pl_memcpy
            lddw r1, 0x7f0000000000
            mov r2, 1
            mov r3, 0
            call 7          ; pl_memset
            mov r1, 0
            lddw r2, 0x7f0000000000
            mov r3, 0
            mov r4, 0
            call 13         ; write_input_bytes
            lddw r1, 0x7f0000000000
            mov r2, 0
            call 14         ; push_message
            mov r0, 5
            exit
        """, bytearray(4))
        got = []
        conn.on_plugin_message = lambda name, data: got.append(data)
        assert call() == 5
        assert got == [b""] and not conn.closed

    @pytest.mark.parametrize("helper", [6, 7])
    def test_length_above_plugin_memory_is_refused(self, engine, helper):
        conn, inst, call = self.run(f"""
            lddw r1, {HEAP_BASE}
            lddw r2, {HEAP_BASE}
            mov r3, {16 * 1024 + 1}
            call {helper}
            exit
        """)
        self.violation(call)

    def test_range_past_the_region_end_writes_nothing(self, engine):
        # The last 4 bytes of the heap are in range, the 5th is not: the
        # whole memset is refused before it writes the first byte.
        conn, inst, call = self.run(f"""
            lddw r1, {self.HEAP_END - 4}
            mov r2, 0xEE
            mov r3, 5
            call 7
            exit
        """)
        self.violation(call)
        assert inst.runtime.memory.data[-4:] == bytes(4)

    def test_memcpy_bad_destination_writes_nothing(self, engine):
        conn, inst, call = self.run(f"""
            lddw r6, {HEAP_BASE}
            stdw [r6+0], 0x01020304
            lddw r1, {self.HEAP_END - 2}
            mov r2, r6
            mov r3, 4
            call 6
            exit
        """)
        self.violation(call)
        assert inst.runtime.memory.data[-2:] == bytes(2)

    def test_stack_range_may_not_run_off_the_stack(self, engine):
        conn, inst, call = self.run("""
            mov r1, r10
            sub r1, 4
            mov r2, 8       ; 4 bytes of stack, then nothing
            call 14
            exit
        """)
        got = []
        conn.on_plugin_message = lambda name, data: got.append(data)
        self.violation(call)
        assert got == []

    def test_read_and_write_input_bytes(self, engine):
        out = bytearray(b"........")
        conn, inst, call = self.run(f"""
            mov r1, 0
            lddw r2, {HEAP_BASE + 32}
            mov r3, 2
            mov r4, 100     ; clipped to what the input holds
            call 12         ; read_input_bytes(0, heap+32, 2, 100)
            mov r6, r0
            mov r1, 1
            lddw r2, {HEAP_BASE + 33}
            mov r3, 3
            mov r4, 4
            call 13         ; write_input_bytes(1, heap+33, 3, 4)
            mov r0, r6
            exit
        """, b"abcdefgh", out)
        assert call() == 6
        assert inst.runtime.memory.data[32:38] == b"cdefgh"
        assert out == bytearray(b"...defg.")

    def test_push_message_256_bytes_is_one_range_check(self, engine,
                                                       monkeypatch):
        conn, inst, call = self.run(f"""
            lddw r1, {HEAP_BASE}
            mov r2, 0x5A
            mov r3, 256
            call 7
            lddw r1, {HEAP_BASE}
            mov r2, 256
            call 14
            exit
        """)
        got = []
        conn.on_plugin_message = lambda name, data: got.append(data)
        checks = []
        vm = inst.vms["b"]
        region = vm._region
        monkeypatch.setattr(
            vm, "_region",
            lambda *args: (checks.append(args[1]), region(*args))[1])
        call()
        assert got == [b"\x5a" * 256]
        assert checks == [256, 256]
