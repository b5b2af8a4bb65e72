"""The PQUIC API exposed to pluglet bytecode (Table 1).

====================  =====================================================
``get`` / ``set``     Access/modify connection fields (by field id).
``pl_malloc/pl_free`` Management of the plugin memory.
``get_opaque_data``   Retrieve a memory area shared by pluglets.
``pl_memcpy/memset``  Access/modify data outside the PRE (checked).
``plugin_run_protoop``Execute protocol operations.
``reserve_frames``    Book the sending of QUIC frames.
====================  =====================================================

plus invocation-argument accessors and a message-push channel (§2.4).

Field access is mediated: every field has a human-readable name, reads and
writes are recorded per plugin, and the host can refuse plugins touching
fields its policy forbids ("a client could refuse plugins that modify the
Spin Bit").  Passive (pre/post) pluglets are denied ``set`` — they "only
have read access to the connection context" (§2.2).

Times are marshaled as microseconds; floats never enter the VM.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import TransportError, TransportErrorCode
from repro.vm.analysis import HelperEffect
from repro.vm.interpreter import MemoryViolation
from repro.vm.isa import WORD_MASK

# Helper ids (CALL immediates).
H_GET = 1
H_SET = 2
H_PL_MALLOC = 3
H_PL_FREE = 4
H_GET_OPAQUE_DATA = 5
H_PL_MEMCPY = 6
H_PL_MEMSET = 7
H_RUN_PROTOOP = 8
H_RESERVE_FRAME = 9
H_GET_INPUT = 10
H_INPUT_LEN = 11
H_READ_INPUT_BYTES = 12
H_WRITE_INPUT_BYTES = 13
H_PUSH_MESSAGE = 14
H_GET_TIME_US = 15
#: First helper id available to plugin-specific host functions.
H_PLUGIN_BASE = 64

CORE_HELPER_NAMES = {
    "get": H_GET,
    "set": H_SET,
    "pl_malloc": H_PL_MALLOC,
    "pl_free": H_PL_FREE,
    "get_opaque_data": H_GET_OPAQUE_DATA,
    "pl_memcpy": H_PL_MEMCPY,
    "pl_memset": H_PL_MEMSET,
    "plugin_run_protoop": H_RUN_PROTOOP,
    "reserve_frames": H_RESERVE_FRAME,
    "get_input": H_GET_INPUT,
    "input_len": H_INPUT_LEN,
    "read_input_bytes": H_READ_INPUT_BYTES,
    "write_input_bytes": H_WRITE_INPUT_BYTES,
    "push_message": H_PUSH_MESSAGE,
    "get_time_us": H_GET_TIME_US,
}

US = 1_000_000


def _us(seconds: float) -> int:
    return int(seconds * US)


class FieldSpec:
    """One accessible connection field."""

    def __init__(self, name: str, getter: Callable, setter: Optional[Callable] = None):
        self.name = name
        self.getter = getter
        self.setter = setter


# Field ids — the stable ABI between pluglets and hosts.
FLD_PACKETS_SENT = 0x01
FLD_PACKETS_RECEIVED = 0x02
FLD_BYTES_SENT = 0x03
FLD_BYTES_RECEIVED = 0x04
FLD_PACKETS_LOST = 0x05
FLD_ACKS_RECEIVED = 0x06
FLD_FRAMES_RECEIVED = 0x07
FLD_SPURIOUS_RECEIVED = 0x08
FLD_ECN_CE_RECEIVED = 0x09
FLD_SRTT_US = 0x10
FLD_RTT_VAR_US = 0x11
FLD_MIN_RTT_US = 0x12
FLD_LATEST_RTT_US = 0x13
FLD_CWND = 0x20
FLD_BYTES_IN_FLIGHT = 0x21
FLD_NB_PATHS = 0x30
FLD_PATH_ACTIVE = 0x31
FLD_PATH_VALIDATED = 0x32
FLD_MAX_DATA_LOCAL = 0x40
FLD_MAX_DATA_REMOTE = 0x41
FLD_DATA_SENT = 0x42
FLD_DATA_RECEIVED = 0x43
FLD_SPIN_BIT = 0x50
FLD_IS_CLIENT = 0x51
FLD_HANDSHAKE_COMPLETE = 0x52
FLD_NEXT_PN = 0x60
FLD_LARGEST_ACKED = 0x61
FLD_ACK_NEEDED = 0x62


def _stat(key):
    return lambda conn, i: conn.stats[key]


def _path(conn, i):
    if not 0 <= i < len(conn.paths):
        raise ApiViolation(f"bad path index {i}")
    return conn.paths[i]


def _set_spin(conn, i, v):
    conn.spin_bit = bool(v)


FIELD_TABLE: dict[int, FieldSpec] = {
    FLD_PACKETS_SENT: FieldSpec("packets_sent", _stat("packets_sent")),
    FLD_PACKETS_RECEIVED: FieldSpec("packets_received", _stat("packets_received")),
    FLD_BYTES_SENT: FieldSpec("bytes_sent", _stat("bytes_sent")),
    FLD_BYTES_RECEIVED: FieldSpec("bytes_received", _stat("bytes_received")),
    FLD_PACKETS_LOST: FieldSpec("packets_lost", _stat("packets_lost")),
    FLD_ACKS_RECEIVED: FieldSpec("acks_received", _stat("acks_received")),
    FLD_FRAMES_RECEIVED: FieldSpec("frames_received", _stat("frames_received")),
    FLD_SPURIOUS_RECEIVED: FieldSpec("spurious_received", _stat("spurious_received")),
    FLD_ECN_CE_RECEIVED: FieldSpec("ecn_ce_received", _stat("ecn_ce_received")),
    FLD_SRTT_US: FieldSpec("srtt", lambda c, i: _us(_path(c, i).rtt.smoothed)),
    FLD_RTT_VAR_US: FieldSpec("rtt_variance", lambda c, i: _us(_path(c, i).rtt.variance)),
    FLD_MIN_RTT_US: FieldSpec(
        "min_rtt",
        lambda c, i: 0 if _path(c, i).rtt.min_rtt == float("inf")
        else _us(_path(c, i).rtt.min_rtt),
    ),
    FLD_LATEST_RTT_US: FieldSpec("latest_rtt", lambda c, i: _us(_path(c, i).rtt.latest)),
    FLD_CWND: FieldSpec(
        "cwnd",
        lambda c, i: int(_path(c, i).cc.cwnd),
        lambda c, i, v: setattr(_path(c, i).cc, "cwnd", max(int(v), 2560)),
    ),
    FLD_BYTES_IN_FLIGHT: FieldSpec(
        "bytes_in_flight", lambda c, i: _path(c, i).cc.bytes_in_flight
    ),
    FLD_NB_PATHS: FieldSpec("nb_paths", lambda c, i: len(c.paths)),
    FLD_PATH_ACTIVE: FieldSpec(
        "path_active",
        lambda c, i: int(_path(c, i).active),
        lambda c, i, v: setattr(_path(c, i), "active", bool(v)),
    ),
    FLD_PATH_VALIDATED: FieldSpec(
        "path_validated", lambda c, i: int(_path(c, i).validated)
    ),
    FLD_MAX_DATA_LOCAL: FieldSpec("max_data_local", lambda c, i: c.max_data_local),
    FLD_MAX_DATA_REMOTE: FieldSpec("max_data_remote", lambda c, i: c.max_data_remote),
    FLD_DATA_SENT: FieldSpec("data_sent", lambda c, i: c.data_sent),
    FLD_DATA_RECEIVED: FieldSpec("data_received", lambda c, i: c.data_received),
    FLD_SPIN_BIT: FieldSpec("spin_bit", lambda c, i: int(c.spin_bit), _set_spin),
    FLD_IS_CLIENT: FieldSpec("is_client", lambda c, i: int(c.is_client)),
    FLD_HANDSHAKE_COMPLETE: FieldSpec(
        "handshake_complete", lambda c, i: int(c.handshake_complete)
    ),
    FLD_NEXT_PN: FieldSpec(
        "next_packet_number", lambda c, i: _path(c, i).space.next_packet_number
    ),
    FLD_LARGEST_ACKED: FieldSpec(
        "largest_acked", lambda c, i: _path(c, i).space.largest_acked & ((1 << 64) - 1)
    ),
    FLD_ACK_NEEDED: FieldSpec(
        "ack_needed", lambda c, i: int(_path(c, i).space.ack_needed)
    ),
}

#: Field id -> stable field name, for conflict-report diagnostics.
FIELD_NAMES = {fid: spec.name for fid, spec in FIELD_TABLE.items()}

#: Declarative effect metadata for the core helper table: what each
#: helper does to shared host state.  ``field_arg`` is the 0-based
#: argument index (0 = r1) carrying the field id; the effect-summary
#: analysis (:mod:`repro.vm.analysis.summaries`) resolves it from the
#: interval domain when it is statically constant.
HELPER_EFFECTS: dict[int, HelperEffect] = {
    H_GET: HelperEffect("get", field_arg=0),
    H_SET: HelperEffect("set", field_arg=0, writes_field=True),
    H_PL_MALLOC: HelperEffect("pl_malloc"),
    H_PL_FREE: HelperEffect("pl_free"),
    H_GET_OPAQUE_DATA: HelperEffect("get_opaque_data"),
    H_PL_MEMCPY: HelperEffect("pl_memcpy", reaches_stack=True),
    H_PL_MEMSET: HelperEffect("pl_memset", reaches_stack=True),
    H_RUN_PROTOOP: HelperEffect("plugin_run_protoop",
                                triggers_protoop=True),
    H_RESERVE_FRAME: HelperEffect("reserve_frames"),
    H_GET_INPUT: HelperEffect("get_input"),
    H_INPUT_LEN: HelperEffect("input_len"),
    H_READ_INPUT_BYTES: HelperEffect("read_input_bytes", reaches_stack=True),
    H_WRITE_INPUT_BYTES: HelperEffect("write_input_bytes", reaches_stack=True),
    H_PUSH_MESSAGE: HelperEffect("push_message", reaches_stack=True),
    H_GET_TIME_US: HelperEffect("get_time_us"),
}


class ApiViolation(TransportError):
    """A pluglet misused the API (bad field, write from passive anchor...)."""

    def __init__(self, reason: str):
        super().__init__(TransportErrorCode.PLUGIN_RUNTIME_ERROR, reason)


class InvocationContext:
    """Per-invocation state shared between the wrapper and the helpers."""

    __slots__ = ("raw_args", "writable")

    def __init__(self, args: tuple, writable: bool):
        self.raw_args = args
        self.writable = writable


def marshal(value: Any, index: int) -> int:
    """How invocation argument ``index`` enters the PRE: the one
    definition, used for r1-r5 at entry and by ``get_input``."""
    if isinstance(value, int):  # bool included
        return value & WORD_MASK
    if value is None:
        return 0
    if isinstance(value, float):
        return _us(value) & WORD_MASK
    # Objects (frames, packets, byte strings) are referenced by their
    # argument index: an opaque handle the pluglet can pass back to
    # helpers, never a raw pointer.
    return index


def _range(vm, address: int, length: int):
    """``(buffer, offset)`` of ``[address, address + length)`` in the
    running invocation's stack or the plugin memory: one monitor check
    for the whole range, which must lie inside a single region."""
    stack = vm.current_stack if vm.current_stack is not None else bytearray(0)
    return vm._region(address, length, stack)


class PluginApi:
    """Builds the helper dispatch table for one plugin instance."""

    def __init__(self, runtime):
        self.runtime = runtime  # PluginRuntime (see repro.core.plugin)

    def helper_table(self) -> dict:
        table = {
            H_GET: self._h_get,
            H_SET: self._h_set,
            H_PL_MALLOC: self._h_malloc,
            H_PL_FREE: self._h_free,
            H_GET_OPAQUE_DATA: self._h_opaque,
            H_PL_MEMCPY: self._h_memcpy,
            H_PL_MEMSET: self._h_memset,
            H_RUN_PROTOOP: self._h_run_protoop,
            H_RESERVE_FRAME: self._h_reserve_frame,
            H_GET_INPUT: self._h_get_input,
            H_INPUT_LEN: self._h_input_len,
            H_READ_INPUT_BYTES: self._h_read_input,
            H_WRITE_INPUT_BYTES: self._h_write_input,
            H_PUSH_MESSAGE: self._h_push_message,
            H_GET_TIME_US: self._h_time,
        }
        for hid, fn in self.runtime.extra_helpers.items():
            table[hid] = fn
        return table

    # --- field access -----------------------------------------------------

    def _h_get(self, vm, field_id, index, *_):
        spec = FIELD_TABLE.get(field_id)
        if spec is None:
            raise ApiViolation(f"unknown field id 0x{field_id:x}")
        runtime = self.runtime
        conn = runtime.conn
        runtime.fields_read.add(spec.name)
        policy = getattr(conn, "field_policy", None)
        if policy is not None:
            policy.check(runtime.plugin_name, spec.name, False)
        return spec.getter(conn, index)

    def _h_set(self, vm, field_id, index, value, *_):
        spec = FIELD_TABLE.get(field_id)
        if spec is None:
            raise ApiViolation(f"unknown field id 0x{field_id:x}")
        runtime = self.runtime
        ctx = runtime.context
        if ctx is not None and not ctx.writable:
            raise ApiViolation(
                f"passive pluglet attempted to set field {spec.name!r}"
            )
        if spec.setter is None:
            raise ApiViolation(f"field {spec.name!r} is read-only")
        conn = runtime.conn
        runtime.fields_written.add(spec.name)
        policy = getattr(conn, "field_policy", None)
        if policy is not None:
            policy.check(runtime.plugin_name, spec.name, True)
        spec.setter(conn, index, value)
        return 0

    # --- plugin memory -----------------------------------------------------

    def _h_malloc(self, vm, size, *_):
        return self.runtime.allocator.malloc(size)

    def _h_free(self, vm, address, *_):
        self.runtime.allocator.free(address)
        return 0

    def _h_opaque(self, vm, oid, size, *_):
        return self.runtime.opaque_data(oid, size)

    def _h_memcpy(self, vm, dst, src, length, *_):
        if length > self.runtime.memory.size:
            raise MemoryViolation("memcpy length exceeds plugin memory")
        if length:
            # Both ranges are checked, and the source copied out, before
            # the first byte is written (memmove semantics).
            buf, off = _range(vm, src, length)
            data = bytes(buf[off:off + length])
            buf, off = _range(vm, dst, length)
            buf[off:off + length] = data
        return dst

    def _h_memset(self, vm, dst, value, length, *_):
        if length > self.runtime.memory.size:
            raise MemoryViolation("memset length exceeds plugin memory")
        if length:
            buf, off = _range(vm, dst, length)
            buf[off:off + length] = bytes((value & 0xFF,)) * length
        return dst

    # --- protocol operations -------------------------------------------------

    def _h_run_protoop(self, vm, op_id, param, nargs, a1, a2):
        """plugin_run_protoop(op_id, param, nargs, a1, a2): the bytecode
        states how many arguments the operation takes (0-2)."""
        name = self.runtime.protoop_name(op_id)
        param_value = None if param == (1 << 64) - 1 or param == -1 else param
        args = (a1, a2)[: min(nargs, 2)]
        result = self.runtime.conn.protoops.run(
            self.runtime.conn, name, param_value, *args
        )
        if isinstance(result, bool):
            return int(result)
        if isinstance(result, int):
            return result
        if isinstance(result, float):
            return _us(result)
        return 0

    def _h_reserve_frame(self, vm, ctor_id, a1, a2, a3, a4):
        return self.runtime.reserve_frame(ctor_id, (a1, a2, a3, a4))

    # --- invocation arguments -----------------------------------------------

    def _h_get_input(self, vm, index, *_):
        ctx = self.runtime.context
        if ctx is None or not 0 <= index < len(ctx.raw_args):
            return 0
        return marshal(ctx.raw_args[index], index)

    def _h_input_len(self, vm, index, *_):
        ctx = self.runtime.context
        if ctx is None or not 0 <= index < len(ctx.raw_args):
            return 0
        value = ctx.raw_args[index]
        if isinstance(value, (bytes, bytearray)):
            return len(value)
        return 0

    def _h_read_input(self, vm, index, dst, offset, length, *_):
        """Copy part of a bytes argument into plugin memory / stack."""
        ctx = self.runtime.context
        if ctx is None or not 0 <= index < len(ctx.raw_args):
            raise ApiViolation(f"no bytes input {index}")
        value = ctx.raw_args[index]
        if not isinstance(value, (bytes, bytearray)):
            raise ApiViolation(f"input {index} is not bytes")
        chunk = bytes(value[offset:offset + length])
        if chunk:
            buf, off = _range(vm, dst, len(chunk))
            buf[off:off + len(chunk)] = chunk
        return len(chunk)

    def _h_write_input(self, vm, index, src, offset, length, *_):
        """Write into a mutable (bytearray) argument — e.g. an output
        buffer handed to a write_frame pluglet. Bounds are checked on both
        sides ("The API keeps control on the plugin operations")."""
        ctx = self.runtime.context
        if ctx is None or not ctx.writable:
            raise ApiViolation("write_input_bytes from passive pluglet")
        if not 0 <= index < len(ctx.raw_args):
            raise ApiViolation(f"no input {index}")
        target = ctx.raw_args[index]
        if not isinstance(target, bytearray):
            raise ApiViolation(f"input {index} is not a writable buffer")
        if offset + length > len(target):
            raise ApiViolation("write beyond output buffer")
        if length:
            buf, off = _range(vm, src, length)
            target[offset:offset + length] = buf[off:off + length]
        return length

    # --- application channel ---------------------------------------------------

    def _h_push_message(self, vm, addr, length, *_):
        data = b""
        if length:
            buf, off = _range(vm, addr, length)
            data = bytes(buf[off:off + length])
        self.runtime.conn.push_message_to_app(self.runtime.plugin_name, data)
        return 0

    def _h_time(self, vm, *_):
        return _us(self.runtime.conn.now)
