"""The Multipath plugin (§4.3): PQUIC over several network paths.

"Our plugin supports the exchange of path connection IDs and host
addresses.  It then associates a path ID between each pair of host
addresses.  Once the connection has been established, packets are
scheduled in a round-robin manner between available paths and it uses a
new ACK frame to acknowledge received packets with path-specific packet
numbers.  We also implement a packet scheduler sending packets on the
path having the lowest RTT to mimic Multipath TCP."

Both schedulers are provided (``scheduler='rr'`` / ``'lowrtt'``); the
paper evaluates round-robin.  The plugin acts as path manager: the client
pluglet opens a path per extra local address at handshake completion and
announces it with an ADD_ADDRESS frame; the server side accepts new
address pairs through its replacement of ``map_incoming_path``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.api import (
    FLD_BYTES_IN_FLIGHT,
    FLD_CWND,
    FLD_IS_CLIENT,
    FLD_NB_PATHS,
    FLD_PATH_ACTIVE,
    FLD_PATH_VALIDATED,
    FLD_SRTT_US,
    H_PLUGIN_BASE,
    HelperEffect,
)
from repro.core.plugin import Plugin, Pluglet
from repro.quic import frames as F
from repro.quic.connection import ReservedFrame
from repro.quic.packet import Epoch
from repro.quic.wire import Buffer, varint_size

PLUGIN_NAME = "org.pquic.multipath"
ADD_ADDRESS_FRAME_TYPE = 0x40
MP_ACK_FRAME_TYPE = 0x42

H_MP_SETUP = H_PLUGIN_BASE + 0
H_MP_PARSE_ADDR = H_PLUGIN_BASE + 1
H_MP_PROCESS_ADDR = H_PLUGIN_BASE + 2
H_MP_PARSE_ACK = H_PLUGIN_BASE + 3
H_MP_PROCESS_ACK = H_PLUGIN_BASE + 4
H_MP_WRITE = H_PLUGIN_BASE + 5
H_MP_RESERVE_ACKS = H_PLUGIN_BASE + 6
H_MP_MAP_PATH = H_PLUGIN_BASE + 7
H_MP_REQUEUE = H_PLUGIN_BASE + 8

MP_HELPERS = {
    "mp_setup": H_MP_SETUP,
    "mp_parse_addr": H_MP_PARSE_ADDR,
    "mp_process_addr": H_MP_PROCESS_ADDR,
    "mp_parse_ack": H_MP_PARSE_ACK,
    "mp_process_ack": H_MP_PROCESS_ACK,
    "mp_write": H_MP_WRITE,
    "mp_reserve_acks": H_MP_RESERVE_ACKS,
    "mp_map_path": H_MP_MAP_PATH,
    "mp_requeue": H_MP_REQUEUE,
}

#: Declared for the JIT: none of them touches the calling pluglet's stack.
MP_HELPER_EFFECTS = {
    hid: HelperEffect(name) for name, hid in MP_HELPERS.items()}

ST_AREA = 3
ST_SIZE = 64
OFF_LAST_PATH = 0
OFF_PATHS_OPENED = 8
OFF_MPACKS_SENT = 16
OFF_MPACKS_RCVD = 24


@dataclass
class AddAddressFrame(F.Frame):
    """Announce an additional local address to the peer."""

    address: str = ""
    address_id: int = 0
    type = ADD_ADDRESS_FRAME_TYPE

    def serialize(self, buf: Buffer) -> None:
        buf.push_varint(self.type)
        buf.push_varint(self.address_id)
        buf.push_varint_prefixed_bytes(self.address.encode("utf-8"))

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "AddAddressFrame":
        address_id = buf.pull_varint()
        address = buf.pull_varint_prefixed_bytes().decode("utf-8")
        return cls(address=address, address_id=address_id)


@dataclass
class MpAckFrame(F.Frame):
    """ACK with a path identifier: path-specific packet numbers."""

    path_id: int = 0
    ack: Optional[F.AckFrame] = None
    type = MP_ACK_FRAME_TYPE

    @property
    def ack_eliciting(self) -> bool:
        return False  # like ACK

    def serialize(self, buf: Buffer) -> None:
        buf.push_varint(self.type)
        buf.push_varint(self.path_id)
        self.ack.serialize(buf)  # includes its own 0x02 type byte

    def encoded_size(self) -> int:
        return (varint_size(self.type) + varint_size(self.path_id)
                + self.ack.encoded_size())

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "MpAckFrame":
        path_id = buf.pull_varint()
        inner_type = buf.pull_varint()
        ack = F.AckFrame.parse(buf, inner_type)
        return cls(path_id=path_id, ack=ack)


def _host_helpers(runtime) -> dict:
    conn = runtime.conn

    def h_setup(vm, *_):
        """Client path manager: one path per extra local address, each
        announced with ADD_ADDRESS."""
        conn = runtime.conn
        created = 0
        for i, address in enumerate(conn.extra_local_addresses):
            if any(p.local_addr == address for p in conn.paths):
                continue
            index = conn.protoops.run(
                conn, "create_path", None, address, conn.paths[0].peer_addr
            )
            # §8.2: a new path must prove two-way reachability before the
            # scheduler may place data on it.
            conn.start_path_validation(index)
            conn.reserve_frames([
                ReservedFrame(
                    frame=AddAddressFrame(address=address, address_id=i + 1),
                    plugin=PLUGIN_NAME,
                )
            ])
            created += 1
        return created

    def h_parse_addr(vm, buf_handle, *_):
        ctx = runtime.context
        frame = AddAddressFrame.parse(ctx.raw_args[buf_handle], ADD_ADDRESS_FRAME_TYPE)
        runtime.set_result(frame)
        return frame.address_id

    def h_process_addr(vm, frame_handle, *_):
        """Open the reverse path toward the announced address."""
        conn = runtime.conn
        frame = runtime.context.raw_args[frame_handle]
        if any(p.peer_addr == frame.address for p in conn.paths):
            return 0
        index = conn.protoops.run(
            conn, "create_path", None, conn.paths[0].local_addr, frame.address
        )
        conn.start_path_validation(index)
        return index

    def h_parse_ack(vm, buf_handle, *_):
        ctx = runtime.context
        frame = MpAckFrame.parse(ctx.raw_args[buf_handle], MP_ACK_FRAME_TYPE)
        runtime.set_result(frame)
        return frame.path_id

    def h_process_ack(vm, frame_handle, *_):
        """Route the embedded ACK to its path's packet-number space."""
        conn = runtime.conn
        frame = runtime.context.raw_args[frame_handle]
        if not 0 <= frame.path_id < len(conn.paths):
            return 0
        ctx = {"epoch": Epoch.ONE_RTT, "path_index": frame.path_id}
        conn._process_ack_frame(conn, frame.ack, ctx)
        return 1

    def h_write(vm, frame_handle, buf_handle, *_):
        ctx = runtime.context
        ctx.raw_args[frame_handle].serialize(ctx.raw_args[buf_handle])
        return 0

    def h_reserve_acks(vm, *_):
        """Book one MP_ACK per path owing an acknowledgment."""
        conn = runtime.conn
        reserved = 0
        for path in conn.paths:
            if not path.space.ack_needed:
                continue
            ack = path.space.ack_frame(conn.now)
            if ack is None:
                continue
            path.space.ack_needed = False
            conn.reserve_frames([
                ReservedFrame(
                    frame=MpAckFrame(path_id=path.index, ack=ack),
                    plugin=PLUGIN_NAME,
                    retransmittable=False,
                    congestion_controlled=False,
                )
            ])
            reserved += 1
        return reserved

    def h_map_path(vm, local_handle, peer_handle, *_):
        """find-or-create the path for an incoming (local, peer) pair."""
        conn = runtime.conn
        ctx = runtime.context
        local = ctx.raw_args[local_handle]
        peer = ctx.raw_args[peer_handle]
        for path in conn.paths:
            if path.local_addr == local and path.peer_addr == peer:
                return path.index
        if not conn.handshake_complete:
            return 0
        index = conn.protoops.run(conn, "create_path", None, local, peer)
        conn.start_path_validation(index)
        return index

    def h_requeue(vm, frame_handle, *_):
        frame = runtime.context.raw_args[frame_handle]
        conn.reserve_frames([
            ReservedFrame(frame=frame, plugin=PLUGIN_NAME)
        ])
        return 1

    return {
        H_MP_SETUP: h_setup,
        H_MP_PARSE_ADDR: h_parse_addr,
        H_MP_PROCESS_ADDR: h_process_addr,
        H_MP_PARSE_ACK: h_parse_ack,
        H_MP_PROCESS_ACK: h_process_ack,
        H_MP_WRITE: h_write,
        H_MP_RESERVE_ACKS: h_reserve_acks,
        H_MP_MAP_PATH: h_map_path,
        H_MP_REQUEUE: h_requeue,
    }


def _register_frames(conn) -> None:
    conn.frame_registry.register(ADD_ADDRESS_FRAME_TYPE, AddAddressFrame)
    conn.frame_registry.register(MP_ACK_FRAME_TYPE, MpAckFrame)


_RR_SCHEDULER = f"""
def select_path_rr():
    n = get({FLD_NB_PATHS}, 0)
    if n <= 1:
        return 0
    st = get_opaque_data({ST_AREA}, {ST_SIZE})
    last = mem64[st + {OFF_LAST_PATH}]
    i = 0
    while i < n:
        cand = (last + 1 + i) % n
        if get({FLD_PATH_ACTIVE}, cand) == 1:
            if get({FLD_PATH_VALIDATED}, cand) == 1:
                if get({FLD_CWND}, cand) > get({FLD_BYTES_IN_FLIGHT}, cand):
                    mem64[st + {OFF_LAST_PATH}] = cand
                    return cand
        i += 1
    mem64[st + {OFF_LAST_PATH}] = (last + 1) % n
    return (last + 1) % n
"""

_LOWRTT_SCHEDULER = f"""
def select_path_lowrtt():
    n = get({FLD_NB_PATHS}, 0)
    if n <= 1:
        return 0
    best = 0
    best_rtt = 0
    found = 0
    i = 0
    while i < n:
        if get({FLD_PATH_ACTIVE}, i) == 1:
            if get({FLD_PATH_VALIDATED}, i) == 1:
                if get({FLD_CWND}, i) > get({FLD_BYTES_IN_FLIGHT}, i):
                    rtt = get({FLD_SRTT_US}, i)
                    if found == 0 or rtt < best_rtt:
                        best = i
                        best_rtt = rtt
                        found = 1
        i += 1
    return best
"""


from repro.core.plugin import register_host_resolver

register_host_resolver(
    PLUGIN_NAME,
    lambda name: (_host_helpers, _register_frames, MP_HELPER_EFFECTS),
)


def build_multipath_plugin(scheduler: str = "rr") -> Plugin:
    """Assemble the multipath plugin with the chosen packet scheduler."""
    if scheduler == "rr":
        sched_source, sched_name = _RR_SCHEDULER, "select_path_rr"
    elif scheduler == "lowrtt":
        sched_source, sched_name = _LOWRTT_SCHEDULER, "select_path_lowrtt"
    else:
        raise ValueError(f"unknown scheduler {scheduler!r}")

    pluglets = [
        Pluglet.from_source(sched_name, "select_sending_path", "replace",
                            sched_source, helpers=MP_HELPERS),
        # Path manager: open extra paths when the handshake completes.
        Pluglet.from_source(
            "path_manager", "connection_established", "post",
            f"""
def path_manager():
    if get({FLD_IS_CLIENT}, 0) == 1:
        st = get_opaque_data({ST_AREA}, {ST_SIZE})
        opened = mp_setup()
        mem64[st + {OFF_PATHS_OPENED}] = mem64[st + {OFF_PATHS_OPENED}] + opened
""",
            helpers=MP_HELPERS),
        # ADD_ADDRESS frame handling.
        Pluglet.from_source(
            "parse_add_address", "parse_frame", "replace",
            """
def parse_add_address(buf, frame_type):
    return mp_parse_addr(buf)
""",
            helpers=MP_HELPERS, param=ADD_ADDRESS_FRAME_TYPE),
        Pluglet.from_source(
            "process_add_address", "process_frame", "replace",
            """
def process_add_address(frame, ctx):
    mp_process_addr(frame)
""",
            helpers=MP_HELPERS, param=ADD_ADDRESS_FRAME_TYPE),
        Pluglet.from_source(
            "write_add_address", "write_frame", "replace",
            """
def write_add_address(frame, buf):
    mp_write(frame, buf)
""",
            helpers=MP_HELPERS, param=ADD_ADDRESS_FRAME_TYPE),
        Pluglet.from_source(
            "notify_add_address", "notify_frame", "replace",
            """
def notify_add_address(frame, acked, pkt):
    if not acked:
        mp_requeue(frame)
""",
            helpers=MP_HELPERS, param=ADD_ADDRESS_FRAME_TYPE),
        # MP_ACK frame handling.
        Pluglet.from_source(
            "parse_mp_ack", "parse_frame", "replace",
            """
def parse_mp_ack(buf, frame_type):
    return mp_parse_ack(buf)
""",
            helpers=MP_HELPERS, param=MP_ACK_FRAME_TYPE),
        Pluglet.from_source(
            "process_mp_ack", "process_frame", "replace",
            f"""
def process_mp_ack(frame, ctx):
    st = get_opaque_data({ST_AREA}, {ST_SIZE})
    mem64[st + {OFF_MPACKS_RCVD}] = mem64[st + {OFF_MPACKS_RCVD}] + 1
    mp_process_ack(frame)
""",
            helpers=MP_HELPERS, param=MP_ACK_FRAME_TYPE),
        Pluglet.from_source(
            "write_mp_ack", "write_frame", "replace",
            """
def write_mp_ack(frame, buf):
    mp_write(frame, buf)
""",
            helpers=MP_HELPERS, param=MP_ACK_FRAME_TYPE),
        # Before each packet: book MP_ACKs for paths owing one.
        Pluglet.from_source(
            "mp_ack_booker", "before_sending_packet", "post",
            f"""
def mp_ack_booker():
    st = get_opaque_data({ST_AREA}, {ST_SIZE})
    n = mp_reserve_acks()
    mem64[st + {OFF_MPACKS_SENT}] = mem64[st + {OFF_MPACKS_SENT}] + n
""",
            helpers=MP_HELPERS),
        # Path-aware demultiplexing of incoming datagrams.
        Pluglet.from_source(
            "map_incoming", "map_incoming_path", "replace",
            """
def map_incoming(local_addr, peer_addr):
    return mp_map_path(local_addr, peer_addr)
""",
            helpers=MP_HELPERS),
    ]
    return Plugin(
        PLUGIN_NAME,
        pluglets,
        host_helpers=_host_helpers,
        frame_registrar=_register_frames,
        helper_effects=MP_HELPER_EFFECTS,
    )
