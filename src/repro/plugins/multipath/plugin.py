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

from dataclasses import dataclass
from typing import Optional

from repro.core.api import (
    FLD_BYTES_IN_FLIGHT,
    FLD_CWND,
    FLD_HANDSHAKE_COMPLETE,
    FLD_IS_CLIENT,
    FLD_NB_PATHS,
    FLD_PATH_ACTIVE,
    FLD_PATH_VALIDATED,
    FLD_SRTT_US,
    HelperEffect,
)
from repro.core.plugin import HostBinding, Plugin, Pluglet, plugin_builder
from repro.quic import frames as F
from repro.quic.wire import Buffer, varint_size

from ..codec import parse_frame, write_frame

PLUGIN_NAME = "org.pquic.multipath"
ADD_ADDRESS_FRAME_TYPE = 0x40
MP_ACK_FRAME_TYPE = 0x42

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


def h_setup(runtime, vm, *_):
    """Client path manager: one path per extra local address, each
    announced with ADD_ADDRESS."""
    created = 0
    for i, address in enumerate(runtime.local_addresses):
        if runtime.find_path(local=address) is not None \
                or runtime.open_path(local=address) is None:
            continue
        runtime.reserve(AddAddressFrame(address=address, address_id=i + 1))
        created += 1
    return created


def h_process_addr(runtime, vm, frame_handle, *_):
    """Open the reverse path toward the announced address."""
    frame = runtime.context.raw_args[frame_handle]
    if runtime.find_path(peer=frame.address) is not None:
        return 0
    return runtime.open_path(peer=frame.address) or 0


def h_process_ack(runtime, vm, frame_handle, *_):
    """Route the embedded ACK to its path's packet-number space."""
    frame = runtime.context.raw_args[frame_handle]
    return int(runtime.path_ack(frame.path_id, frame.ack))


def h_reserve_acks(runtime, vm, *_):
    """Book one MP_ACK per path owing an acknowledgment."""
    owed = runtime.owed_acks()
    for path_id, ack in owed:
        runtime.reserve(MpAckFrame(path_id=path_id, ack=ack), congestion_controlled=False)
    return len(owed)


def h_map_path(runtime, vm, local_handle, peer_handle, *_):
    """find-or-create the path for an incoming (local, peer) pair."""
    args = runtime.context.raw_args
    local, peer = args[local_handle], args[peer_handle]
    index = runtime.find_path(local, peer)
    if index is not None:
        return index
    if not runtime.get_field(FLD_HANDSHAKE_COMPLETE, 0):
        return 0
    return runtime.open_path(local, peer) or 0


def h_requeue(runtime, vm, frame_handle, *_):
    runtime.reserve(runtime.context.raw_args[frame_handle])
    return 1


#: None of the multipath helpers touches the calling pluglet's stack.
HOST = HostBinding(PLUGIN_NAME, helpers=(
    (HelperEffect("mp_setup"), h_setup),
    (HelperEffect("mp_parse_addr"), parse_frame),
    (HelperEffect("mp_process_addr"), h_process_addr),
    (HelperEffect("mp_parse_ack"), parse_frame),
    (HelperEffect("mp_process_ack"), h_process_ack),
    (HelperEffect("mp_write"), write_frame),
    (HelperEffect("mp_reserve_acks"), h_reserve_acks),
    (HelperEffect("mp_map_path"), h_map_path),
    (HelperEffect("mp_requeue"), h_requeue),
), frames=(AddAddressFrame, MpAckFrame))


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


@plugin_builder
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
                            sched_source, helpers=HOST.ids),
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
            helpers=HOST.ids),
        # ADD_ADDRESS frame handling.
        Pluglet.from_source(
            "parse_add_address", "parse_frame", "replace",
            """
def parse_add_address(buf, frame_type):
    return mp_parse_addr(buf)
""",
            helpers=HOST.ids, param=ADD_ADDRESS_FRAME_TYPE),
        Pluglet.from_source(
            "process_add_address", "process_frame", "replace",
            """
def process_add_address(frame, ctx):
    mp_process_addr(frame)
""",
            helpers=HOST.ids, param=ADD_ADDRESS_FRAME_TYPE),
        Pluglet.from_source(
            "write_add_address", "write_frame", "replace",
            """
def write_add_address(frame, buf):
    mp_write(frame, buf)
""",
            helpers=HOST.ids, param=ADD_ADDRESS_FRAME_TYPE),
        Pluglet.from_source(
            "notify_add_address", "notify_frame", "replace",
            """
def notify_add_address(frame, acked, pkt):
    if not acked:
        mp_requeue(frame)
""",
            helpers=HOST.ids, param=ADD_ADDRESS_FRAME_TYPE),
        # MP_ACK frame handling.
        Pluglet.from_source(
            "parse_mp_ack", "parse_frame", "replace",
            """
def parse_mp_ack(buf, frame_type):
    return mp_parse_ack(buf)
""",
            helpers=HOST.ids, param=MP_ACK_FRAME_TYPE),
        Pluglet.from_source(
            "process_mp_ack", "process_frame", "replace",
            f"""
def process_mp_ack(frame, ctx):
    st = get_opaque_data({ST_AREA}, {ST_SIZE})
    mem64[st + {OFF_MPACKS_RCVD}] = mem64[st + {OFF_MPACKS_RCVD}] + 1
    mp_process_ack(frame)
""",
            helpers=HOST.ids, param=MP_ACK_FRAME_TYPE),
        Pluglet.from_source(
            "write_mp_ack", "write_frame", "replace",
            """
def write_mp_ack(frame, buf):
    mp_write(frame, buf)
""",
            helpers=HOST.ids, param=MP_ACK_FRAME_TYPE),
        # Before each packet: book MP_ACKs for paths owing one.
        Pluglet.from_source(
            "mp_ack_booker", "before_sending_packet", "post",
            f"""
def mp_ack_booker():
    st = get_opaque_data({ST_AREA}, {ST_SIZE})
    n = mp_reserve_acks()
    mem64[st + {OFF_MPACKS_SENT}] = mem64[st + {OFF_MPACKS_SENT}] + n
""",
            helpers=HOST.ids),
        # Path-aware demultiplexing of incoming datagrams.
        Pluglet.from_source(
            "map_incoming", "map_incoming_path", "replace",
            """
def map_incoming(local_addr, peer_addr):
    return mp_map_path(local_addr, peer_addr)
""",
            helpers=HOST.ids),
    ]
    return Plugin(PLUGIN_NAME, pluglets)
