"""The FEC framework plugin (§4.4), after QUIC-FEC [69].

"Our plugin sends redundancy (Repair Symbols) to enable PQUIC receivers
to recover lost QUIC packets without waiting for retransmissions."

Two new frame types: the **FEC ID frame** "identifies the packets that are
FEC-protected and their corresponding window", and the **FEC RS frame**
contains a Repair Symbol.  The framework attaches passive pluglets to the
protocol operations that send and receive packets; the protection *mode*
is chosen by swapping a single sender pluglet:

* ``mode='full'``   — protect the whole stream, emitting ``repair``
  symbols every ``WINDOW`` source symbols;
* ``mode='eos'``    — protect only the end of the stream: repair symbols
  are emitted when a FIN is observed.

The erasure-correcting code (XOR or RLC, :mod:`repro.plugins.fec.codes`)
is likewise a parameter; "other erasure-correcting codes could easily be
added by implementing new pluglets."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.api import HelperEffect
from repro.core.plugin import (
    HostBinding,
    Plugin,
    Pluglet,
    name_param,
    plugin_builder,
)
from repro.quic import frames as F
from repro.quic.packet import Epoch
from repro.quic.wire import Buffer

from ..codec import parse_frame, write_frame
from .codes import CODES

PLUGIN_BASE_NAME = "org.pquic.fec"
FEC_ID_FRAME_TYPE = 0x46
FEC_RS_FRAME_TYPE = 0x47

ST_AREA = 4
ST_SIZE = 64
OFF_SINCE_EMIT = 0
OFF_PROTECTED = 8
OFF_WINDOWS_SENT = 16
OFF_RS_RECEIVED = 24
OFF_RECOVERED = 32

ECC_IDS = {"xor": 0, "rlc": 1}
ECC_NAMES = {v: k for k, v in ECC_IDS.items()}

#: Source symbols per encoding window.
WINDOW = 25
#: Repair symbols per window unless the name carries ``repair=<n>``: "5
#: Repair Symbols every 25 Source Symbols"; a XOR window yields a single
#: useful one.
DEFAULT_REPAIR = {"xor": 1, "rlc": 5}


@dataclass
class FecIdFrame(F.Frame):
    """Announces one encoding window: which packets it protects, as
    ``(path_id, pn)`` pairs.  Multipath gives every path its own
    packet-number space; path ids agree on both ends, as in MP_ACK.

    Wire: ``window_id``, then ``count << 1 | paths``, then ``count``
    packet numbers when every one was sent on path 0 (``paths`` = 0, the
    single-path size), else ``count`` ``(path_id, pn)`` pairs."""

    window_id: int = 0
    protected: list = field(default_factory=list)
    type = FEC_ID_FRAME_TYPE

    @property
    def retransmittable(self) -> bool:
        return False

    def serialize(self, buf: Buffer) -> None:
        paths = any(path for path, _pn in self.protected)
        buf.push_varint(self.type)
        buf.push_varint(self.window_id)
        buf.push_varint(len(self.protected) << 1 | paths)
        for path, pn in self.protected:
            if paths:
                buf.push_varint(path)
            buf.push_varint(pn)

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "FecIdFrame":
        window_id = buf.pull_varint()
        header = buf.pull_varint()
        protected = [
            (buf.pull_varint() if header & 1 else 0, buf.pull_varint())
            for _ in range(header >> 1)]
        return cls(window_id=window_id, protected=protected)


#: Repair symbols are larger than one packet's frame budget, so they are
#: carried as fragments and reassembled by the receiver.
RS_FRAGMENT = 600


@dataclass
class FecRepairFrame(F.Frame):
    """One fragment of a Repair Symbol for a window."""

    window_id: int = 0
    ecc: int = 0
    rs_index: int = 0
    seed: int = 0
    total_len: int = 0
    offset: int = 0
    payload: bytes = b""
    type = FEC_RS_FRAME_TYPE

    @property
    def retransmittable(self) -> bool:
        return False

    def serialize(self, buf: Buffer) -> None:
        buf.push_varint(self.type)
        buf.push_varint(self.window_id)
        buf.push_varint(self.ecc)
        buf.push_varint(self.rs_index)
        buf.push_varint(self.seed)
        buf.push_varint(self.total_len)
        buf.push_varint(self.offset)
        buf.push_varint_prefixed_bytes(self.payload)

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "FecRepairFrame":
        return cls(
            window_id=buf.pull_varint(),
            ecc=buf.pull_varint(),
            rs_index=buf.pull_varint(),
            seed=buf.pull_varint(),
            total_len=buf.pull_varint(),
            offset=buf.pull_varint(),
            payload=buf.pull_varint_prefixed_bytes(),
        )


@dataclass
class _RxWindow:
    #: (path_id, pn) of each source symbol, in window order.
    protected: list = field(default_factory=list)
    #: Completed repair symbols: (rs_index, payload, ecc, seed).
    repairs: list = field(default_factory=list)
    #: rs_index -> (buffer, offsets received) while fragments reassemble.
    partial: dict = field(default_factory=dict)
    complete: set = field(default_factory=set)
    recovered: bool = False


#: Received payloads kept for recovery, keyed by (path_id, pn); past
#: this many the oldest half is dropped.
MAX_RX_PAYLOADS = 4096
#: Receive windows kept; past this many the oldest half is dropped.
MAX_RX_WINDOWS = 256


class _FecState:
    """Host-side symbol buffers (the bulky part the PRE delegates)."""

    window = WINDOW

    def __init__(self, repair: int, ecc: str):
        self.repair = repair
        self.ecc = ecc
        self.code = CODES[ecc]
        self.send_symbols: list = []  # (path_id, pn, payload) newest last
        self.window_counter = 0
        self.rx_payloads: dict = {}  # (path_id, pn) -> payload
        self.rx_windows: dict = {}   # window_id -> _RxWindow
        self.recovered_total = 0
        #: Repair fragments refused as malformed (see ``h_process_rs``).
        self.refused_fragments = 0

    def rx_window(self, window_id: int) -> _RxWindow:
        rxw = self.rx_windows.get(window_id)
        if rxw is None:
            rxw = self.rx_windows[window_id] = _RxWindow()
            self.prune()
        return rxw

    def prune(self) -> None:
        if len(self.rx_payloads) > MAX_RX_PAYLOADS:
            oldest = sorted(self.rx_payloads, key=lambda key: (key[1], key[0]))
            for key in oldest[:MAX_RX_PAYLOADS // 2]:
                del self.rx_payloads[key]
        if len(self.rx_windows) > MAX_RX_WINDOWS:
            for wid in sorted(self.rx_windows)[:MAX_RX_WINDOWS // 2]:
                del self.rx_windows[wid]


def _contains_stream_frames(runtime, payload: bytes):
    """(protectable, has_fin) for an outgoing plaintext payload.

    Packets carrying FEC frames themselves are never protected: a
    recovered packet is re-processed through ``process_frame``, and a
    repair fragment inside it would re-enter ``process_frame[FEC_RS]`` —
    the very call-graph loop PQUIC's runtime detection (Fig. 3) kills the
    connection for."""
    try:
        frames = runtime.parse_frames(payload)
    except Exception:
        return False, False
    has_stream = False
    has_fin = False
    for ftype, frame in frames:
        if ftype in (FEC_ID_FRAME_TYPE, FEC_RS_FRAME_TYPE):
            return False, False
        if isinstance(frame, F.StreamFrame):
            has_stream = True
            if frame.fin:
                has_fin = True
    return has_stream, has_fin


def _setup(runtime) -> None:
    """Symbol buffers for the code and repair count the name selects."""
    name = runtime.plugin_name
    ecc = name[len(PLUGIN_BASE_NAME) + 1:].split(".")[0]
    if ecc not in CODES:
        ecc = "rlc"
    runtime.fec_state = _FecState(
        name_param(name, "repair", DEFAULT_REPAIR[ecc]), ecc)


def h_register(runtime, vm, *_):
    """Register the packet being sent; flags: 1 stream, +2 fin."""
    state = runtime.fec_state
    # packet_ready args: (epoch, path_index, pn, plaintext[, result])
    epoch, path, pn, payload = runtime.context.raw_args[:4]
    if epoch is not Epoch.ONE_RTT and epoch != int(Epoch.ONE_RTT):
        return 0
    has_stream, has_fin = _contains_stream_frames(runtime, payload)
    if not has_stream:
        return 0
    state.send_symbols.append((path, pn, payload))
    if len(state.send_symbols) > state.window:
        state.send_symbols = state.send_symbols[-state.window:]
    return 1 | (2 if has_fin else 0)


def h_emit(runtime, vm, *_):
    """Emit FEC_ID + repair symbols over the current window."""
    state = runtime.fec_state
    if not state.send_symbols:
        return 0
    symbols = list(state.send_symbols)
    wid = state.window_counter
    state.window_counter += 1
    payloads = [p for _path, _pn, p in symbols]
    seed = wid & 0x3FFFFFFF
    runtime.reserve(FecIdFrame(window_id=wid, protected=[
        (path, pn) for path, pn, _p in symbols]))
    nrs = min(state.repair, state.code.max_repair)
    for rs_index in range(nrs):
        repair = state.code.encode(payloads, rs_index, seed)
        for offset in range(0, len(repair), RS_FRAGMENT):
            runtime.reserve(FecRepairFrame(
                window_id=wid,
                ecc=ECC_IDS[state.ecc],
                rs_index=rs_index,
                seed=seed,
                total_len=len(repair),
                offset=offset,
                payload=repair[offset:offset + RS_FRAGMENT],
            ))
    return nrs


def h_rx_store(runtime, vm, *_):
    state = runtime.fec_state
    epoch, path, pn, payload = runtime.context.raw_args[:4]
    if epoch is Epoch.ONE_RTT or epoch == int(Epoch.ONE_RTT):
        state.rx_payloads[(path, pn)] = payload
        state.prune()
        return 1
    return 0


def h_process_id(runtime, vm, frame_handle, *_):
    frame = runtime.context.raw_args[frame_handle]
    rxw = runtime.fec_state.rx_window(frame.window_id)
    rxw.protected = list(frame.protected)
    return _try_recover(runtime, frame.window_id)


def h_process_rs(runtime, vm, frame_handle, *_):
    state = runtime.fec_state
    frame = runtime.context.raw_args[frame_handle]
    end = frame.offset + len(frame.payload)
    rxw = state.rx_windows.get(frame.window_id)
    partial = rxw.partial.get(frame.rs_index) if rxw else None
    # The peer sizes the buffer allocated here.  Refuse a symbol longer
    # than any packet of ours (codes.symbol_width), a fragment past its
    # symbol's end or disagreeing with its length, and a repair index
    # past the window: no window uses more repair symbols than it has
    # source symbols.
    max_symbol = runtime.max_payload + 2
    if frame.total_len > max_symbol or end > frame.total_len \
            or frame.rs_index >= state.window \
            or (partial is not None
                and len(partial[0]) != frame.total_len):
        state.refused_fragments += 1
        return 0
    rxw = state.rx_window(frame.window_id)
    key = frame.rs_index
    buf, got = partial or rxw.partial.setdefault(
        key, (bytearray(frame.total_len), set())
    )
    buf[frame.offset:end] = frame.payload
    got.add(frame.offset)
    received = sum(
        min(RS_FRAGMENT, frame.total_len - off) for off in got
    )
    if received >= frame.total_len and key not in rxw.complete:
        rxw.complete.add(key)
        rxw.repairs.append((key, bytes(buf), frame.ecc, frame.seed))
    return _try_recover(runtime, frame.window_id)


def _try_recover(runtime, window_id: int) -> int:
    """Attempt recovery; returns number of packets recovered."""
    state = runtime.fec_state
    rxw = state.rx_windows.get(window_id)
    if rxw is None or rxw.recovered or not rxw.protected:
        return 0
    if not rxw.repairs:
        return 0
    window_payloads = [
        state.rx_payloads.get(key) for key in rxw.protected
    ]
    missing = [
        i for i, p in enumerate(window_payloads) if p is None
    ]
    if not missing or len(missing) > len(rxw.repairs):
        return 0
    rs_index0, _payload0, ecc0, seed0 = rxw.repairs[0]
    rcode = CODES[ECC_NAMES.get(ecc0, "xor")]
    repairs = [(idx, payload) for idx, payload, _e, _s in rxw.repairs]
    solution = rcode.recover(window_payloads, repairs, seed0)
    if solution is None:
        return 0
    rxw.recovered = True
    recovered = 0
    for i in missing:
        path, pn = rxw.protected[i]
        payload = solution[i]
        if payload is None or not runtime.recover(path, pn, payload):
            continue
        state.rx_payloads[(path, pn)] = payload
        recovered += 1
    state.recovered_total += recovered
    return recovered


#: None of the FEC helpers touches the calling pluglet's stack; the
#: per-connection :class:`_FecState` is ``runtime.fec_state``.
HOST = HostBinding(PLUGIN_BASE_NAME, helpers=(
    (HelperEffect("fec_register"), h_register),
    (HelperEffect("fec_emit"), h_emit),
    (HelperEffect("fec_rx_store"), h_rx_store),
    (HelperEffect("fec_parse_id"), parse_frame),
    (HelperEffect("fec_process_id"), h_process_id),
    (HelperEffect("fec_parse_rs"), parse_frame),
    (HelperEffect("fec_process_rs"), h_process_rs),
    (HelperEffect("fec_write"), write_frame),
), frames=(FecIdFrame, FecRepairFrame), setup=_setup)


#: Sender pluglet, full protection: emit every `interval` source symbols.
_SENDER_FULL = """
def fec_sender_full(epoch, path_id, pn):
    if epoch != {one_rtt}:
        return 0
    flags = fec_register()
    if flags == 0:
        return 0
    st = get_opaque_data({st_area}, {st_size})
    mem64[st + {off_protected}] = mem64[st + {off_protected}] + 1
    cnt = mem64[st + {off_since}] + 1
    if cnt >= {interval} or flags & 2 == 2:
        fec_emit()
        mem64[st + {off_windows}] = mem64[st + {off_windows}] + 1
        cnt = 0
    mem64[st + {off_since}] = cnt
    return 0
"""

#: Sender pluglet, end-of-stream protection: only emit at a FIN.
_SENDER_EOS = """
def fec_sender_eos(epoch, path_id, pn):
    if epoch != {one_rtt}:
        return 0
    flags = fec_register()
    if flags == 0:
        return 0
    st = get_opaque_data({st_area}, {st_size})
    mem64[st + {off_protected}] = mem64[st + {off_protected}] + 1
    if flags & 2 == 2:
        fec_emit()
        mem64[st + {off_windows}] = mem64[st + {off_windows}] + 1
    return 0
"""


def plugin_name(ecc: str, mode: str,
                repair: Optional[int] = None) -> str:
    """``org.pquic.fec.<ecc>.<mode>``, plus ``.repair=<n>`` when ``repair``
    is not the code's default."""
    name = f"{PLUGIN_BASE_NAME}.{ecc}.{mode}"
    if repair is not None and repair != DEFAULT_REPAIR[ecc]:
        name += f".repair={repair}"
    return name


@plugin_builder
def build_fec_plugin(
    ecc: str = "rlc",
    mode: str = "full",
    repair: int = DEFAULT_REPAIR["rlc"],
) -> Plugin:
    """Assemble a FEC plugin variant.

    Defaults match the paper's evaluation: "by sending 5 Repair Symbols
    every 25 Source Symbols" (code rate 5/6)."""
    if ecc not in CODES:
        raise ValueError(f"unknown ecc {ecc!r}")
    if mode not in ("full", "eos"):
        raise ValueError(f"unknown mode {mode!r}")
    if ecc == "xor":
        repair = 1  # a XOR window yields a single useful repair symbol

    fmt = dict(
        one_rtt=int(Epoch.ONE_RTT),
        st_area=ST_AREA,
        st_size=ST_SIZE,
        off_protected=OFF_PROTECTED,
        off_since=OFF_SINCE_EMIT,
        off_windows=OFF_WINDOWS_SENT,
        interval=WINDOW,
    )
    sender_src = (_SENDER_FULL if mode == "full" else _SENDER_EOS).format(**fmt)
    sender_name = "fec_sender_full" if mode == "full" else "fec_sender_eos"

    pluglets = [
        Pluglet.from_source(sender_name, "packet_ready", "post",
                            sender_src, helpers=HOST.ids),
        Pluglet.from_source(
            "fec_receiver_store", "packet_received_event", "post",
            """
def fec_receiver_store(epoch, path_id, pn):
    fec_rx_store()
""",
            helpers=HOST.ids),
        Pluglet.from_source(
            "parse_fec_id", "parse_frame", "replace",
            """
def parse_fec_id(buf, frame_type):
    return fec_parse_id(buf)
""",
            helpers=HOST.ids, param=FEC_ID_FRAME_TYPE),
        Pluglet.from_source(
            "process_fec_id", "process_frame", "replace",
            f"""
def process_fec_id(frame, ctx):
    n = fec_process_id(frame)
    if n > 0:
        st = get_opaque_data({ST_AREA}, {ST_SIZE})
        mem64[st + {OFF_RECOVERED}] = mem64[st + {OFF_RECOVERED}] + n
""",
            helpers=HOST.ids, param=FEC_ID_FRAME_TYPE),
        Pluglet.from_source(
            "write_fec_id", "write_frame", "replace",
            """
def write_fec_id(frame, buf):
    fec_write(frame, buf)
""",
            helpers=HOST.ids, param=FEC_ID_FRAME_TYPE),
        Pluglet.from_source(
            "parse_fec_rs", "parse_frame", "replace",
            """
def parse_fec_rs(buf, frame_type):
    return fec_parse_rs(buf)
""",
            helpers=HOST.ids, param=FEC_RS_FRAME_TYPE),
        Pluglet.from_source(
            "process_fec_rs", "process_frame", "replace",
            f"""
def process_fec_rs(frame, ctx):
    st = get_opaque_data({ST_AREA}, {ST_SIZE})
    mem64[st + {OFF_RS_RECEIVED}] = mem64[st + {OFF_RS_RECEIVED}] + 1
    n = fec_process_rs(frame)
    if n > 0:
        mem64[st + {OFF_RECOVERED}] = mem64[st + {OFF_RECOVERED}] + n
""",
            helpers=HOST.ids, param=FEC_RS_FRAME_TYPE),
        Pluglet.from_source(
            "write_fec_rs", "write_frame", "replace",
            """
def write_fec_rs(frame, buf):
    fec_write(frame, buf)
""",
            helpers=HOST.ids, param=FEC_RS_FRAME_TYPE),
        # External introspection op: recovered-packet count for the app.
        Pluglet.from_source(
            "fec_recovered_count", "fec_recovered_count", "external",
            f"""
def fec_recovered_count():
    st = get_opaque_data({ST_AREA}, {ST_SIZE})
    return mem64[st + {OFF_RECOVERED}]
""",
            helpers=HOST.ids),
    ]
    return Plugin(plugin_name(ecc, mode, repair), pluglets,
                  memory_size=32 * 1024)
