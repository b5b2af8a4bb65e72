"""The FEC framework plugin (§4.4), after QUIC-FEC [69].

"Our plugin sends redundancy (Repair Symbols) to enable PQUIC receivers
to recover lost QUIC packets without waiting for retransmissions."

Two new frame types: the **FEC ID frame** "identifies the packets that are
FEC-protected and their corresponding window", and the **FEC RS frame**
contains a Repair Symbol.  The framework attaches passive pluglets to the
protocol operations that send and receive packets; the protection *mode*
is chosen by swapping a single sender pluglet:

* ``mode='full'``   — protect the whole stream, emitting ``repair``
  symbols every ``window`` source symbols;
* ``mode='eos'``    — protect only the end of the stream: repair symbols
  are emitted when a FIN is observed.

The erasure-correcting code (XOR or RLC, :mod:`repro.plugins.fec.codes`)
is likewise a parameter; "other erasure-correcting codes could easily be
added by implementing new pluglets."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.api import H_PLUGIN_BASE, HelperEffect
from repro.core.plugin import Plugin, Pluglet
from repro.quic import frames as F
from repro.quic.connection import ReservedFrame
from repro.quic.packet import Epoch
from repro.quic.wire import Buffer

from .codes import CODES

PLUGIN_BASE_NAME = "org.pquic.fec"
FEC_ID_FRAME_TYPE = 0x46
FEC_RS_FRAME_TYPE = 0x47

H_FEC_REGISTER = H_PLUGIN_BASE + 0
H_FEC_EMIT = H_PLUGIN_BASE + 1
H_FEC_RX_STORE = H_PLUGIN_BASE + 2
H_FEC_PARSE_ID = H_PLUGIN_BASE + 3
H_FEC_PROCESS_ID = H_PLUGIN_BASE + 4
H_FEC_PARSE_RS = H_PLUGIN_BASE + 5
H_FEC_PROCESS_RS = H_PLUGIN_BASE + 6
H_FEC_WRITE = H_PLUGIN_BASE + 7

FEC_HELPERS = {
    "fec_register": H_FEC_REGISTER,
    "fec_emit": H_FEC_EMIT,
    "fec_rx_store": H_FEC_RX_STORE,
    "fec_parse_id": H_FEC_PARSE_ID,
    "fec_process_id": H_FEC_PROCESS_ID,
    "fec_parse_rs": H_FEC_PARSE_RS,
    "fec_process_rs": H_FEC_PROCESS_RS,
    "fec_write": H_FEC_WRITE,
}

#: Declared for the JIT: none of them touches the calling pluglet's stack.
FEC_HELPER_EFFECTS = {
    hid: HelperEffect(name) for name, hid in FEC_HELPERS.items()}

ST_AREA = 4
ST_SIZE = 64
OFF_SINCE_EMIT = 0
OFF_PROTECTED = 8
OFF_WINDOWS_SENT = 16
OFF_RS_RECEIVED = 24
OFF_RECOVERED = 32

ECC_IDS = {"xor": 0, "rlc": 1}
ECC_NAMES = {v: k for k, v in ECC_IDS.items()}


@dataclass
class FecIdFrame(F.Frame):
    """Announces one encoding window: which packets it protects."""

    window_id: int = 0
    protected_pns: list = field(default_factory=list)
    type = FEC_ID_FRAME_TYPE

    @property
    def retransmittable(self) -> bool:
        return False

    def serialize(self, buf: Buffer) -> None:
        buf.push_varint(self.type)
        buf.push_varint(self.window_id)
        buf.push_varint(len(self.protected_pns))
        for pn in self.protected_pns:
            buf.push_varint(pn)

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "FecIdFrame":
        window_id = buf.pull_varint()
        pns = [buf.pull_varint() for _ in range(buf.pull_varint())]
        return cls(window_id=window_id, protected_pns=pns)


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
    protected_pns: list = field(default_factory=list)
    #: Completed repair symbols: (rs_index, payload, ecc, seed).
    repairs: list = field(default_factory=list)
    #: rs_index -> (buffer, offsets received) while fragments reassemble.
    partial: dict = field(default_factory=dict)
    complete: set = field(default_factory=set)
    recovered: bool = False


class _FecState:
    """Host-side symbol buffers (the bulky part the PRE delegates)."""

    def __init__(self, window: int, repair: int, ecc: str):
        self.window = window
        self.repair = repair
        self.ecc = ecc
        self.send_symbols: list = []  # (pn, payload) newest last
        self.window_counter = 0
        self.rx_payloads: dict = {}  # pn -> payload (recent packets)
        self.rx_windows: dict = {}   # window_id -> _RxWindow
        self.recovered_total = 0

    def prune(self) -> None:
        if len(self.rx_payloads) > 4096:
            for pn in sorted(self.rx_payloads)[:2048]:
                del self.rx_payloads[pn]
        if len(self.rx_windows) > 256:
            for wid in sorted(self.rx_windows)[:128]:
                del self.rx_windows[wid]


def _contains_stream_frames(conn, payload: bytes):
    """(protectable, has_fin) for an outgoing plaintext payload.

    Packets carrying FEC frames themselves are never protected: a
    recovered packet is re-processed through ``process_frame``, and a
    repair fragment inside it would re-enter ``process_frame[FEC_RS]`` —
    the very call-graph loop PQUIC's runtime detection (Fig. 3) kills the
    connection for."""
    try:
        frames = conn.frame_registry.parse_all(payload)
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


def _host_helpers_factory(window: int, repair: int, ecc: str):
    def make(runtime) -> dict:
        state = _FecState(window, repair, ecc)
        runtime.fec_state = state  # introspectable in tests
        conn = runtime.conn
        code = CODES[ecc]

        def h_register(vm, *_):
            """Register the packet being sent; flags: 1 stream, +2 fin."""
            ctx = runtime.context
            # packet_ready args: (epoch, path_index, pn, plaintext[, result])
            epoch, _path, pn, payload = ctx.raw_args[:4]
            if epoch is not Epoch.ONE_RTT and epoch != int(Epoch.ONE_RTT):
                return 0
            has_stream, has_fin = _contains_stream_frames(runtime.conn, payload)
            if not has_stream:
                return 0
            state.send_symbols.append((pn, payload))
            if len(state.send_symbols) > state.window:
                state.send_symbols = state.send_symbols[-state.window:]
            return 1 | (2 if has_fin else 0)

        def h_emit(vm, *_):
            """Emit FEC_ID + repair symbols over the current window."""
            if not state.send_symbols:
                return 0
            symbols = list(state.send_symbols)
            wid = state.window_counter
            state.window_counter += 1
            pns = [pn for pn, _p in symbols]
            payloads = [p for _pn, p in symbols]
            seed = wid & 0x3FFFFFFF
            frames = [FecIdFrame(window_id=wid, protected_pns=pns)]
            nrs = min(state.repair, code.max_repair)
            for rs_index in range(nrs):
                repair = code.encode(payloads, rs_index, seed)
                for offset in range(0, len(repair), RS_FRAGMENT):
                    frames.append(FecRepairFrame(
                        window_id=wid,
                        ecc=ECC_IDS[state.ecc],
                        rs_index=rs_index,
                        seed=seed,
                        total_len=len(repair),
                        offset=offset,
                        payload=repair[offset:offset + RS_FRAGMENT],
                    ))
            conn = runtime.conn
            conn.reserve_frames([
                ReservedFrame(frame=f, plugin=runtime.plugin_name,
                              retransmittable=False,
                              congestion_controlled=True)
                for f in frames
            ])
            return nrs

        def h_rx_store(vm, *_):
            ctx = runtime.context
            epoch, path, pn, payload = ctx.raw_args[:4]
            if epoch is Epoch.ONE_RTT or epoch == int(Epoch.ONE_RTT):
                state.rx_payloads[pn] = payload
                state.prune()
                return 1
            return 0

        def h_parse_id(vm, buf_handle, *_):
            frame = FecIdFrame.parse(
                runtime.context.raw_args[buf_handle], FEC_ID_FRAME_TYPE
            )
            runtime.set_result(frame)
            return frame.window_id

        def h_process_id(vm, frame_handle, *_):
            frame = runtime.context.raw_args[frame_handle]
            rxw = state.rx_windows.setdefault(frame.window_id, _RxWindow())
            rxw.protected_pns = list(frame.protected_pns)
            return _try_recover(frame.window_id)

        def h_parse_rs(vm, buf_handle, *_):
            frame = FecRepairFrame.parse(
                runtime.context.raw_args[buf_handle], FEC_RS_FRAME_TYPE
            )
            runtime.set_result(frame)
            return frame.window_id

        def h_process_rs(vm, frame_handle, *_):
            frame = runtime.context.raw_args[frame_handle]
            rxw = state.rx_windows.setdefault(frame.window_id, _RxWindow())
            key = frame.rs_index
            buf, got = rxw.partial.setdefault(
                key, (bytearray(frame.total_len), set())
            )
            buf[frame.offset:frame.offset + len(frame.payload)] = frame.payload
            got.add(frame.offset)
            received = sum(
                min(RS_FRAGMENT, frame.total_len - off) for off in got
            )
            if received >= frame.total_len and key not in rxw.complete:
                rxw.complete.add(key)
                rxw.repairs.append((key, bytes(buf), frame.ecc, frame.seed))
            return _try_recover(frame.window_id)

        def _try_recover(window_id: int) -> int:
            """Attempt recovery; returns number of packets recovered."""
            rxw = state.rx_windows.get(window_id)
            if rxw is None or rxw.recovered or not rxw.protected_pns:
                return 0
            if not rxw.repairs:
                return 0
            conn = runtime.conn
            space = conn.paths[0].space
            window_payloads = [
                state.rx_payloads.get(pn) for pn in rxw.protected_pns
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
                pn = rxw.protected_pns[i]
                payload = solution[i]
                if payload is None or pn in space.received:
                    continue
                conn.protoops.run(
                    conn, "process_recovered_payload", None, 0, pn, payload
                )
                state.rx_payloads[pn] = payload
                recovered += 1
            state.recovered_total += recovered
            return recovered

        def h_write(vm, frame_handle, buf_handle, *_):
            ctx = runtime.context
            ctx.raw_args[frame_handle].serialize(ctx.raw_args[buf_handle])
            return 0

        return {
            H_FEC_REGISTER: h_register,
            H_FEC_EMIT: h_emit,
            H_FEC_RX_STORE: h_rx_store,
            H_FEC_PARSE_ID: h_parse_id,
            H_FEC_PROCESS_ID: h_process_id,
            H_FEC_PARSE_RS: h_parse_rs,
            H_FEC_PROCESS_RS: h_process_rs,
            H_FEC_WRITE: h_write,
        }

    return make


def _register_frames(conn) -> None:
    conn.frame_registry.register(FEC_ID_FRAME_TYPE, FecIdFrame)
    conn.frame_registry.register(FEC_RS_FRAME_TYPE, FecRepairFrame)


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


from repro.core.plugin import register_host_resolver


def _resolve_fec_hooks(name: str):
    parts = name[len(PLUGIN_BASE_NAME) + 1:].split(".")
    ecc = parts[0] if parts and parts[0] in CODES else "rlc"
    repair = 1 if ecc == "xor" else 5
    return (_host_helpers_factory(25, repair, ecc), _register_frames,
            FEC_HELPER_EFFECTS)


register_host_resolver(PLUGIN_BASE_NAME, _resolve_fec_hooks)


def plugin_name(ecc: str, mode: str) -> str:
    return f"{PLUGIN_BASE_NAME}.{ecc}.{mode}"


def build_fec_plugin(
    ecc: str = "rlc",
    mode: str = "full",
    window: int = 25,
    repair: int = 5,
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
        interval=window,
    )
    sender_src = (_SENDER_FULL if mode == "full" else _SENDER_EOS).format(**fmt)
    sender_name = "fec_sender_full" if mode == "full" else "fec_sender_eos"

    pluglets = [
        Pluglet.from_source(sender_name, "packet_ready", "post",
                            sender_src, helpers=FEC_HELPERS),
        Pluglet.from_source(
            "fec_receiver_store", "packet_received_event", "post",
            """
def fec_receiver_store(epoch, path_id, pn):
    fec_rx_store()
""",
            helpers=FEC_HELPERS),
        Pluglet.from_source(
            "parse_fec_id", "parse_frame", "replace",
            """
def parse_fec_id(buf, frame_type):
    return fec_parse_id(buf)
""",
            helpers=FEC_HELPERS, param=FEC_ID_FRAME_TYPE),
        Pluglet.from_source(
            "process_fec_id", "process_frame", "replace",
            f"""
def process_fec_id(frame, ctx):
    n = fec_process_id(frame)
    if n > 0:
        st = get_opaque_data({ST_AREA}, {ST_SIZE})
        mem64[st + {OFF_RECOVERED}] = mem64[st + {OFF_RECOVERED}] + n
""",
            helpers=FEC_HELPERS, param=FEC_ID_FRAME_TYPE),
        Pluglet.from_source(
            "write_fec_id", "write_frame", "replace",
            """
def write_fec_id(frame, buf):
    fec_write(frame, buf)
""",
            helpers=FEC_HELPERS, param=FEC_ID_FRAME_TYPE),
        Pluglet.from_source(
            "parse_fec_rs", "parse_frame", "replace",
            """
def parse_fec_rs(buf, frame_type):
    return fec_parse_rs(buf)
""",
            helpers=FEC_HELPERS, param=FEC_RS_FRAME_TYPE),
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
            helpers=FEC_HELPERS, param=FEC_RS_FRAME_TYPE),
        Pluglet.from_source(
            "write_fec_rs", "write_frame", "replace",
            """
def write_fec_rs(frame, buf):
    fec_write(frame, buf)
""",
            helpers=FEC_HELPERS, param=FEC_RS_FRAME_TYPE),
        # External introspection op: recovered-packet count for the app.
        Pluglet.from_source(
            "fec_recovered_count", "fec_recovered_count", "external",
            f"""
def fec_recovered_count():
    st = get_opaque_data({ST_AREA}, {ST_SIZE})
    return mem64[st + {OFF_RECOVERED}]
""",
            helpers=FEC_HELPERS),
    ]
    return Plugin(
        plugin_name(ecc, mode),
        pluglets,
        host_helpers=_host_helpers_factory(window, repair, ecc),
        helper_effects=FEC_HELPER_EFFECTS,
        frame_registrar=_register_frames,
        memory_size=32 * 1024,
    )
