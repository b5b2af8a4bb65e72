"""Frame scheduler: class-based queuing + deficit round robin (§2.3).

Two rules from the paper:

1. plugins must not prevent PQUIC from sending application data — while
   payload data is pending, core frames (STREAM, ACK, MAX_DATA, ...) keep a
   guaranteed fraction of the packet budget;
2. no plugin may starve another — the remaining budget is split between
   plugins by deficit round robin.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.quic import frames as F
from repro.quic.packet import Epoch

#: Guaranteed fraction of each packet's budget for core frames while
#: application data is pending ("at least x% of the available congestion
#: window").
CORE_FRACTION = 0.5
#: DRR quantum added to each plugin's deficit per round.
DRR_QUANTUM = 512
#: Bytes of frame header slack assumed when sizing stream chunks.
STREAM_FRAME_OVERHEAD = 12
MIN_PACKET_USEFUL = 64


class ReservedFrame(NamedTuple):
    """A frame slot booked by a plugin via ``reserve_frames`` (§2.3)."""

    frame: F.Frame
    plugin: str
    congestion_controlled: bool = True


class DrrState:
    """Per-connection deficit-round-robin state across plugin queues."""

    def __init__(self) -> None:
        self.deficits: dict[str, int] = {}
        self.order: list[str] = []

    def observe(self, plugin: str) -> None:
        if plugin not in self.deficits:
            self.deficits[plugin] = 0
            self.order.append(plugin)

    def rotate(self) -> None:
        if self.order:
            self.order.append(self.order.pop(0))


def _scheduler_state(conn) -> DrrState:
    state = getattr(conn, "_drr_state", None)
    if state is None:
        state = DrrState()
        conn._drr_state = state
    return state


def schedule_packet_frames(conn, epoch: Epoch, path_index: int, budget: int):
    """Fill one packet. Returns (frames, ack_only).

    This is the default behaviour of the ``schedule_frames`` protoop; a
    plugin could replace it wholesale (e.g. a latency-priority scheduler).
    """
    path = conn.paths[path_index]
    space = conn.initial_space if epoch is Epoch.INITIAL else path.space
    frames: list[F.Frame] = []
    used = 0

    # 1. ACK — not congestion controlled, always fits first.  The
    # reported ack_delay is clamped to our own advertised max_ack_delay
    # (the send-side mirror of the RFC 9002 §5.3 receive clamp).  Its
    # room is kept while the rest is filled: an owed ACK rides on any
    # packet that leaves anyway, and leaves alone only when due (RFC 9000
    # §13.2.1) — an Initial ACK always is; for a path, ``is_ack_needed``
    # decides.
    ack = None
    if space.ack_needed:
        ack = space.ack_frame(
            conn.now, conn.configuration.transport_parameters.max_ack_delay)
        used = ack.encoded_size() if ack is not None else 0
        if used > budget:
            ack, used = None, 0

    # 2. CRYPTO data (handshake) — also exempt from congestion control in
    # this model (Initial packets carry the handshake forward).
    if epoch is Epoch.INITIAL:
        ack_only = True
        if conn._initial_ping:
            conn._initial_ping = False
            frames.append(F.PingFrame())
            used += frames[-1].encoded_size()
            ack_only = False
        while conn._crypto_send.has_pending and used < budget - MIN_PACKET_USEFUL:
            chunk = conn._crypto_send.next_chunk(budget - used - STREAM_FRAME_OVERHEAD)
            if chunk is None:
                break
            offset, data, _fin = chunk
            frame = F.CryptoFrame(offset=offset, data=data)
            frames.append(frame)
            used += frame.encoded_size()
            ack_only = False
    else:
        ack_only = _fill_one_rtt(conn, path, frames, used, budget)
    if ack is not None and (
            frames or epoch is Epoch.INITIAL
            or conn.protoops.run(conn, "is_ack_needed", None, path_index)):
        frames.insert(0, ack)
        space.ack_needed = False
        conn.protoops.run(conn, "ack_frame_built", None, epoch, path_index)
    return frames, ack_only


def _fill_one_rtt(conn, path, frames: list, used: int, budget: int) -> bool:
    """Fill a 1-RTT packet after its ACK.  Returns ack_only: True if no
    ack-eliciting frame was added."""
    ack_only = True

    # Path probe frames (PATH_CHALLENGE / PATH_RESPONSE) are bound to
    # this very path (RFC 9000 §8.2.2) and, like ACKs, exempt from the
    # congestion window (§8.2.4 allows probing outside the send window).
    while path.probe_frames:
        size = path.probe_frames[0].encoded_size()
        if used + size > budget:
            break
        frames.append(path.probe_frames.pop(0))
        used += size
        ack_only = False

    # PTO probe bundle: one bundle per packet (so a PTO expiry yields at
    # most MAX_PTO_PROBES probe packets), exempt from the congestion
    # window per RFC 9002 §7.5 — a blocked window is exactly when the
    # probe is needed.  Frames that overflow the budget stay queued at
    # the bundle head for the next packet.
    if path.pto_probes:
        bundle = path.pto_probes[0]
        while bundle:
            size = bundle[0].encoded_size()
            if used + size > budget:
                break
            frames.append(bundle.pop(0))
            used += size
            ack_only = False
        if not bundle:
            path.pto_probes.pop(0)

    # Non-congestion-controlled plugin frames (e.g. MP_ACK) are exempt
    # from the window, like ACKs.
    for reserved in list(conn.reserved_frames):
        if reserved.congestion_controlled:
            continue
        size = reserved.frame.encoded_size()
        if used + size > budget:
            continue
        conn.reserved_frames.remove(reserved)
        frames.append(reserved.frame)
        used += size

    # 1-RTT: apply the congestion window to everything below.
    allowance = min(budget - used, path.cc.available_window)
    if allowance < MIN_PACKET_USEFUL:
        return ack_only  # possibly empty

    core_pending = conn._op_stream_to_send() is not None or bool(conn._control_frames)
    plugin_pending = bool(conn.reserved_frames)
    if core_pending and plugin_pending:
        core_budget = max(int(allowance * CORE_FRACTION), MIN_PACKET_USEFUL)
        plugin_budget = allowance - core_budget
    elif plugin_pending:
        core_budget = 0
        plugin_budget = allowance
    else:
        core_budget = allowance
        plugin_budget = 0

    # 3. Core control frames (flow control updates, path frames...).
    while core_budget > 0:
        frame = conn.pop_control_frame()
        if frame is None:
            break
        size = frame.encoded_size()
        if size > core_budget:
            conn._control_frames.insert(0, frame)
            break
        frames.append(frame)
        used += size
        core_budget -= size
        ack_only = False

    # 4. Plugin frames by deficit round robin.
    if plugin_budget > 0 and conn.reserved_frames:
        used_plugin, plugin_frames = _drr_fill(conn, plugin_budget)
        frames.extend(plugin_frames)
        used += used_plugin
        if plugin_frames:
            ack_only = False
        # Unused plugin budget flows back to core (work conserving).
        core_budget += plugin_budget - used_plugin

    # 5. Stream data fills what remains of the core budget.
    while core_budget > STREAM_FRAME_OVERHEAD:
        stream_id = conn.protoops.run(conn, "stream_to_send", None)
        if stream_id is None:
            break
        stream = conn.streams_send.get(stream_id)
        if stream is None:
            break  # a replaced stream_to_send named a retired half
        flow_credit = conn.connection_flow_credit()
        chunk_limit = core_budget - STREAM_FRAME_OVERHEAD
        chunk = stream.next_chunk(chunk_limit)
        if chunk is None:
            break
        offset, data, fin = chunk
        end = offset + len(data)
        new_fc = max(0, end - stream.fc_high)
        if new_fc > flow_credit:
            # Respect connection-level flow control: trim or requeue.
            allowed = len(data) - (new_fc - flow_credit)
            if allowed <= 0 and not fin:
                stream.on_loss(offset, len(data), fin)  # requeue untouched
                break
            kept, spill = data[:max(0, allowed)], data[max(0, allowed):]
            if spill:
                stream.on_loss(offset + len(kept), len(spill), fin)
                fin = False
            data = kept
            end = offset + len(data)
            if not data and not fin:
                break
        frame = F.StreamFrame(stream_id=stream_id, offset=offset, data=data, fin=fin)
        encoded = frame.encoded_size()
        frames.append(frame)
        used += encoded
        core_budget -= encoded
        conn.data_sent += max(0, end - stream.fc_high)
        stream.fc_high = max(stream.fc_high, end)
        ack_only = False
        if not data and fin:
            break

    return ack_only


def _drr_fill(conn, budget: int):
    """Pick plugin-reserved frames fairly within ``budget`` bytes."""
    state = _scheduler_state(conn)
    queues: dict[str, list] = {}
    for reserved in conn.reserved_frames:
        state.observe(reserved.plugin)
        queues.setdefault(reserved.plugin, []).append(reserved)
    used = 0
    picked: list[F.Frame] = []
    taken: list = []
    progress = True
    while progress and used < budget:
        progress = False
        for plugin in list(state.order):
            queue = queues.get(plugin)
            if not queue:
                continue
            state.deficits[plugin] += DRR_QUANTUM
            while queue and used < budget:
                reserved = queue[0]
                size = reserved.frame.encoded_size()
                if size > state.deficits[plugin] or used + size > budget:
                    break
                queue.pop(0)
                taken.append(reserved)
                picked.append(reserved.frame)
                state.deficits[plugin] -= size
                used += size
                progress = True
            if not queue:
                state.deficits[plugin] = 0
    for reserved in taken:
        conn.reserved_frames.remove(reserved)
    state.rotate()
    return used, picked
