"""Property-based RFC 9002 invariants for the recovery core.

A seeded loss/reorder/delay schedule is driven through
:class:`PacketNumberSpace` and the invariants of RFC 9002 are asserted
after every step:

* no packet is simultaneously acknowledged and lost (a late ACK of a
  declared-lost packet moves it from lost to spurious, never to both);
* ``persistent_congestion`` only reports true when the lost run actually
  spans the §7.6 duration;
* a PTO expiry yields at most two probe candidates;
* the send-side ledger is conserved: every packet ever sent is exactly
  one of in-flight, acked, or lost.

The whole property is repeated under ``REPRO_JIT`` 1 and 0: the recovery
arithmetic is pure Python and must be bit-identical regardless of how
the plugin runtime executes.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quic.frames import AckFrame
from repro.quic.recovery import (
    MAX_PTO_PROBES,
    PacketNumberSpace,
    RttEstimator,
    SentPacket,
)
from repro.quic.wire import RangeSet


#: One packet's fate: (delivered, one-way delay in ms).
fates = st.tuples(st.booleans(), st.integers(min_value=1, max_value=400))

schedules = st.lists(fates, min_size=2, max_size=40)


def _run_schedule(schedule):
    """Send one packet per schedule entry, then deliver cumulative ACKs
    in arrival order; yields (space, result, now) after every ACK."""
    space = PacketNumberSpace()
    rtt = RttEstimator()
    send_gap = 0.01
    arrivals = []  # (ack_arrival_time, pn)
    for pn, (delivered, delay_ms) in enumerate(schedule):
        t = pn * send_gap
        space.on_packet_sent(SentPacket(
            packet_number=pn, sent_time=t, size=1200,
            ack_eliciting=True, in_flight=True))
        if delivered:
            arrivals.append((t + delay_ms / 1000.0, pn))
    arrivals.sort()
    seen = RangeSet()
    for when, pn in arrivals:
        seen.add(pn)
        ack = AckFrame(ranges=RangeSet(list(seen)), ack_delay=0.0)
        result = space.on_ack_received(ack, now=when, rtt=rtt)
        yield space, result, when


@pytest.mark.parametrize("jit", ["1", "0"])
@given(schedule=schedules)
@settings(max_examples=25, deadline=None)
def test_rfc9002_invariants(jit, schedule):
    jit_before = os.environ.get("REPRO_JIT")
    os.environ["REPRO_JIT"] = jit
    try:
        acked: set = set()
        lost: set = set()
        n_sent = len(schedule)
        for space, result, now in _run_schedule(schedule):
            for pkt in result.newly_acked:
                acked.add(pkt.packet_number)
            for pkt in result.lost:
                lost.add(pkt.packet_number)
            for pkt in result.spurious:
                # A spurious loss moves lost -> acked; it must have been
                # declared lost before, and is never in newly_acked too.
                assert pkt.packet_number in lost
                lost.discard(pkt.packet_number)
                acked.add(pkt.packet_number)
            # No packet both acked and lost.
            assert not (acked & lost)
            # Conservation: sent == in_flight + acked + lost.
            assert n_sent == len(space.sent) + len(acked) + len(lost)
            # The maintained count is the scan it replaced.
            assert space.ack_eliciting_in_flight == sum(
                1 for p in space.sent.values() if p.ack_eliciting)
            # Probe count per PTO expiry is bounded.
            assert len(space.probe_candidates()) <= MAX_PTO_PROBES
            # Persistent congestion needs a duration-spanning run.
            duration = 3 * RttEstimator().pto()
            if result.lost and space.persistent_congestion(
                    result.lost, duration):
                times = [p.sent_time for p in result.lost if p.ack_eliciting]
                assert max(times) - min(times) > duration
    finally:
        if jit_before is None:
            del os.environ["REPRO_JIT"]
        else:
            os.environ["REPRO_JIT"] = jit_before


@given(schedule=schedules)
@settings(max_examples=50, deadline=None)
def test_pto_deadline_advances_on_forward_progress(schedule):
    """The PTO deadline re-arms from the newest ack-eliciting send, and
    disappears entirely once nothing ack-eliciting is in flight."""
    space = PacketNumberSpace()
    rtt = RttEstimator()
    for pn, (_, _) in enumerate(schedule):
        space.on_packet_sent(SentPacket(
            packet_number=pn, sent_time=pn * 0.01, size=1200,
            ack_eliciting=True, in_flight=True))
    d0 = space.pto_deadline(rtt, 0)
    assert d0 is not None
    # Acking everything clears the deadline (no timer without flight).
    ack = AckFrame(ranges=RangeSet([range(0, len(schedule))]), ack_delay=0.0)
    space.on_ack_received(ack, now=1000.0, rtt=rtt)
    assert space.pto_deadline(rtt, 0) is None
    # And backoff growth is monotone in pto_count.
    space.on_packet_sent(SentPacket(
        packet_number=len(schedule), sent_time=1000.0, size=1200,
        ack_eliciting=True, in_flight=True))
    assert space.pto_deadline(rtt, 1) > space.pto_deadline(rtt, 0)
