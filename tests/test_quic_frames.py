"""Frame codec tests: roundtrips, registry behaviour, edge cases."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.quic import frames as F
from repro.quic.errors import FrameEncodingError
from repro.quic.wire import Buffer, RangeSet


def roundtrip(frame):
    registry = F.FrameRegistry()
    data = frame.to_bytes()
    frame_type, parsed = registry.parse_one(Buffer(data))
    return frame_type, parsed


class TestRoundtrips:
    def test_ping(self):
        t, parsed = roundtrip(F.PingFrame())
        assert t == F.PING
        assert isinstance(parsed, F.PingFrame)

    def test_ack_single_range(self):
        ranges = RangeSet([range(0, 11)])
        t, parsed = roundtrip(F.AckFrame(ranges=ranges, ack_delay=0.001))
        assert t == F.ACK
        assert parsed.ranges == ranges
        assert parsed.ack_delay == pytest.approx(0.001)

    def test_ack_multiple_ranges(self):
        ranges = RangeSet([range(0, 3), range(7, 9), range(20, 21)])
        _, parsed = roundtrip(F.AckFrame(ranges=ranges))
        assert parsed.ranges == ranges

    def test_ack_empty_rejected(self):
        with pytest.raises(FrameEncodingError):
            F.AckFrame(ranges=RangeSet()).to_bytes()

    def test_crypto(self):
        _, parsed = roundtrip(F.CryptoFrame(offset=100, data=b"tls bytes"))
        assert parsed.offset == 100
        assert parsed.data == b"tls bytes"

    def test_stream_all_flag_combinations(self):
        for offset in (0, 1234):
            for fin in (False, True):
                frame = F.StreamFrame(stream_id=4, offset=offset,
                                      data=b"abc", fin=fin)
                _, parsed = roundtrip(frame)
                assert parsed.stream_id == 4
                assert parsed.offset == offset
                assert parsed.data == b"abc"
                assert parsed.fin == fin

    def test_stream_empty_fin(self):
        _, parsed = roundtrip(F.StreamFrame(stream_id=0, offset=10, data=b"", fin=True))
        assert parsed.data == b""
        assert parsed.fin

    def test_max_data(self):
        _, parsed = roundtrip(F.MaxDataFrame(maximum=1 << 20))
        assert parsed.maximum == 1 << 20

    def test_max_stream_data(self):
        _, parsed = roundtrip(F.MaxStreamDataFrame(stream_id=8, maximum=999))
        assert (parsed.stream_id, parsed.maximum) == (8, 999)

    def test_reset_stream(self):
        _, parsed = roundtrip(F.ResetStreamFrame(stream_id=4, error_code=7, final_size=100))
        assert (parsed.stream_id, parsed.error_code, parsed.final_size) == (4, 7, 100)

    def test_connection_close(self):
        _, parsed = roundtrip(F.ConnectionCloseFrame(error_code=0x0A, reason="bye"))
        assert parsed.error_code == 0x0A
        assert parsed.reason == "bye"

    def test_path_challenge_response(self):
        _, c = roundtrip(F.PathChallengeFrame(data=b"12345678"))
        assert c.data == b"12345678"
        _, r = roundtrip(F.PathResponseFrame(data=b"abcdefgh"))
        assert r.data == b"abcdefgh"

    def test_new_connection_id(self):
        _, parsed = roundtrip(F.NewConnectionIdFrame(sequence=3, connection_id=b"\x01" * 8))
        assert parsed.sequence == 3
        assert parsed.connection_id == b"\x01" * 8

    def test_padding_run(self):
        buf = Buffer(b"\x00" * 7 + F.PingFrame().to_bytes())
        registry = F.FrameRegistry()
        t, pad = registry.parse_one(buf)
        assert t == F.PADDING
        assert pad.length == 7
        t2, _ = registry.parse_one(buf)
        assert t2 == F.PING

    @pytest.mark.parametrize("backing", [bytes, memoryview])
    @pytest.mark.parametrize("tail", [b"", b"\x01", b"\x01\x00\x00"])
    def test_padding_run_ends_at_nonzero_byte_or_eof(self, backing, tail):
        """The run is measured in one scan over the backing, zero-copy for
        a received datagram: same length and read position either way."""
        buf = Buffer(backing(b"\xff" + b"\x00" * 1100 + tail))
        buf.seek(1)
        t, pad = F.FrameRegistry().parse_one(buf)
        assert (t, pad.length) == (F.PADDING, 1100)
        assert buf.position == 1101
        assert buf.eof() == (not tail)


class TestAckElicitation:
    def test_non_eliciting_types(self):
        assert not F.AckFrame(ranges=RangeSet([range(0, 1)])).ack_eliciting
        assert not F.PaddingFrame().ack_eliciting
        assert not F.ConnectionCloseFrame(error_code=0).ack_eliciting

    def test_eliciting_types(self):
        assert F.PingFrame().ack_eliciting
        assert F.StreamFrame(stream_id=0, data=b"x").ack_eliciting
        assert F.MaxDataFrame(maximum=1).ack_eliciting

    def test_retransmittable_defaults_to_eliciting(self):
        assert F.StreamFrame(stream_id=0, data=b"x").retransmittable
        assert not F.PaddingFrame().retransmittable


class TestRegistry:
    def test_unknown_frame_type_raises(self):
        registry = F.FrameRegistry()
        with pytest.raises(FrameEncodingError):
            registry.parse_one(Buffer(bytes([0x3F])))

    def test_register_extension_frame(self):
        class NoopFrame(F.Frame):
            type = 0x3F

            def serialize(self, buf):
                buf.push_varint(self.type)

            @classmethod
            def parse(cls, buf, frame_type):
                return cls()

        registry = F.FrameRegistry()
        registry.register(0x3F, NoopFrame)
        t, parsed = registry.parse_one(Buffer(bytes([0x3F])))
        assert t == 0x3F
        assert isinstance(parsed, NoopFrame)
        registry.unregister(0x3F)
        assert not registry.known(0x3F)

    def test_parse_all_multiple_frames(self):
        payload = (
            F.PingFrame().to_bytes()
            + F.MaxDataFrame(maximum=5).to_bytes()
            + F.StreamFrame(stream_id=0, data=b"hi", fin=True).to_bytes()
        )
        parsed = F.FrameRegistry().parse_all(payload)
        assert [t for t, _ in parsed] == [F.PING, F.MAX_DATA, 0x0B]


@given(
    st.lists(
        st.tuples(st.integers(0, 10_000), st.integers(1, 50)),
        min_size=1, max_size=20,
    ),
    st.floats(min_value=0, max_value=1.0),
)
def test_ack_roundtrip_property(spans, delay):
    ranges = RangeSet()
    for start, length in spans:
        ranges.add(start, start + length)
    _, parsed = roundtrip(F.AckFrame(ranges=ranges, ack_delay=delay))
    assert parsed.ranges == ranges
    assert parsed.ack_delay == pytest.approx(delay, abs=1e-5)


@given(st.integers(0, 1000), st.integers(0, 100_000), st.binary(max_size=500),
       st.booleans())
def test_stream_roundtrip_property(stream_id, offset, data, fin):
    frame = F.StreamFrame(stream_id=stream_id * 4, offset=offset, data=data, fin=fin)
    _, parsed = roundtrip(frame)
    assert parsed.stream_id == stream_id * 4
    assert parsed.offset == offset
    assert parsed.data == data
    assert parsed.fin == fin


#: Values on both sides of every varint width boundary.
varint_edges = st.one_of(
    st.integers(0, (1 << 62) - 1),
    st.sampled_from([0, 63, 64, 16383, 16384, (1 << 30) - 1, 1 << 30,
                     (1 << 62) - 1]),
)


@given(varint_edges, varint_edges,
       st.one_of(st.integers(0, 2000), st.sampled_from([63, 64, 16383, 16384])),
       st.booleans())
def test_stream_encoded_size_matches_serialization(stream_id, offset, length, fin):
    """The scheduler sizes STREAM frames without serialising them;
    offset 0 omits the offset field."""
    frame = F.StreamFrame(stream_id=stream_id, offset=offset,
                          data=b"d" * length, fin=fin)
    assert frame.encoded_size() == len(frame.to_bytes())


#: ACK range layouts: (first packet number, [(range length, gap to the
#: next range)...]) with lengths and gaps on every varint width.
ack_spans = st.one_of(
    st.integers(1, 70),
    st.sampled_from([1, 63, 64, 65, 16383, 16384, 16385, 1 << 30]),
)
ack_layouts = st.tuples(
    varint_edges.filter(lambda v: v < 1 << 40),
    st.lists(st.tuples(ack_spans, ack_spans), min_size=1, max_size=40),
)
ack_delays = st.one_of(
    st.floats(0, 16.0, allow_nan=False),
    st.sampled_from([0.0, 63e-6, 64e-6, 0.016383, 0.016384, 0.025]),
)


def ack_ranges(layout) -> RangeSet:
    start, spans = layout
    ranges = RangeSet()
    for length, gap in spans:
        ranges.add(start, start + length)
        start += length + gap
    return ranges


@given(ack_layouts, ack_delays)
def test_ack_encoded_size_matches_serialization(layout, ack_delay):
    """The scheduler sizes ACK frames without serialising them: largest,
    delay, range count, first range, gaps and lengths each take their
    own varint width."""
    frame = F.AckFrame(ranges=ack_ranges(layout), ack_delay=ack_delay)
    assert frame.encoded_size() == len(frame.to_bytes())


def test_ack_encoded_size_rejects_what_serialize_rejects():
    with pytest.raises(FrameEncodingError):
        F.AckFrame(ranges=RangeSet()).encoded_size()
    with pytest.raises(FrameEncodingError):
        F.AckFrame(ranges=RangeSet()).to_bytes()


def test_unsized_frames_are_measured_by_serialising():
    """Frames without their own arithmetic fall back to a scratch
    serialisation; the answer is the same."""
    for frame in (F.PingFrame(), F.MaxDataFrame(maximum=1 << 20),
                  F.PathChallengeFrame(data=b"12345678"),
                  F.CryptoFrame(offset=70, data=b"c" * 300),
                  F.ConnectionCloseFrame(error_code=7, reason="why")):
        assert frame.encoded_size() == len(frame.to_bytes())
