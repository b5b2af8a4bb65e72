"""Unit and property tests for varints, Buffer and RangeSet."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrameEncodingError
from repro.quic.wire import (
    VARINT_MAX,
    Buffer,
    RangeSet,
    decode_varint,
    encode_varint,
    varint_size,
)


class TestVarint:
    @pytest.mark.parametrize(
        "value,size",
        [(0, 1), (63, 1), (64, 2), (16383, 2), (16384, 4), ((1 << 30) - 1, 4),
         (1 << 30, 8), (VARINT_MAX, 8)],
    )
    def test_sizes(self, value, size):
        assert varint_size(value) == size
        assert len(encode_varint(value)) == size

    def test_known_encodings(self):
        # RFC 9000 A.1 examples.
        assert encode_varint(151288809941952652) == bytes.fromhex("c2197c5eff14e88c")
        assert encode_varint(494878333) == bytes.fromhex("9d7f3e7d")
        assert encode_varint(15293) == bytes.fromhex("7bbd")
        assert encode_varint(37) == bytes.fromhex("25")

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            encode_varint(-1)
        with pytest.raises(ValueError):
            encode_varint(VARINT_MAX + 1)

    def test_truncated_decode(self):
        with pytest.raises(FrameEncodingError):
            decode_varint(b"")
        with pytest.raises(FrameEncodingError):
            decode_varint(bytes([0xC0]))  # 8-byte varint, only 1 byte

    @given(st.integers(min_value=0, max_value=VARINT_MAX))
    def test_roundtrip(self, value):
        data = encode_varint(value)
        decoded, offset = decode_varint(data)
        assert decoded == value
        assert offset == len(data)


class TestBuffer:
    def test_push_pull_roundtrip(self):
        buf = Buffer()
        buf.push_uint8(0xAB)
        buf.push_uint16(0x1234)
        buf.push_uint32(0xDEADBEEF)
        buf.push_uint64(1 << 40)
        buf.push_varint(12345)
        buf.push_varint_prefixed_bytes(b"hello")
        rd = Buffer(buf.data())
        assert rd.pull_uint8() == 0xAB
        assert rd.pull_uint16() == 0x1234
        assert rd.pull_uint32() == 0xDEADBEEF
        assert rd.pull_uint64() == 1 << 40
        assert rd.pull_varint() == 12345
        assert rd.pull_varint_prefixed_bytes() == b"hello"
        assert rd.eof()

    def test_read_past_end(self):
        rd = Buffer(b"ab")
        with pytest.raises(FrameEncodingError):
            rd.pull_bytes(3)

    def test_capacity_enforced(self):
        buf = Buffer(capacity=4)
        buf.push_bytes(b"1234")
        with pytest.raises(FrameEncodingError):
            buf.push_uint8(5)

    def test_seek(self):
        rd = Buffer(b"abcdef")
        rd.pull_bytes(4)
        rd.seek(1)
        assert rd.pull_bytes(2) == b"bc"
        with pytest.raises(FrameEncodingError):
            rd.seek(100)


class TestRangeSet:
    def test_add_and_coalesce(self):
        rs = RangeSet()
        rs.add(0, 5)
        rs.add(5, 10)
        assert list(rs) == [range(0, 10)]

    def test_disjoint_ranges_kept_sorted(self):
        rs = RangeSet()
        rs.add(10, 20)
        rs.add(0, 5)
        rs.add(30)
        assert list(rs) == [range(0, 5), range(10, 20), range(30, 31)]

    def test_overlapping_merge(self):
        rs = RangeSet()
        rs.add(0, 10)
        rs.add(20, 30)
        rs.add(5, 25)
        assert list(rs) == [range(0, 30)]

    def test_single_value_add(self):
        rs = RangeSet()
        rs.add(7)
        assert 7 in rs
        assert 6 not in rs
        assert 8 not in rs

    def test_empty_range_rejected(self):
        rs = RangeSet()
        with pytest.raises(ValueError):
            rs.add(5, 5)

    def test_subtract_splits(self):
        rs = RangeSet([range(0, 10)])
        rs.subtract(3, 6)
        assert list(rs) == [range(0, 3), range(6, 10)]

    def test_subtract_noop_outside(self):
        rs = RangeSet([range(0, 10)])
        rs.subtract(20, 30)
        assert list(rs) == [range(0, 10)]

    def test_bounds_largest_smallest(self):
        rs = RangeSet([range(5, 8), range(20, 25)])
        assert rs.bounds() == range(5, 25)
        assert rs.largest() == 24
        assert rs.smallest() == 5

    def test_prune_below_drops_wholly_covered_ranges(self):
        rs = RangeSet([range(0, 5), range(10, 15), range(20, 25)])
        assert rs.prune_below(5) == 1
        assert list(rs) == [range(10, 15), range(20, 25)]

    def test_prune_below_keeps_straddling_range_whole(self):
        rs = RangeSet([range(0, 5), range(10, 15)])
        assert rs.prune_below(12) == 1
        assert list(rs) == [range(10, 15)]

    def test_prune_below_everything(self):
        rs = RangeSet([range(0, 5), range(10, 15)])
        assert rs.prune_below(100) == 2
        assert list(rs) == []

    def test_prune_below_noop(self):
        rs = RangeSet([range(10, 15)])
        assert rs.prune_below(0) == 0
        assert list(rs) == [range(10, 15)]

    def test_empty_accessors_raise(self):
        rs = RangeSet()
        with pytest.raises(ValueError):
            rs.largest()
        with pytest.raises(ValueError):
            rs.bounds()

    def test_descending(self):
        rs = RangeSet([range(0, 2), range(5, 6)])
        assert rs.descending() == [range(5, 6), range(0, 2)]

    def test_copy_is_independent(self):
        rs = RangeSet([range(0, 5)])
        cp = rs.copy()
        cp.add(10, 12)
        assert list(rs) == [range(0, 5)]
        assert list(cp) == [range(0, 5), range(10, 12)]

    def test_tail_keeps_highest(self):
        rs = RangeSet([range(0, 1), range(3, 4), range(6, 7), range(9, 10)])
        t = rs.tail(2)
        assert list(t) == [range(6, 7), range(9, 10)]

    @given(st.lists(st.tuples(st.integers(0, 200), st.integers(1, 20)), max_size=40))
    @settings(max_examples=200)
    def test_matches_python_set_semantics(self, spans):
        rs = RangeSet()
        model = set()
        for start, length in spans:
            rs.add(start, start + length)
            model.update(range(start, start + length))
        # Invariants: sorted, disjoint, non-adjacent after coalescing by
        # membership; and identical membership to the model set.
        prev_stop = None
        for r in rs:
            assert r.start < r.stop
            if prev_stop is not None:
                assert r.start > prev_stop
            prev_stop = r.stop
        assert rs.covered() == len(model)
        for probe in range(0, 230):
            assert (probe in rs) == (probe in model)

    @given(
        st.lists(st.tuples(st.integers(0, 100), st.integers(1, 10)), max_size=20),
        st.tuples(st.integers(0, 100), st.integers(1, 30)),
    )
    @settings(max_examples=200)
    def test_subtract_matches_model(self, spans, cut):
        rs = RangeSet()
        model = set()
        for start, length in spans:
            rs.add(start, start + length)
            model.update(range(start, start + length))
        rs.subtract(cut[0], cut[0] + cut[1])
        model -= set(range(cut[0], cut[0] + cut[1]))
        for probe in range(0, 140):
            assert (probe in rs) == (probe in model)
