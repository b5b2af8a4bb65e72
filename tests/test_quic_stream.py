"""SendStream / ReceiveStream unit and property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    FinalSizeError,
    FlowControlError,
    StreamStateError,
)
from repro.quic.stream import ReceiveStream, SendStream


class TestSendStream:
    def make(self, limit=1 << 20):
        return SendStream(0, limit)

    def test_write_then_chunks(self):
        s = self.make()
        s.write(b"hello world")
        s.finish()
        offset, data, fin = s.next_chunk(5)
        assert (offset, data, fin) == (0, b"hello", False)
        offset, data, fin = s.next_chunk(100)
        assert (offset, data, fin) == (5, b" world", True)
        assert s.next_chunk(100) is None

    def test_a_write_into_an_empty_buffer_is_not_copied(self):
        """A bytes write with nothing buffered is held as the caller's
        object; later writes, acknowledgements and losses read as they
        did when every write was copied."""
        s = self.make()
        first = bytes(range(256)) * 2048  # 512 kB
        s.write(first)
        assert s._buffer.obj is first
        chunks = [s.next_chunk(300_000), s.next_chunk(300_000)]
        assert b"".join(data for _, data, _ in chunks) == first
        s.on_ack(0, 300_000, False)  # a released prefix is a view
        assert s._buffer.obj is first and len(s._buffer) == len(first) - 300_000
        s.write(b"tail")  # data still buffered: copied from here on
        s.finish()
        assert type(s._buffer) is bytearray
        s.on_loss(300_000, len(first) - 300_000, False)
        assert s.next_chunk(1 << 20) == (300_000, first[300_000:] + b"tail",
                                         True)
        s.on_ack(300_000, len(first) - 300_000 + 4, True)
        assert s.is_finished

    def test_fin_only_stream(self):
        s = self.make()
        s.finish()
        assert s.has_pending
        offset, data, fin = s.next_chunk(100)
        assert (offset, data, fin) == (0, b"", True)
        assert not s.has_pending

    def test_write_after_fin_rejected(self):
        s = self.make()
        s.finish()
        with pytest.raises(StreamStateError):
            s.write(b"late")

    def test_loss_requeues_data(self):
        s = self.make()
        s.write(b"abcdefgh")
        offset, data, fin = s.next_chunk(8)
        assert data == b"abcdefgh"
        assert s.next_chunk(8) is None
        s.on_loss(offset, len(data), fin)
        offset2, data2, _ = s.next_chunk(8)
        assert (offset2, data2) == (0, b"abcdefgh")

    def test_ack_prevents_retransmission_of_acked_part(self):
        s = self.make()
        s.write(b"abcdefgh")
        s.next_chunk(8)
        s.on_ack(0, 4, False)  # first half acked
        s.on_loss(0, 8, False)  # whole packet declared lost afterwards
        offset, data, _ = s.next_chunk(8)
        assert (offset, data) == (4, b"efgh")

    def test_all_acked(self):
        s = self.make()
        s.write(b"abcd")
        s.finish()
        offset, data, fin = s.next_chunk(10)
        assert not s.all_acked
        s.on_ack(offset, len(data), fin)
        assert s.all_acked

    def test_fin_retransmitted_on_loss(self):
        s = self.make()
        s.write(b"x")
        s.finish()
        offset, data, fin = s.next_chunk(10)
        assert fin
        s.on_loss(offset, len(data), fin)
        _, _, fin2 = s.next_chunk(10)
        assert fin2

    def test_flow_limit_blocks(self):
        s = self.make(limit=4)
        s.write(b"abcdefgh")
        offset, data, _ = s.next_chunk(100)
        assert data == b"abcd"
        assert s.next_chunk(100) is None
        assert s.blocked
        s.update_max_stream_data(8)
        offset, data, _ = s.next_chunk(100)
        assert (offset, data) == (4, b"efgh")

    def test_max_stream_data_never_shrinks(self):
        s = self.make(limit=10)
        s.update_max_stream_data(5)
        assert s.max_stream_data == 10

    def test_fin_at_limit_still_pending_and_sendable(self):
        # The FIN-at-limit edge: every data byte left exactly at
        # max_stream_data and only the FIN remains.  The empty FIN frame
        # consumes no flow-control credit, so the stream must keep
        # reporting pending work and emit the FIN-only frame.
        s = self.make(limit=4)
        s.write(b"abcd")
        s.finish()
        offset, data, fin = s.next_chunk(100)
        assert (offset, data, fin) == (0, b"abcd", True)
        # The data+FIN frame is lost; only the FIN needs resending and
        # the final offset sits exactly at the limit.
        s.on_ack(0, 4, False)
        s.on_loss(0, 4, True)
        assert s.has_pending
        offset, data, fin = s.next_chunk(100)
        assert (offset, data, fin) == (4, b"", True)
        assert not s.has_pending

    def test_flow_blocked_stream_reports_no_pending(self):
        # While every pending byte sits at/above the peer's limit the
        # stream is flow-blocked, and a FIN queued behind that data
        # cannot jump the queue: scheduling it would only stall the
        # packet builder and starve other streams.
        s = self.make(limit=4)
        s.write(b"abcdefgh")
        s.finish()
        s.next_chunk(100)  # sends b"abcd", now blocked at the limit
        assert not s.has_pending
        assert s.next_chunk(100) is None
        assert s.blocked
        s.update_max_stream_data(8)
        assert s.has_pending
        offset, data, fin = s.next_chunk(100)
        assert (offset, data, fin) == (4, b"efgh", True)

    @given(st.lists(st.binary(min_size=1, max_size=50), max_size=20),
           st.integers(1, 17))
    @settings(max_examples=100)
    def test_chunking_reassembles_exactly(self, writes, chunk_size):
        s = self.make()
        total = b"".join(writes)
        for w in writes:
            s.write(w)
        s.finish()
        out = bytearray(len(total))
        fin_seen = False
        while True:
            chunk = s.next_chunk(chunk_size)
            if chunk is None:
                break
            offset, data, fin = chunk
            out[offset:offset + len(data)] = data
            fin_seen = fin_seen or fin
        assert bytes(out) == total
        assert fin_seen


class TestReceiveStream:
    def make(self, limit=1 << 20):
        return ReceiveStream(0, limit)

    def test_in_order_delivery(self):
        r = self.make()
        assert r.receive(0, b"abc", False) == b"abc"
        assert r.receive(3, b"def", True) == b"def"
        assert r.is_finished

    def test_out_of_order_reassembly(self):
        r = self.make()
        assert r.receive(3, b"def", False) == b""
        assert r.receive(0, b"abc", False) == b"abcdef"

    def test_duplicate_and_overlap(self):
        r = self.make()
        r.receive(0, b"abcd", False)
        assert r.receive(2, b"cdef", False) == b"ef"
        assert r.receive(0, b"abcd", False) == b""

    def test_final_size_conflict(self):
        r = self.make()
        r.receive(0, b"abc", True)
        with pytest.raises(FinalSizeError):
            r.receive(0, b"abcd", True)

    def test_data_beyond_final_size(self):
        r = self.make()
        r.receive(0, b"abc", True)
        with pytest.raises(FinalSizeError):
            r.receive(3, b"d", False)

    def test_fin_below_received_data(self):
        r = self.make()
        r.receive(0, b"abcdef", False)
        with pytest.raises(FinalSizeError):
            r.receive(0, b"abc", True)

    def test_flow_control_enforced(self):
        r = self.make(limit=4)
        with pytest.raises(FlowControlError):
            r.receive(0, b"abcdef", False)

    def test_grant_credit_advances_limit(self):
        r = self.make(limit=4)
        r.receive(0, b"abcd", False)
        # No RTT sample yet: the window keeps its initial size.
        new_limit = r.grant_credit(1.0, float("inf"))
        assert new_limit == 8  # 4 read + window 4
        r.receive(4, b"efgh", False)

    def test_grant_credit_no_regression(self):
        r = self.make(limit=100)
        assert r.grant_credit(1.0, 0.01) == 0
        assert r.max_stream_data == 100

    @given(st.binary(min_size=1, max_size=300), st.integers(1, 20),
           st.randoms(use_true_random=False))
    @settings(max_examples=100)
    def test_random_arrival_order(self, payload, chunk_size, rng):
        r = self.make()
        chunks = [
            (off, payload[off:off + chunk_size])
            for off in range(0, len(payload), chunk_size)
        ]
        rng.shuffle(chunks)
        out = bytearray()
        for off, data in chunks:
            fin = off + len(data) == len(payload)
            out.extend(r.receive(off, data, fin))
        assert bytes(out) == payload
        assert r.is_finished
