"""Metrics registry: counter/gauge/histogram semantics, merge algebra
(hypothesis-checked), and the per-connection collector."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.trace import (
    Counter,
    DEFAULT_MS_BUCKETS,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(MetricError):
            Counter().inc(-1)

    def test_merge_adds(self):
        a, b = Counter(), Counter()
        a.inc(2), b.inc(3)
        a.merge(b)
        assert a.value == 5


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge()
        g.set(2.0)
        g.set(1.0)
        assert g.value == 1.0

    def test_merge_is_order_independent(self):
        # Max-biased merge: merging A into B and B into A agree.
        a, b = Gauge(), Gauge()
        a.set(3.0), b.set(7.0)
        a2, b2 = Gauge(), Gauge()
        a2.set(3.0), b2.set(7.0)
        a.merge(b)
        b2.merge(a2)
        assert a.value == b2.value == 7.0


class TestHistogram:
    def test_bounds_must_increase(self):
        with pytest.raises(MetricError):
            Histogram(bounds=(1.0, 1.0, 2.0))

    def test_observe_buckets_inclusive_upper(self):
        h = Histogram(bounds=(1.0, 10.0))
        h.observe(1.0)   # lands in le=1.0 (inclusive upper bound)
        h.observe(5.0)   # le=10.0
        h.observe(100.0)  # overflow
        snap = h.snapshot()
        assert [b["count"] for b in snap["buckets"]] == [1, 1, 1]
        assert snap["buckets"][-1]["le"] is None
        assert snap["count"] == 3

    def test_mean_and_quantile(self):
        h = Histogram(bounds=tuple(float(b) for b in range(1, 101)))
        for v in range(1, 101):
            h.observe(float(v))
        assert h.mean() == pytest.approx(50.5)
        assert h.quantile(0.5) == pytest.approx(50.0, abs=1.0)

    def test_merge_requires_same_bounds(self):
        with pytest.raises(MetricError):
            Histogram(bounds=(1.0,)).merge(Histogram(bounds=(2.0,)))

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), max_size=60),
           st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), max_size=60))
    def test_merge_equals_combined_observation(self, xs, ys):
        """Histogram merge is exact: merging two histograms equals one
        histogram that observed the union of their samples."""
        bounds = DEFAULT_MS_BUCKETS
        a, b, combined = (Histogram(bounds=bounds) for _ in range(3))
        for x in xs:
            a.observe(x)
            combined.observe(x)
        for y in ys:
            b.observe(y)
            combined.observe(y)
        a.merge(b)
        # Bucket counts merge exactly; the running sum only up to float
        # addition reordering (it is not part of the bucket algebra).
        assert a.counts == combined.counts
        assert a.total == pytest.approx(combined.total, rel=1e-12)
        assert a.count == combined.count

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=60))
    def test_count_conserved(self, xs):
        h = Histogram(bounds=DEFAULT_MS_BUCKETS)
        for x in xs:
            h.observe(x)
        assert sum(h.counts) == len(xs) == h.count


class TestRegistry:
    def test_series_are_memoized(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.gauge("g") is r.gauge("g")
        assert r.histogram("h") is r.histogram("h")

    def test_type_conflict_rejected(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(MetricError):
            r.gauge("x")

    def test_histogram_bounds_conflict_rejected(self):
        r = MetricsRegistry()
        r.histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(MetricError):
            r.histogram("h", bounds=(3.0,))

    def test_merge_with_prefix(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("packets").inc(3)
        b.gauge("cwnd").set(10.0)
        a.merge(b, prefix="client.")
        snap = a.snapshot()
        assert snap["client.packets"]["value"] == 3
        assert snap["client.cwnd"]["value"] == 10.0

    def test_snapshot_shape(self):
        r = MetricsRegistry()
        r.counter("c").inc()
        r.histogram("h").observe(1.0)
        snap = r.snapshot()
        assert snap["c"]["kind"] == "counter"
        assert snap["h"]["kind"] == "histogram"
        assert snap["h"]["count"] == 1


class TestConnectionMetrics:
    def run_transfer(self):
        from repro.experiments import run_quic_transfer

        registry = MetricsRegistry()
        result = run_quic_transfer(80_000, d_ms=5, bw_mbps=20,
                                   metrics=registry)
        assert result.completed
        return registry.snapshot()

    def test_transfer_populates_both_sides_and_simulator(self):
        snap = self.run_transfer()
        assert snap["client.packets_sent"]["value"] > 0
        assert snap["client.packets_received"]["value"] > 0
        assert snap["server.packets_sent"]["value"] > 0
        assert snap["sim.events_fired"]["value"] > 0
        assert snap["transfers.completed"]["value"] == 1
        assert snap["transfer.dct_ms"]["count"] == 1
        # Histograms carry real distributions, not just counts.
        assert snap["client.packet_size_bytes"]["count"] == \
            snap["client.packets_sent"]["value"]

    def test_detach_stops_collection(self):
        from repro.quic import QuicConfiguration
        from repro.quic.connection import QuicConnection
        from repro.trace import ConnectionMetrics

        conn = QuicConnection(QuicConfiguration(is_client=True))
        cm = ConnectionMetrics(conn, MetricsRegistry())
        cm.detach()
        table = conn.protoops
        op = table.get("packet_sent_event")
        assert not any(op.post.values())

    def test_stream_lifecycle_series(self):
        """``streams_closed`` counts ``stream_closed`` runs and the
        ``quic.streams_open`` gauge follows the live stream tables."""
        from repro.quic import QuicConfiguration
        from repro.quic import frames as F
        from repro.quic.connection import QuicConnection
        from repro.trace import ConnectionMetrics

        conn = QuicConnection(QuicConfiguration(is_client=False))
        registry = MetricsRegistry()
        ConnectionMetrics(conn, registry, prefix="server.")
        snap = registry.snapshot()
        assert snap["server.streams_closed"]["value"] == 0
        assert snap["quic.streams_open"]["value"] == 0
        conn._process_stream_frame(
            conn, F.StreamFrame(stream_id=0, data=b"half"), {})
        assert registry.snapshot()["quic.streams_open"]["value"] == 2
        conn._process_reset_stream_frame(
            conn, F.ResetStreamFrame(stream_id=0, error_code=0,
                                     final_size=4), {})
        snap = registry.snapshot()
        assert snap["quic.streams_open"]["value"] == 1
        assert snap["server.streams_closed"]["value"] == 1
        assert conn.stats["stream_halves_retired"] == 1
