"""Metrics registry: counter/gauge/histogram semantics, merge algebra
(hypothesis-checked), and the per-connection collector."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.protoop import Anchor
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


class TestWatch:
    def test_watched_ledger_reads_live(self):
        r = MetricsRegistry()
        ledger = {"sent": 1}
        r.watch("conn.", ledger)
        assert r.get("conn.sent").value == 1
        ledger["sent"] += 2
        ledger["late"] = 5  # keys a ledger gains later appear too
        assert r.names() == ["conn.late", "conn.sent"]
        assert r.snapshot()["conn.sent"] == {"kind": "counter", "value": 3}

    def test_watches_of_one_name_sum(self):
        r = MetricsRegistry()
        r.watch("", {"x": 2})
        r.watch("", {"x": 3})
        assert r.get("x").value == 5

    def test_second_writer_rejected(self):
        r = MetricsRegistry()
        r.watch("quic.server.", {"accepted": 0})
        with pytest.raises(MetricError):
            r.counter("quic.server.accepted")
        with pytest.raises(MetricError):
            r.gauge("quic.server.accepted")
        r.counter("quic.server.other").inc()  # unwatched names still work

    def test_merge_folds_the_current_reading(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        ledger = {"packets": 4}
        b.watch("", ledger)
        a.merge(b, prefix="client.")
        ledger["packets"] += 1
        assert a.get("client.packets").value == 4


class TestConnectionMetrics:
    def run_transfer(self):
        from repro.conformance import Scenario, Topology, Workload, run_transfer
        from repro.trace import ConnectionMetrics

        registry = MetricsRegistry()
        result = run_transfer(
            Scenario(name="metrics", workload=Workload(size=80_000, app="bulk"),
                     topology=Topology(d_ms=5, bw_mbps=20)),
            observe=lambda conn, side: ConnectionMetrics(
                conn, registry, prefix=f"{side}."))
        assert result.completed
        registry.counter("sim.events_fired").inc(result.sim.events_fired)
        return registry.snapshot()

    def test_transfer_populates_both_sides_and_simulator(self):
        snap = self.run_transfer()
        assert snap["client.packets_sent"]["value"] > 0
        assert snap["client.packets_received"]["value"] > 0
        assert snap["server.packets_sent"]["value"] > 0
        assert snap["sim.events_fired"]["value"] > 0
        # Histograms carry real distributions, not just counts.
        assert snap["client.packet_size_bytes"]["count"] == \
            snap["client.packets_sent"]["value"]

    def test_detach_stops_collection(self):
        from repro.quic import QuicConfiguration
        from repro.quic.connection import QuicConnection
        from repro.trace import ConnectionMetrics

        conn = QuicConnection(QuicConfiguration(is_client=True))
        registry = MetricsRegistry()
        cm = ConnectionMetrics(conn, registry)
        cm.detach()
        table = conn.protoops
        op = table.get("packet_sent_event")
        assert not any(op.post.values())
        conn.stats["packets_sent"] += 1
        assert registry.get("packets_sent").value == 0
        registry.counter("packets_sent")  # a plain counter again

    def test_ledgers_read_through_on_a_lossy_two_sided_run(self):
        """Monitoring + multipath on both ends over 2 % loss: mid-run and
        at the end every ``client.<k>`` / ``server.<k>`` is ``stats[k]``,
        the packet counts equal what the packet events report, and after
        ``detach`` nothing moves."""
        from repro.conformance import Scenario, Topology, Workload, run_transfer
        from repro.trace import ConnectionMetrics

        registry = MetricsRegistry()
        attached, mid_run_checks = [], []

        def check_ledgers():
            snap = registry.snapshot()
            for cm in attached:
                for key, value in cm.conn.stats.items():
                    assert snap[cm.prefix + key]["value"] == value, key
            return True

        class Recording(ConnectionMetrics):
            """Also counts the packet events, to compare with the ledger."""

            def __init__(self, conn, *args, **kwargs):
                super().__init__(conn, *args, **kwargs)
                attached.append(self)
                self.events = {"packets_sent": 0, "bytes_sent": 0,
                               "packets_lost": 0}
                conn.protoops.attach("packet_sent_event", Anchor.POST,
                                     self._sent)
                conn.protoops.attach("packet_lost_event", Anchor.POST,
                                     self._lost)

            def _sent(self, conn, args, result):
                self.events["packets_sent"] += 1
                self.events["bytes_sent"] += args[0].size
                if self.events["packets_sent"] == 200:
                    mid_run_checks.append(check_ledgers())

            def _lost(self, conn, args, result):
                self.events["packets_lost"] += 1

        result = run_transfer(
            Scenario(name="ledgers", workload=Workload(size=400_000, app="bulk"),
                     topology=Topology(d_ms=10, bw_mbps=10, loss_pct=2.0),
                     plugins=("monitoring", "multipath"), seed=3),
            observe=lambda conn, side: Recording(
                conn, registry, prefix=f"{side}."))
        assert result.completed
        assert [cm.prefix for cm in attached] == ["client.", "server."]
        assert mid_run_checks == [True, True]
        check_ledgers()
        for cm in attached:
            for key, value in cm.events.items():
                assert registry.get(cm.prefix + key).value == value, key
        assert registry.get("client.packets_lost").value > 0
        before = registry.snapshot()
        for cm in attached:
            cm.detach()
        assert registry.snapshot() == before
        for cm in attached:
            cm.conn.stats["packets_sent"] += 1
        assert registry.snapshot() == before

    def test_stream_lifecycle_series(self):
        """``streams_closed`` counts ``stream_closed`` runs; the watched
        ``stream_halves_retired`` follows the connection's ledger."""
        from repro.quic import QuicConfiguration
        from repro.quic import frames as F
        from repro.quic.connection import QuicConnection
        from repro.trace import ConnectionMetrics

        conn = QuicConnection(QuicConfiguration(is_client=False))
        registry = MetricsRegistry()
        ConnectionMetrics(conn, registry, prefix="server.")
        snap = registry.snapshot()
        assert snap["server.streams_closed"]["value"] == 0
        assert snap["server.stream_halves_retired"]["value"] == 0
        conn._process_stream_frame(
            F.StreamFrame(stream_id=0, data=b"half"), {})
        conn._process_reset_stream_frame(
            F.ResetStreamFrame(stream_id=0, error_code=0,
                               final_size=4), {})
        snap = registry.snapshot()
        assert snap["server.streams_closed"]["value"] == 1
        assert snap["server.stream_halves_retired"]["value"] == 1
        assert conn.stats["stream_halves_retired"] == 1
