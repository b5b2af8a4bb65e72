"""Metrics registry: counters, gauges and fixed-bucket histograms.

The registry is the aggregation half of the observability layer: anchors
and host code record raw numbers here, and registries *merge* — a
per-connection registry folds into a simulator-wide one, simulator-wide
registries fold across experiment repetitions.  Merging is exact for
counters and histograms (same bucket bounds add bucket-wise), and
max-biased for gauges (documented below), so aggregation order never
changes a result.

Nothing in this module touches a hot path: metric objects are only
consulted when host code explicitly records into them.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Sequence

from repro.core.protoop import Anchor

#: Default bucket upper bounds for millisecond latencies.
DEFAULT_MS_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                      500.0, 1000.0, 2000.0, 5000.0)
#: Default bucket upper bounds for byte sizes.
DEFAULT_BYTES_BUCKETS = (256.0, 512.0, 1024.0, 1500.0, 4096.0, 16384.0,
                         65536.0, 262144.0, 1048576.0)


class MetricError(ValueError):
    """Inconsistent use of the registry (type or bucket mismatch)."""


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise MetricError("counters only go up")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A point-in-time value.  Merging keeps the maximum — the only
    order-independent choice for "last seen" values from concurrent
    sources (peak queue depth, peak cwnd, ...)."""

    kind = "gauge"
    __slots__ = ("value", "_set")

    def __init__(self) -> None:
        self.value = 0.0
        self._set = False

    def set(self, value: float) -> None:
        self.value = value
        self._set = True

    def merge(self, other: "Gauge") -> None:
        if other._set and (not self._set or other.value > self.value):
            self.value = other.value
            self._set = True

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Fixed-bucket histogram: ``bounds`` are inclusive upper bounds, with
    an implicit overflow bucket above the last bound.

    ``counts[i]`` is the number of observations ``v <= bounds[i]`` (and
    above ``bounds[i-1]``); ``counts[-1]`` the overflow.  Histograms with
    identical bounds merge bucket-wise, which is exact — the merged
    histogram equals one that observed both input streams.
    """

    kind = "histogram"
    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_MS_BUCKETS):
        b = tuple(float(x) for x in bounds)
        if not b:
            raise MetricError("histogram needs at least one bound")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise MetricError(f"bounds must strictly increase: {b}")
        self.bounds = b
        self.counts = [0] * (len(b) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise MetricError(
                f"cannot merge histograms with different bounds "
                f"({self.bounds} vs {other.bounds})")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the bucket holding the
        q-th observation (the last bound for overflow)."""
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank and c:
                return self.bounds[min(i, len(self.bounds) - 1)]
        return self.bounds[-1]

    def snapshot(self) -> dict:
        return {
            "kind": self.kind, "count": self.count,
            "sum": round(self.total, 6),
            "min": self.min, "max": self.max,
            "buckets": [
                {"le": bound, "count": self.counts[i]}
                for i, bound in enumerate(self.bounds)
            ] + [{"le": None, "count": self.counts[-1]}],
        }


class MetricsRegistry:
    """A named collection of metrics with exact merge semantics."""

    def __init__(self, label: str = ""):
        self.label = label
        self._metrics: dict = {}

    def _get(self, name: str, kind, *args):
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(*args)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise MetricError(
                f"metric {name!r} is a {metric.kind}, not a "
                f"{kind.kind}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_MS_BUCKETS) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(bounds)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise MetricError(f"metric {name!r} is a {metric.kind}, "
                              f"not a histogram")
        elif metric.bounds != tuple(float(b) for b in bounds):
            raise MetricError(f"metric {name!r} re-declared with "
                              f"different bounds")
        return metric

    def names(self) -> list:
        return sorted(self._metrics)

    def get(self, name: str):
        return self._metrics.get(name)

    def merge(self, other: "MetricsRegistry", prefix: str = "") -> None:
        """Fold ``other`` into this registry, optionally prefixing names
        (e.g. ``prefix="client."`` for per-connection roll-ups)."""
        for name, metric in other._metrics.items():
            mine = self._metrics.get(prefix + name)
            if mine is None:
                if isinstance(metric, Histogram):
                    mine = Histogram(metric.bounds)
                else:
                    mine = type(metric)()
                self._metrics[prefix + name] = mine
            elif type(mine) is not type(metric):
                raise MetricError(
                    f"merge conflict on {prefix + name!r}: "
                    f"{mine.kind} vs {metric.kind}")
            mine.merge(metric)

    def snapshot(self) -> dict:
        return {name: self._metrics[name].snapshot()
                for name in sorted(self._metrics)}


class ConnectionMetrics:
    """Feed a registry from a connection's protoop anchors.

    The per-connection aggregation point of the observability layer: like
    :class:`~repro.trace.tracer.ConnectionTracer` it observes the
    connection exclusively through ``post`` anchors — the same gray-box
    interface plugins use — so attaching it changes nothing about the
    transport.  It also exposes the registry as ``conn.metrics`` for host
    subsystems (containment, exchange) to record into.
    """

    def __init__(self, conn, registry: Optional[MetricsRegistry] = None,
                 prefix: str = ""):
        self.conn = conn
        self.registry = registry if registry is not None else MetricsRegistry()
        self.prefix = prefix
        self._attached: list = []
        conn.metrics = self.registry
        r = self.registry
        p = prefix
        hooks = [
            ("packet_sent_event", self._on_sent),
            ("packet_received_event", self._on_received),
            ("packet_lost_event", self._on_lost),
            ("rtt_updated", self._on_rtt),
            ("cc_window_updated", self._on_cwnd),
            ("stream_opened", self._on_stream),
            ("stream_closed", self._on_stream_closed),
        ]
        # Create the series up front so snapshots are stable even for
        # connections that never see the corresponding event.
        r.counter(p + "packets_sent")
        r.counter(p + "bytes_sent")
        r.counter(p + "packets_received")
        r.counter(p + "packets_lost")
        r.counter(p + "streams_opened")
        r.counter(p + "streams_closed")
        r.histogram(p + "rtt_ms", DEFAULT_MS_BUCKETS)
        r.histogram(p + "packet_size_bytes", DEFAULT_BYTES_BUCKETS)
        r.gauge(p + "cwnd_peak")
        # Path-validation / migration counters are recorded host-side by
        # QuicConnection._record_path_metric (they fire from timer and
        # receive paths, not from anchored protoops); the names are never
        # prefixed so per-path series aggregate identically across
        # vantage points.  Pre-created for stable snapshots.
        for name in ("challenges_sent", "validated", "failed", "migrations",
                     "cids_rotated", "amp_blocked", "off_path_rejected",
                     "stateless_resets"):
            r.counter("quic.path." + name)
        # Loss-recovery counters, recorded host-side by
        # QuicConnection._record_recovery_metric (PTO fires from the
        # timer path) — unprefixed like quic.path.* for the same reason.
        for name in ("pto_fired", "probes_sent", "spurious_losses",
                     "persistent_congestion"):
            r.counter("quic.recovery." + name)
        # ``quic.streams_open``, the live stream halves: the connection
        # sets it wherever a half is created or retired (most of those
        # points run no protoop), starting with the state at attach.
        conn._record_streams_open()
        table = conn.protoops
        for name, fn in hooks:
            table.attach(name, Anchor.POST, fn)
            self._attached.append((name, fn))

    # --- hooks ------------------------------------------------------------

    def _on_sent(self, conn, args, result) -> None:
        (sent,) = args
        p = self.prefix
        self.registry.counter(p + "packets_sent").inc()
        self.registry.counter(p + "bytes_sent").inc(sent.size)
        self.registry.histogram(
            p + "packet_size_bytes", DEFAULT_BYTES_BUCKETS).observe(sent.size)

    def _on_received(self, conn, args, result) -> None:
        self.registry.counter(self.prefix + "packets_received").inc()

    def _on_lost(self, conn, args, result) -> None:
        self.registry.counter(self.prefix + "packets_lost").inc()

    def _on_rtt(self, conn, args, result) -> None:
        path, latest = args
        self.registry.histogram(
            self.prefix + "rtt_ms").observe(latest * 1000.0)

    def _on_cwnd(self, conn, args, result) -> None:
        path, cwnd = args
        gauge = self.registry.gauge(self.prefix + "cwnd_peak")
        if cwnd > gauge.value or not gauge._set:
            gauge.set(float(cwnd))

    def _on_stream(self, conn, args, result) -> None:
        self.registry.counter(self.prefix + "streams_opened").inc()

    def _on_stream_closed(self, conn, args, result) -> None:
        self.registry.counter(self.prefix + "streams_closed").inc()

    def detach(self) -> None:
        table = self.conn.protoops
        for name, fn in self._attached:
            table.detach(name, Anchor.POST, fn)
        self._attached.clear()
        if getattr(self.conn, "metrics", None) is self.registry:
            self.conn.metrics = None
