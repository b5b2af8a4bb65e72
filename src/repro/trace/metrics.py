"""Metrics registry: counters, gauges and fixed-bucket histograms.

The registry is the aggregation half of the observability layer.  Each
count is kept once, by the transport, in its own ledger dicts
(``QuicConnection.stats``, ``ServerEndpoint.stats``); the registry
*watches* those and reads them on demand, and ``post`` anchors record
only what a ledger cannot hold (histograms, peaks).  Registries *merge* —
a per-connection registry folds into a simulator-wide one,
simulator-wide registries fold across experiment repetitions.  Merging is exact for
counters and histograms (same bucket bounds add bucket-wise), and
max-biased for gauges (documented below), so aggregation order never
changes a result.

Nothing in this module touches a hot path: a watched ledger is read
only when the registry is read.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Sequence

from repro.core.containment import FailureClass
from repro.core.protoop import Anchor
from repro.quic.connection import PathState

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
    """A named collection of metrics with exact merge semantics.

    A count the transport already keeps is never written here a second
    time: :meth:`watch` exposes the transport's own ledger dict
    (``conn.stats``, ``server.stats``) and every read of the registry
    reads it.
    """

    def __init__(self, label: str = ""):
        self.label = label
        self._metrics: dict = {}
        self._watches: list = []

    def watch(self, prefix: str, ledger: dict) -> None:
        """Expose each key of ``ledger`` as the counter ``prefix + key``.

        ``get``, ``names``, ``snapshot`` and ``merge`` read the dict when
        they run, so keys the ledger gains later appear too.  A name
        watched more than once reads the sum of its ledgers (plus the
        counter a released watch left behind, see
        :meth:`ConnectionMetrics.detach`).  ``counter(name)`` on a watched
        name raises :class:`MetricError`: the ledger is its one writer."""
        self._watches.append((prefix, ledger))

    def _release(self, prefix: str, ledger: dict) -> None:
        """Stop watching ``ledger``; its last reading stays as plain
        counters, so the registry's values neither move nor drop."""
        del self._watches[next(
            i for i, (p, d) in enumerate(self._watches)
            if p == prefix and d is ledger)]
        for key, value in ledger.items():
            counter = self._metrics.get(prefix + key)
            if counter is None:
                counter = self._metrics[prefix + key] = Counter()
            counter.inc(value)

    def _watched(self, name: str) -> bool:
        return any(name.startswith(prefix) and name[len(prefix):] in ledger
                   for prefix, ledger in self._watches)

    def _view(self) -> dict:
        """Every series by name, watched ones read now as counters."""
        if not self._watches:
            return self._metrics
        view = dict(self._metrics)
        for prefix, ledger in self._watches:
            for key, value in ledger.items():
                name = prefix + key
                counter = Counter()
                counter.value = value
                previous = view.get(name)
                if previous is not None:
                    if not isinstance(previous, Counter):
                        raise MetricError(
                            f"watched metric {name!r} is also a "
                            f"{previous.kind}")
                    counter.value += previous.value
                view[name] = counter
        return view

    def _get(self, name: str, kind, *args):
        if self._watched(name):
            raise MetricError(
                f"metric {name!r} is read from a watched ledger; the "
                f"ledger is its only writer")
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
        metric = self._get(name, Histogram, bounds)
        if metric.bounds != tuple(float(b) for b in bounds):
            raise MetricError(f"metric {name!r} re-declared with "
                              f"different bounds")
        return metric

    def names(self) -> list:
        return sorted(self._view())

    def get(self, name: str):
        return self._view().get(name)

    def merge(self, other: "MetricsRegistry", prefix: str = "") -> None:
        """Fold ``other`` into this registry, optionally prefixing names
        (e.g. ``prefix="client."`` for per-connection roll-ups); what
        ``other`` watches is folded as the counters it reads now."""
        for name, metric in other._view().items():
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
        view = self._view()
        return {name: view[name].snapshot() for name in sorted(view)}


class ConnectionMetrics:
    """Expose a connection's counts in a registry.

    Every count the connection keeps in ``conn.stats`` is *watched*: it
    reads as the counter ``<prefix><key>`` (``client.packets_sent``,
    ``server.pto_fired``, ...), from connection creation on.  ``post``
    anchors — the gray-box interface plugins use, so attaching changes
    nothing about the transport — feed only what a dict of counts cannot
    hold or the transport does not count: the ``rtt_ms`` and
    ``packet_size_bytes`` histograms, the ``cwnd_peak`` gauge, the
    ``streams_opened`` / ``streams_closed`` counters, ``paths_validated``
    / ``paths_failed`` from ``path_validation_state_changed``, and the
    containment counters ``plugin_faults`` / ``plugin_fatal_faults`` /
    ``plugin_quarantines`` / ``plugin_blocklists`` from the recovery
    events.
    """

    def __init__(self, conn, registry: Optional[MetricsRegistry] = None,
                 prefix: str = ""):
        self.conn = conn
        self.registry = r = (registry if registry is not None
                             else MetricsRegistry())
        self.prefix = p = prefix
        self._attached: list = []
        r.watch(p, conn.stats)
        # Created up front so snapshots are stable even for connections
        # that never see the corresponding event.
        self._rtt = r.histogram(p + "rtt_ms", DEFAULT_MS_BUCKETS)
        self._sizes = r.histogram(p + "packet_size_bytes",
                                  DEFAULT_BYTES_BUCKETS)
        self._cwnd_peak = r.gauge(p + "cwnd_peak")
        self._counters = {name: r.counter(p + name) for name in (
            "streams_opened", "streams_closed", "paths_validated",
            "paths_failed", "plugin_faults", "plugin_fatal_faults",
            "plugin_quarantines", "plugin_blocklists")}
        hooks = [
            ("packet_sent_event", self._on_sent),
            ("rtt_updated", self._on_rtt),
            ("cc_window_updated", self._on_cwnd),
            ("stream_opened", self._count("streams_opened")),
            ("stream_closed", self._count("streams_closed")),
            ("path_validation_state_changed", self._on_path_state),
            ("plugin_fault", self._on_fault),
            ("plugin_quarantined", self._count("plugin_quarantines")),
            ("plugin_blocklisted", self._count("plugin_blocklists")),
        ]
        table = conn.protoops
        for name, fn in hooks:
            table.attach(name, Anchor.POST, fn)
            self._attached.append((name, fn))

    # --- hooks ------------------------------------------------------------

    def _count(self, name: str):
        """A hook counting its runs into ``<prefix><name>``."""
        counter = self._counters[name]

        def hook(conn, args, result) -> None:
            counter.value += 1
        return hook

    def _on_sent(self, conn, args, result) -> None:
        self._sizes.observe(args[0].size)

    def _on_rtt(self, conn, args, result) -> None:
        path, latest = args
        self._rtt.observe(latest * 1000.0)

    def _on_cwnd(self, conn, args, result) -> None:
        path, cwnd = args
        gauge = self._cwnd_peak
        if cwnd > gauge.value or not gauge._set:
            gauge.set(float(cwnd))

    def _on_path_state(self, conn, args, result) -> None:
        path, old, new = args
        if new == PathState.VALIDATED:
            self._counters["paths_validated"].value += 1
        elif new == PathState.FAILED:
            self._counters["paths_failed"].value += 1

    def _on_fault(self, conn, args, result) -> None:
        plugin, pluglet, failure_class, reason = args
        self._counters["plugin_faults"].value += 1
        if failure_class == FailureClass.FATAL.value:
            self._counters["plugin_fatal_faults"].value += 1

    def detach(self) -> None:
        """Stop collecting; every value keeps its last reading."""
        if not self._attached:
            return
        table = self.conn.protoops
        for name, fn in self._attached:
            table.detach(name, Anchor.POST, fn)
        self._attached.clear()
        self.registry._release(self.prefix, self.conn.stats)
