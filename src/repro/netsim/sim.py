"""Discrete-event simulation kernel.

The whole evaluation of the paper runs on a lab testbed (Figure 7) shaped
with NetEm/HTB.  This module provides the equivalent substrate: a
deterministic event loop with cancellable timers on which links, routers,
hosts and transport endpoints are built.
"""

from __future__ import annotations

import heapq
import itertools
import warnings
from typing import Any, Callable, Optional


class Event:
    """A scheduled callback. Returned by :meth:`Simulator.schedule`.

    Events compare by (time, sequence) so simultaneous events fire in
    scheduling order, which keeps runs fully deterministic.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim", "_queued",
                 "_far")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple,
                 sim: Optional["Simulator"] = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim  # owner, notified on cancel for O(1) accounting
        self._queued = False
        self._far = False  # True while parked in the timer wheel

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None and self._queued:
            self._sim._on_cancel(self)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} {self.fn!r} {state}>"


class TimerWheel:
    """A hashed hierarchical timing wheel with an overflow heap.

    The heap-only event queue degrades when thousands of connections each
    keep rearming long-range alarms (cancel + reschedule per packet):
    every dead timer sits in the heap until compaction sweeps it, and the
    heap's log factor grows with the standing timer population.  The
    wheel gives O(1) insertion and bins events by quantized expiry tick
    instead:

    * level 0 slots are one tick (``tick`` seconds) wide, level ``L``
      slots are ``2**(bits*L)`` ticks wide — events cascade down a level
      as their slot comes due, so each event is touched at most
      ``levels`` times;
    * slots live in per-level dicts keyed by absolute slot index (hashed
      wheel), so idle stretches cost nothing and there is no wrap-around
      bookkeeping; a per-level heap of occupied slot indices finds the
      next deadline without scanning;
    * events past the top horizon wait in a plain overflow heap;
    * events due at or before the current tick sit in the ``_due`` heap,
      ordered by exact ``(time, seq)`` — quantization never reorders
      delivery, because slots are only an index, never a fire order.

    Cancellation just marks the event; dead entries are dropped when
    their slot drains, or all at once by :meth:`compact` when garbage
    dominates (the owning :class:`Simulator` decides when).
    """

    __slots__ = ("_tick", "_bits", "_levels", "_slots", "_occupied",
                 "_overflow", "_due", "_now_tick", "_len")

    def __init__(self, tick: float = 1e-3, bits: int = 10, levels: int = 3):
        self._tick = tick
        self._bits = bits
        self._levels = levels
        self._slots: list[dict[int, list[Event]]] = [{} for _ in range(levels)]
        self._occupied: list[list[int]] = [[] for _ in range(levels)]
        self._overflow: list[Event] = []
        self._due: list[Event] = []
        self._now_tick = 0
        self._len = 0  # all queued entries, live and cancelled

    def __len__(self) -> int:
        return self._len

    def push(self, ev: Event) -> None:
        """Insert an event (O(1) amortized)."""
        self._len += 1
        tick = int(ev.time / self._tick)
        delta = tick - self._now_tick
        if delta <= 0:
            heapq.heappush(self._due, ev)
            return
        bits = self._bits
        for level in range(self._levels):
            if delta < 1 << (bits * (level + 1)):
                slot = tick >> (bits * level)
                bucket = self._slots[level].get(slot)
                if bucket is None:
                    self._slots[level][slot] = [ev]
                    heapq.heappush(self._occupied[level], slot)
                else:
                    bucket.append(ev)
                return
        heapq.heappush(self._overflow, ev)

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event in (time, seq) order."""
        while True:
            due = self._due
            while due:
                ev = heapq.heappop(due)
                self._len -= 1
                if not ev.cancelled:
                    return ev
            if not self._advance():
                return None

    def _advance(self) -> bool:
        """Move the earliest occupied slot (or overflow batch) into the
        due heap, cascading coarse slots down.  False when empty."""
        bits = self._bits
        best_level = -1
        best_start = None
        for level in range(self._levels):
            occ = self._occupied[level]
            slots = self._slots[level]
            while occ and occ[0] not in slots:
                heapq.heappop(occ)  # stale index (drained or compacted)
            if occ:
                start = occ[0] << (bits * level)
                if best_start is None or start < best_start:
                    best_start = start
                    best_level = level
        overflow = self._overflow
        while overflow and overflow[0].cancelled:
            heapq.heappop(overflow)
            self._len -= 1
        if overflow:
            tick = int(overflow[0].time / self._tick)
            if best_start is None or tick < best_start:
                # Reinsert the overflow head relative to its own tick; it
                # lands in a wheel level (or straight in the due heap).
                ev = heapq.heappop(overflow)
                self._len -= 1
                self._now_tick = max(self._now_tick, tick)
                self.push(ev)
                return True
        if best_start is None:
            return False
        occ = self._occupied[best_level]
        slot = heapq.heappop(occ)
        bucket = self._slots[best_level].pop(slot)
        self._now_tick = max(self._now_tick, best_start)
        if best_level == 0:
            for ev in bucket:
                if ev.cancelled:
                    self._len -= 1
                else:
                    heapq.heappush(self._due, ev)
        else:
            # Cascade: redistribute into finer levels / the due heap.
            self._len -= len(bucket)
            for ev in bucket:
                if not ev.cancelled:
                    self.push(ev)
        return True

    def next_time(self) -> Optional[float]:
        """A lower bound (seconds) on the earliest entry, or ``None``.

        Slot starts are used for binned events, exact times for due and
        overflow entries, so the bound is cheap and never *over*estimates
        — callers compare it against another queue's head and only pay
        for an exact :meth:`pop` when the wheel might win.
        """
        if self._len == 0:
            return None
        if self._due:
            return self._due[0].time
        bits = self._bits
        best: Optional[int] = None
        for level in range(self._levels):
            occ = self._occupied[level]
            slots = self._slots[level]
            while occ and occ[0] not in slots:
                heapq.heappop(occ)
            if occ:
                start = occ[0] << (bits * level)
                if best is None or start < best:
                    best = start
        t = None if best is None else best * self._tick
        overflow = self._overflow
        while overflow and overflow[0].cancelled:
            heapq.heappop(overflow)
            self._len -= 1
        if overflow and (t is None or overflow[0].time < t):
            t = overflow[0].time
        return t

    def peek(self) -> Optional[Event]:
        """The next live event without (observably) removing it."""
        ev = self.pop()
        if ev is not None:
            self.push(ev)
        return ev

    def compact(self) -> None:
        """Drop every cancelled entry (rebuilds all bins in place)."""
        live: list[Event] = []
        for ev in self._due:
            if not ev.cancelled:
                live.append(ev)
        for slots in self._slots:
            for bucket in slots.values():
                live.extend(ev for ev in bucket if not ev.cancelled)
        live.extend(ev for ev in self._overflow if not ev.cancelled)
        self._due = []
        self._overflow = []
        for level in range(self._levels):
            self._slots[level] = {}
            self._occupied[level] = []
        self._len = 0
        for ev in live:
            self.push(ev)


#: Delays below this stay on the binary heap (the C-accelerated hot path
#: for packet deliveries and loss alarms); longer timers — idle and drain
#: alarms by the thousand on a busy server — park in the hierarchical
#: wheel, where a cancelled timer is O(1) garbage in a far slot instead
#: of heap ballast that every nearby push/pop has to sift around.
NEAR_HORIZON = 0.25


class Simulator:
    """A deterministic discrete-event simulator.

    Typical usage::

        sim = Simulator()
        sim.schedule(1.0, print, "hello")
        sim.run()

    Internally the queue is split in two: events due within
    :data:`NEAR_HORIZON` seconds live on a binary heap, far timers on a
    :class:`TimerWheel`.  ``_pop`` merges the two by exact ``(time,
    seq)`` order, so the split is invisible — determinism and fire order
    are identical to a single queue.
    """

    def __init__(self, metrics=None) -> None:
        self.now: float = 0.0
        self._heap: list[Event] = []
        self._wheel = TimerWheel()
        self._seq = itertools.count()
        self._running = False
        self._live = 0  # non-cancelled events currently queued
        self._heap_garbage = 0   # cancelled entries still on the heap
        self._wheel_garbage = 0  # cancelled entries still in the wheel
        # Cached lower bound on the wheel's earliest entry (None = stale).
        # Keeps the near-event fast path from rescanning wheel levels on
        # every pop while thousands of far timers are standing.
        self._wheel_bound: Optional[float] = None
        self.events_fired = 0  # total events executed (observability)
        #: Events *saved* by GSO/GRO batching: each n-segment burst rides
        #: one delivery event where n single datagrams would schedule n.
        self.events_coalesced = 0
        #: Optional :class:`~repro.trace.metrics.MetricsRegistry`; run
        #: loops fold their event counts into it on exit (never per
        #: event, so the loop itself stays metric-free).
        self.metrics = metrics

    def note_coalesced(self, saved: int) -> None:
        """Record ``saved`` events avoided by delivering a burst as one."""
        self.events_coalesced += saved
        if self.metrics is not None and saved:
            self.metrics.counter("sim.events_coalesced").inc(saved)

    def _account(self, fired: int) -> None:
        """Fold a run's event count into the counters / registry."""
        self.events_fired += fired
        if self.metrics is not None:
            if fired:
                self.metrics.counter("sim.events_fired").inc(fired)
            self.metrics.gauge("sim.pending").set(float(self.pending()))
            self.metrics.gauge("sim.now_s").set(self.now)

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        ev = Event(self.now + delay, next(self._seq), fn, args, sim=self)
        ev._queued = True
        self._live += 1
        if delay < NEAR_HORIZON:
            heapq.heappush(self._heap, ev)
        else:
            ev._far = True
            self._wheel.push(ev)
            wb = self._wheel_bound
            if wb is not None and ev.time < wb:
                self._wheel_bound = ev.time
        return ev

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        return self.schedule(max(0.0, time - self.now), fn, *args)

    def pending(self) -> int:
        """Number of non-cancelled events still queued (O(1))."""
        return self._live

    def _on_cancel(self, ev: Event) -> None:
        """Counter upkeep when a queued event is cancelled; compacts
        whichever queue the garbage lives in once it outnumbers the live
        entries there."""
        self._live -= 1
        if ev._far:
            self._wheel_garbage += 1
            if (self._wheel_garbage * 2 > len(self._wheel)
                    and len(self._wheel) > 8):
                self._wheel.compact()
                self._wheel_garbage = 0
                self._wheel_bound = None
        else:
            self._heap_garbage += 1
            if (self._heap_garbage * 2 > len(self._heap)
                    and len(self._heap) > 8):
                self._heap = [e for e in self._heap if not e.cancelled]
                heapq.heapify(self._heap)
                self._heap_garbage = 0

    def _pop(self) -> Optional[Event]:
        """Pop the next live event across both queues in exact
        ``(time, seq)`` order, dropping lazily-deleted entries."""
        heap = self._heap
        wheel = self._wheel
        while True:
            while heap and heap[0].cancelled:
                heapq.heappop(heap)
                self._heap_garbage -= 1
            if len(wheel):
                wt = self._wheel_bound
                if wt is None:
                    wt = self._wheel_bound = wheel.next_time()
                if wt is not None and (not heap or wt <= heap[0].time):
                    ev = wheel.pop()
                    self._wheel_bound = None
                    if ev is None:  # the wheel held only garbage
                        continue
                    if heap and heap[0] < ev:
                        # The bound undersold the wheel: the heap head is
                        # actually first.  The extracted event rides the
                        # heap from here on (it is near-term now anyway).
                        ev._far = False
                        heapq.heappush(heap, ev)
                        continue
                    ev._queued = False
                    ev._far = False
                    self._live -= 1
                    return ev
            if not heap:
                return None
            ev = heapq.heappop(heap)
            ev._queued = False
            self._live -= 1
            return ev

    def _push_back(self, ev: Event) -> None:
        """Requeue a popped-but-not-yet-due event (run/run_until cutoffs)."""
        ev._queued = True
        self._live += 1
        if ev.time - self.now < NEAR_HORIZON:
            heapq.heappush(self._heap, ev)
        else:
            ev._far = True
            self._wheel.push(ev)
            wb = self._wheel_bound
            if wb is not None and ev.time < wb:
                self._wheel_bound = ev.time

    def _peek(self) -> Optional[Event]:
        """The next live event without (observably) removing it."""
        ev = self._pop()
        if ev is not None:
            self._push_back(ev)
        return ev

    def step(self) -> bool:
        """Run the next event. Returns False when the queue is empty."""
        ev = self._pop()
        if ev is None:
            return False
        self.now = ev.time
        ev.fn(*ev.args)
        self._account(1)
        return True

    def _on_limit(self, max_events: int, on_max_events: str) -> None:
        """Report hitting the runaway guard with enough context to debug
        *what* was still spinning (current time, queue depth, next event)."""
        head = self._peek()
        msg = (
            f"simulation exceeded {max_events} events at t={self.now:.6f} "
            f"with {self.pending()} events still pending"
            + (f"; next: {head!r}" if head is not None else "")
        )
        if on_max_events == "warn":
            warnings.warn(msg, RuntimeWarning, stacklevel=3)
            return
        raise RuntimeError(msg)

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 50_000_000,
        on_max_events: str = "raise",
    ) -> None:
        """Run events until the queue drains or ``until`` (absolute time).

        ``max_events`` is a runaway guard.  ``on_max_events`` selects what
        hitting it does: ``"raise"`` (default) raises RuntimeError,
        ``"warn"`` emits a RuntimeWarning and returns with the remaining
        events still queued, so callers can inspect the stuck state.
        """
        if on_max_events not in ("raise", "warn"):
            raise ValueError(f"on_max_events must be 'raise' or 'warn', "
                             f"got {on_max_events!r}")
        count = 0
        try:
            while True:
                ev = self._pop()
                if ev is None:
                    break
                if until is not None and ev.time > until:
                    self._push_back(ev)
                    self.now = until
                    return
                self.now = ev.time
                ev.fn(*ev.args)
                count += 1
                if count >= max_events:
                    self._on_limit(max_events, on_max_events)
                    return
            if until is not None:
                self.now = max(self.now, until)
        finally:
            self._account(count)

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float = 3600.0,
        max_events: int = 50_000_000,
        on_max_events: str = "raise",
    ) -> bool:
        """Run until ``predicate()`` is true. Returns whether it became true.

        ``timeout`` is in absolute simulated seconds from the current time.
        ``on_max_events`` behaves as in :meth:`run`.
        """
        if on_max_events not in ("raise", "warn"):
            raise ValueError(f"on_max_events must be 'raise' or 'warn', "
                             f"got {on_max_events!r}")
        deadline = self.now + timeout
        count = 0
        fired = 0
        if predicate():
            return True
        try:
            while True:
                ev = self._pop()
                if ev is None:
                    break
                if ev.time > deadline:
                    # Put it back: the caller may keep running later.
                    self._push_back(ev)
                    self.now = deadline
                    return predicate()
                self.now = ev.time
                ev.fn(*ev.args)
                fired += 1
                if predicate():
                    return True
                count += 1
                if count >= max_events:
                    self._on_limit(max_events, on_max_events)
                    return predicate()
            return predicate()
        finally:
            self._account(fired)
