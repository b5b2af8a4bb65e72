"""Discrete-event simulation kernel.

The whole evaluation of the paper runs on a lab testbed (Figure 7) shaped
with NetEm/HTB.  This module provides the equivalent substrate: a
deterministic event loop with cancellable timers on which links, routers,
hosts and transport endpoints are built.
"""

from __future__ import annotations

import heapq
import itertools
import math
import warnings
from typing import Any, Callable, Optional


class Event:
    """A scheduled callback. Returned by :meth:`Simulator.schedule`."""

    __slots__ = ("time", "fn", "args", "cancelled", "_sim")

    def __init__(self, time: float, fn: Callable[..., Any], args: tuple,
                 sim: Optional["Simulator"]):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim  # owner while queued, notified on cancel

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._on_cancel()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} {self.fn!r} {state}>"


class Simulator:
    """A deterministic discrete-event simulator.

    Typical usage::

        sim = Simulator()
        sim.schedule(1.0, print, "hello")
        sim.run()

    The queue is one binary heap of ``(time, seq, event)`` tuples.  The
    scheduling sequence number is unique, so simultaneous events fire in
    scheduling order and the tuples compare in C without ever reaching
    the event.  Cancellation only marks the event; dead entries are
    dropped when they reach the head, or all at once when they outnumber
    the live ones.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._live = 0     # non-cancelled events currently queued
        self._garbage = 0  # cancelled entries still on the heap
        self.events_fired = 0  # total events executed (observability)
        #: Events *saved* by GSO/GRO batching: each n-segment burst rides
        #: one delivery event where n single datagrams would schedule n.
        self.events_coalesced = 0

    def note_coalesced(self, saved: int) -> None:
        """Record ``saved`` events avoided by delivering a burst as one."""
        self.events_coalesced += saved

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        time = self.now + delay
        ev = Event(time, fn, args, self)
        heapq.heappush(self._heap, (time, next(self._seq), ev))
        self._live += 1
        return ev

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        return self.schedule(max(0.0, time - self.now), fn, *args)

    def pending(self) -> int:
        """Number of non-cancelled events still queued (O(1))."""
        return self._live

    def _on_cancel(self) -> None:
        """Counter upkeep when a queued event is cancelled; compacts the
        heap in place once garbage outnumbers the live entries."""
        self._live -= 1
        self._garbage += 1
        heap = self._heap
        if self._garbage * 2 > len(heap) and len(heap) > 8:
            heap[:] = [entry for entry in heap if not entry[2].cancelled]
            heapq.heapify(heap)
            self._garbage = 0

    def _head(self) -> Optional[Event]:
        """The next live event, dropping cancelled entries off the top."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._garbage -= 1
        return heap[0][2] if heap else None

    def step(self) -> bool:
        """Run the next event. Returns False when the queue is empty."""
        ev = self._head()
        if ev is None:
            return False
        heapq.heappop(self._heap)
        ev._sim = None
        self._live -= 1
        self.now = ev.time
        ev.fn(*ev.args)
        self.events_fired += 1
        return True

    def _on_limit(self, max_events: int, on_max_events: str) -> None:
        """Report hitting the runaway guard with enough context to debug
        *what* was still spinning (current time, queue depth, next event)."""
        head = self._head()
        msg = (
            f"simulation exceeded {max_events} events at t={self.now:.6f} "
            f"with {self.pending()} events still pending"
            + (f"; next: {head!r}" if head is not None else "")
        )
        if on_max_events == "warn":
            warnings.warn(msg, RuntimeWarning, stacklevel=4)
            return
        raise RuntimeError(msg)

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 50_000_000,
        on_max_events: str = "raise",
    ) -> None:
        """Run events until the queue drains or ``until`` (absolute time).

        ``now`` ends at ``until`` even when the queue drains earlier.
        ``max_events`` is a runaway guard.  ``on_max_events`` selects what
        hitting it does: ``"raise"`` (default) raises RuntimeError,
        ``"warn"`` emits a RuntimeWarning and returns with the remaining
        events still queued, so callers can inspect the stuck state.
        """
        self._loop(math.inf if until is None else until, until is not None,
                   None, max_events, on_max_events)

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float = 3600.0,
        max_events: int = 50_000_000,
        on_max_events: str = "raise",
    ) -> bool:
        """Run until ``predicate()`` is true. Returns whether it became true.

        ``timeout`` is in absolute simulated seconds from the current time;
        ``now`` stays put if the queue drains first.  ``on_max_events``
        behaves as in :meth:`run`.
        """
        return self._loop(self.now + timeout, False, predicate,
                          max_events, on_max_events)

    def _loop(
        self,
        until: float,
        advance: bool,
        predicate: Optional[Callable[[], bool]],
        max_events: int,
        on_max_events: str,
    ) -> bool:
        """The one run loop: fire events in ``(time, seq)`` order until
        the next one is due after ``until`` (``now`` then becomes
        ``until``), ``predicate`` holds after an event, ``max_events``
        have fired, or the queue drains (``now`` then advances to
        ``until`` only if ``advance``).  Returns ``predicate()`` at exit,
        False without a predicate; a predicate that already holds
        returns at once, without accounting."""
        if on_max_events not in ("raise", "warn"):
            raise ValueError(f"on_max_events must be 'raise' or 'warn', "
                             f"got {on_max_events!r}")
        if predicate is not None and predicate():
            return True
        heap = self._heap  # compaction rewrites it in place
        heappop = heapq.heappop
        fired = 0
        try:
            while heap:
                time, _, ev = heap[0]
                if ev.cancelled:
                    heappop(heap)
                    self._garbage -= 1
                    continue
                if time > until:
                    self.now = until
                    break
                heappop(heap)
                ev._sim = None
                self._live -= 1
                self.now = time
                ev.fn(*ev.args)
                fired += 1
                if predicate is not None and predicate():
                    return True
                if fired >= max_events:
                    self._on_limit(max_events, on_max_events)
                    break
            else:
                if advance:
                    self.now = max(self.now, until)
            return predicate is not None and predicate()
        finally:
            self.events_fired += fired
