"""Unit tests for the discrete-event simulation kernel."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(3.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 3.0


def test_simultaneous_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for name in "abcde":
        sim.schedule(1.0, fired.append, name)
    sim.run()
    assert fired == list("abcde")


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    ev = sim.schedule(1.0, fired.append, "x")
    sim.schedule(2.0, fired.append, "y")
    ev.cancel()
    sim.run()
    assert fired == ["y"]


def test_cancel_is_idempotent():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    ev.cancel()
    ev.cancel()
    sim.run()
    assert sim.pending() == 0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)


def test_run_until_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(5.0, fired.append, "b")
    sim.run(until=2.0)
    assert fired == ["a"]
    assert sim.now == 2.0
    sim.run()
    assert fired == ["a", "b"]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_schedule_at_absolute():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    fired = []
    sim.schedule_at(0.5, fired.append, "late")  # in the past -> now
    sim.run()
    assert fired == ["late"]
    assert sim.now == 1.0


def test_run_until_predicate():
    sim = Simulator()
    state = {"done": False}
    sim.schedule(1.0, lambda: state.update(done=True))
    sim.schedule(10.0, lambda: None)
    ok = sim.run_until(lambda: state["done"], timeout=100.0)
    assert ok
    assert sim.now == 1.0
    # The 10.0 event is still pending.
    assert sim.pending() == 1


def test_run_until_timeout():
    sim = Simulator()
    sim.schedule(50.0, lambda: None)
    ok = sim.run_until(lambda: False, timeout=10.0)
    assert not ok
    assert sim.now == 10.0


def test_runaway_guard():
    sim = Simulator()

    def loop():
        sim.schedule(0.0, loop)

    sim.schedule(0.0, loop)
    with pytest.raises(RuntimeError):
        sim.run(max_events=1000)


def test_runaway_guard_message_is_diagnostic():
    """The error must say when the simulation was stuck and how much work
    was still queued, not just that it stopped."""
    sim = Simulator()

    def loop():
        sim.schedule(0.25, loop)

    sim.schedule(0.0, loop)
    with pytest.raises(RuntimeError) as err:
        sim.run(max_events=100)
    msg = str(err.value)
    assert "100 events" in msg
    assert "t=" in msg
    assert "pending" in msg
    assert "next: <Event t=25.000000" in msg


def test_runaway_guard_warn_mode_keeps_state():
    sim = Simulator()

    def loop():
        sim.schedule(0.5, loop)

    sim.schedule(0.0, loop)
    with pytest.warns(RuntimeWarning, match="exceeded 10 events"):
        sim.run(max_events=10, on_max_events="warn")
    # The stuck state is inspectable instead of torn down.
    assert sim.pending() == 1
    assert sim.now == pytest.approx(4.5)


def test_runaway_guard_warn_mode_run_until():
    sim = Simulator()

    def loop():
        sim.schedule(0.5, loop)

    sim.schedule(0.0, loop)
    with pytest.warns(RuntimeWarning):
        ok = sim.run_until(lambda: False, max_events=10,
                           on_max_events="warn")
    assert not ok


def test_invalid_on_max_events_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.run(on_max_events="explode")


def test_step_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    assert sim.step()
    assert fired == [1]
    assert sim.step()
    assert not sim.step()


# --- ordering, cancellation and the queue contract ---------------------------

def test_mixed_delays_fire_in_time_order():
    sim = Simulator()
    fired = []
    delays = [0.001, 0.249999, 0.25, 0.250001, 0.1, 0.9, 0.3, 5.0, 0.24,
              0.26, 2.5, 0.0]
    for d in delays:
        sim.schedule(d, fired.append, d)
    sim.run()
    assert fired == sorted(delays)


def test_equal_deadlines_fire_in_scheduling_order_across_runs():
    """An event scheduled long ago and one scheduled just now for the same
    instant fire in scheduling order."""
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "first")
    sim.run(until=0.9)
    sim.schedule(0.1, fired.append, "second")
    sim.run()
    assert fired == ["first", "second"]


def test_cancellation_and_compaction():
    sim = Simulator()
    fired = []
    events = [sim.schedule(10.0 + i, fired.append, i) for i in range(100)]
    keep = events[::10]
    for ev in events:
        if ev not in keep:
            ev.cancel()
    assert sim.pending() == len(keep)
    assert len(sim._heap) < 2 * len(keep) + 8  # compacted along the way
    sim.run()
    assert fired == [0, 10, 20, 30, 40, 50, 60, 70, 80, 90]


def test_schedule_cancel_determinism_against_reference():
    """A mixed schedule/cancel workload fires exactly like a sorted list."""
    sim = Simulator()
    fired = []
    expected = []
    # A deterministic pseudo-random stream (no RNG: keep the test simple).
    seq = [(i * 2654435761 % 1000) / 250.0 for i in range(300)]
    handles = []
    for i, d in enumerate(seq):
        handles.append((d, i, sim.schedule(d, fired.append, (d, i))))
    for j, (d, i, ev) in enumerate(handles):
        if j % 3 == 0:
            ev.cancel()
        else:
            expected.append((d, i))
    expected.sort()
    sim.run()
    assert fired == expected


def test_far_future_event_fires_last():
    sim = Simulator()
    fired = []
    sim.schedule(2_000_000.0, fired.append, "far")
    sim.schedule(1.0, fired.append, "second")
    sim.schedule(0.01, fired.append, "first")
    sim.run()
    assert fired == ["first", "second", "far"]
    assert sim.now == 2_000_000.0


def test_run_until_timeout_keeps_the_late_event():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "late")
    assert not sim.run_until(lambda: False, timeout=1.0)
    assert sim.pending() == 1
    sim.schedule(0.5, fired.append, "early")  # now at t=1.0 -> fires at 1.5
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_drained_leaves_now_alone():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    assert not sim.run_until(lambda: False, timeout=10.0)
    assert sim.now == 1.0


def test_run_until_true_predicate_fires_nothing():
    sim = Simulator()
    sim.schedule(0.0, lambda: None)
    assert sim.run_until(lambda: True)
    assert sim.pending() == 1
    assert sim.events_fired == 0


def test_run_with_until_advances_now_past_a_drained_queue():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=3.0)
    assert sim.now == 3.0


def test_rearm_churn_stays_bounded():
    """Cancel + reschedule of a standing timer (the per-packet idle alarm
    pattern) must not accumulate dead events."""
    sim = Simulator()
    alarm = sim.schedule(30.0, lambda: None)
    for _ in range(5000):
        alarm.cancel()
        alarm = sim.schedule(30.0, lambda: None)
    assert sim.pending() == 1
    # The heap holds at most O(live + recent garbage) entries.
    assert len(sim._heap) < 64


class ReferenceQueue:
    """The queue contract spelled out on a plain list: the live entry
    with the least ``(time, seq)`` fires next."""

    def __init__(self):
        self.now = 0.0
        self.queue = []  # [time, seq, label, child_delay]
        self.seq = 0
        self.fired = []

    def schedule(self, delay, label, child):
        entry = [self.now + delay, self.seq, label, child]
        self.seq += 1
        self.queue.append(entry)
        return entry

    def cancel(self, entry):
        self.queue = [e for e in self.queue if e is not entry]

    def fire_next(self, until=math.inf):
        """'fired', 'late' (the head is due after ``until``) or 'empty'."""
        if not self.queue:
            return "empty"
        head = min(self.queue, key=lambda e: (e[0], e[1]))
        if head[0] > until:
            return "late"
        self.cancel(head)
        self.now = head[0]
        self.fired.append(head[2])
        if head[3] is not None:
            self.schedule(head[3], ("child", head[2]), None)
        return "fired"

    def run(self, until):
        result = "fired"
        while result == "fired":
            result = self.fire_next(math.inf if until is None else until)
        if until is not None:
            self.now = until if result == "late" else max(self.now, until)

    def run_until(self, predicate, timeout):
        deadline = self.now + timeout
        if predicate():
            return True
        while True:
            result = self.fire_next(deadline)
            if result != "fired":
                if result == "late":
                    self.now = deadline
                return predicate()
            if predicate():
                return True


DELAYS = st.sampled_from([0.0, 0.001, 0.25, 0.5, 1.0, 30.0]) | st.floats(
    0.0, 100.0, allow_nan=False)
SCHEDULE = st.tuples(st.just("schedule"), DELAYS, st.none() | DELAYS)
CANCEL = st.tuples(st.just("cancel"), st.integers(0, 1000))
# Batches of schedules and cancels of queued events grow the heap past
# the size where cancelled garbage gets compacted away.
OPS = st.lists(st.one_of(
    SCHEDULE, CANCEL, CANCEL,
    st.tuples(st.just("schedule_many"), st.lists(DELAYS, max_size=20)),
    st.tuples(st.just("cancel_many"), st.integers(1, 3)),
    st.tuples(st.just("schedule_at"), st.floats(0.0, 60.0), st.none() | DELAYS),
    st.tuples(st.just("run"), st.none() | st.floats(0.0, 20.0)),
    st.tuples(st.just("run_until"), st.integers(0, 5), st.floats(0.0, 20.0)),
    st.tuples(st.just("step")),
), max_size=80)


@settings(max_examples=300, deadline=None)
@given(OPS)
def test_queue_matches_sorted_list_reference(ops):
    """Random schedule / schedule_at / cancel / run / run_until / step
    sequences fire in the reference's order and leave the same
    ``pending()`` and ``now`` after every call.  A fired event may
    schedule one child, so the queue also grows while it runs."""
    sim = Simulator()
    ref = ReferenceQueue()
    fired = []
    handles = []

    def fire(label, child):
        fired.append(label)
        if child is not None:
            sim.schedule(child, fire, ("child", label), None)

    def queued():
        return [h for h in handles if any(h[1] is e for e in ref.queue)]

    def schedule(delay, child):
        label = len(handles)
        ev = sim.schedule(delay, fire, label, child)
        handles.append((ev, ref.schedule(delay, label, child)))

    for op in ops + [("run", None)]:  # drain at the end
        kind = op[0]
        if kind == "schedule":
            schedule(op[1], op[2])
        elif kind == "schedule_many":
            for delay in op[1]:
                schedule(delay, None)
        elif kind == "schedule_at":
            label = len(handles)
            ev = sim.schedule_at(op[1], fire, label, op[2])
            entry = ref.schedule(max(0.0, op[1] - ref.now), label, op[2])
            handles.append((ev, entry))
        elif kind == "cancel" and handles:
            # A queued event while there is one; otherwise a fired or
            # cancelled one, whose cancel must be a no-op.
            pool = queued() or handles
            ev, entry = pool[op[1] % len(pool)]
            ev.cancel()
            ref.cancel(entry)
        elif kind == "cancel_many":
            for ev, entry in queued()[::op[1]]:
                ev.cancel()
                ref.cancel(entry)
        elif kind == "run":
            until = None if op[1] is None else sim.now + op[1]
            sim.run(until=until)
            ref.run(until)
        elif kind == "run_until":
            target = len(fired) + op[1]
            got = sim.run_until(lambda: len(fired) >= target, timeout=op[2])
            want = ref.run_until(lambda: len(ref.fired) >= target, op[2])
            assert got == want
        elif kind == "step":
            assert sim.step() == (ref.fire_next() == "fired")
        assert fired == ref.fired
        assert sim.pending() == len(ref.queue)
        assert sim.now == ref.now


