"""Deterministic fault injection for chaos experiments.

The Figure-7 testbed shapes links with NetEm/HTB and replays seeded loss
patterns; this module adds the *fault* half of that methodology — the
conditions a robust PQUIC deployment must survive but a clean testbed
never produces:

* **corruption** — a byte of the datagram payload is flipped in flight
  (the QUIC AEAD then rejects the packet, so corruption must look like
  loss, never like a connection error);
* **duplication** — the datagram is delivered twice;
* **reordering bursts** — the datagram is held back so later packets
  overtake it;
* **link flaps** — scheduled windows during which the wrapped pipes
  black-hole everything;
* **NAT rebinds** — a scheduled flush of a :class:`~repro.netsim.node.Nat`
  hop's binding table, so an inside flow reappears from a new external
  address mid-connection (RFC 9000 §9 migration);
* **address spoofs** — a single forged datagram injected with an
  attacker-chosen source address (off-path injection, RFC 9000 §9.3.2).

Every fault type draws from its *own* seeded RNG on *every* packet, so
enabling or re-rating one fault never shifts the decision sequence of the
others, and an experiment replayed with the same seed sees the identical
fault pattern — the property the paper relies on for fair comparisons.

A :class:`FaultInjector` wraps existing :class:`~repro.netsim.link.Pipe`
delivery callbacks in place; topologies do not need to know about it::

    injector = FaultInjector(sim, seed=7, corrupt_rate=0.05)
    injector.inject_link(topology.link)
    injector.schedule_flap(down_at=1.0, duration=0.5)
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable

from .link import Link, Pipe
from .sim import Simulator


class FaultStats:
    """Counters for every injected fault, per injector."""

    __slots__ = ("corrupted", "duplicated", "reordered", "dropped_down",
                 "flaps", "delivered", "nat_rebinds", "spoofed")

    def __init__(self) -> None:
        self.corrupted = 0
        self.duplicated = 0
        self.reordered = 0
        self.dropped_down = 0
        self.flaps = 0
        self.delivered = 0
        self.nat_rebinds = 0
        self.spoofed = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"<FaultStats {inner}>"


class FaultInjector:
    """Seeded fault injection on the delivery side of existing pipes.

    Rates are per-datagram probabilities in ``[0, 1]``.  ``reorder_delay``
    is how long a reordered datagram is held back (it re-enters the event
    queue after packets that were behind it)."""

    def __init__(
        self,
        sim: Simulator,
        seed: int = 0,
        corrupt_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        reorder_rate: float = 0.0,
        reorder_delay: float = 0.05,
    ):
        for name, rate in (("corrupt_rate", corrupt_rate),
                           ("duplicate_rate", duplicate_rate),
                           ("reorder_rate", reorder_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]: {rate}")
        if reorder_delay < 0:
            raise ValueError("reorder_delay must be >= 0")
        self.sim = sim
        self.corrupt_rate = corrupt_rate
        self.duplicate_rate = duplicate_rate
        self.reorder_rate = reorder_rate
        self.reorder_delay = reorder_delay
        # One independent stream per fault type, all derived from `seed`:
        # re-rating one fault must not shift the others' decisions.
        self._corrupt_rng = random.Random(seed * 4 + 1)
        self._dup_rng = random.Random(seed * 4 + 2)
        self._reorder_rng = random.Random(seed * 4 + 3)
        self.down = False
        self.stats = FaultStats()

    # --- wiring -----------------------------------------------------------

    def inject(self, pipe: Pipe) -> None:
        """Interpose on ``pipe``'s delivery, now and for future connects."""
        original_connect = pipe.connect

        def wrapped_connect(deliver: Callable) -> None:
            original_connect(self._make_deliver(deliver))

        pipe.connect = wrapped_connect  # type: ignore[method-assign]
        if pipe._deliver is not None:
            pipe._deliver = self._make_deliver(pipe._deliver)

    def inject_link(self, link: Link) -> None:
        """Interpose on both directions of a bidirectional link."""
        self.inject(link.forward)
        self.inject(link.backward)

    def _make_deliver(self, inner: Callable) -> Callable:
        def deliver(packet) -> None:
            self._process(inner, packet)
        return deliver

    # --- link flaps -------------------------------------------------------

    def set_down(self, down: bool) -> None:
        if down and not self.down:
            self.stats.flaps += 1
        self.down = down

    def schedule_flap(self, down_at: float, duration: float) -> None:
        """Black-hole the wrapped pipes for ``[down_at, down_at+duration)``
        (absolute simulation time)."""
        if duration <= 0:
            raise ValueError("flap duration must be > 0")
        self.sim.schedule_at(down_at, self.set_down, True)
        self.sim.schedule_at(down_at + duration, self.set_down, False)

    # --- address-level adversaries ----------------------------------------

    def schedule_nat_rebind(self, nat, at: float) -> None:
        """Flush ``nat``'s binding table at ``at`` (absolute simulation
        time): its inside flows reappear from a fresh external
        address/port and the transport must survive the migration."""
        if at < 0:
            raise ValueError("rebind time must be >= 0")
        self.sim.schedule_at(at, self._do_rebind, nat)

    def _do_rebind(self, nat) -> None:
        nat.rebind()
        self.stats.nat_rebinds += 1

    def schedule_address_spoof(self, host, at: float, payload: bytes,
                               src_addr: str, src_port: int,
                               dst_addr: str, dst_port: int) -> None:
        """Inject one forged datagram with an attacker-chosen source at
        ``at``.  ``host`` is the attacker's injection point and must own
        an interface for ``src_addr``."""
        if at < 0:
            raise ValueError("spoof time must be >= 0")
        self.sim.schedule_at(at, self._do_spoof, host, payload,
                             src_addr, src_port, dst_addr, dst_port)

    def _do_spoof(self, host, payload, src_addr, src_port,
                  dst_addr, dst_port) -> None:
        self.stats.spoofed += 1
        host.sendto(payload, src_addr, src_port, dst_addr, dst_port)

    # --- the fault pipeline -----------------------------------------------

    def _process(self, inner: Callable, packet) -> None:
        if getattr(packet, "segments", None) is not None:
            self._process_burst(inner, packet)
            return
        packet = self._fault(inner, packet)
        if packet is not None:
            self._deliver_counted(inner, packet)

    def _process_burst(self, inner: Callable, burst) -> None:
        """Unbundle a GSO burst through the fault pipeline: every segment
        gets its own draws (the RNG sequence the same datagrams sent one
        by one would see), faulted segments splinter off into their own
        delivery events, and the clean survivors continue as one burst."""
        survivors = []
        for packet in burst.segments:
            packet = self._fault(inner, packet)
            if packet is not None:
                survivors.append(packet)
        if not survivors:
            return
        burst.segments = survivors
        self.stats.delivered += len(survivors)
        inner(burst)

    def _fault(self, inner: Callable, packet):
        """One datagram's fault draws.  Returns the (possibly corrupted)
        datagram the caller delivers now, or None when it was dropped or
        rescheduled (a reordered copy)."""
        # Draw every RNG on every packet, even at rate 0, to keep each
        # stream aligned across configurations.
        corrupt = self._corrupt_rng.random() < self.corrupt_rate
        duplicate = self._dup_rng.random() < self.duplicate_rate
        reorder = self._reorder_rng.random() < self.reorder_rate
        if self.down:
            self.stats.dropped_down += 1
            return None
        if corrupt:
            packet = self._corrupt(packet)
            self.stats.corrupted += 1
        if duplicate:
            # The copy re-enters the queue at the current time, landing
            # right behind the original.
            self.stats.duplicated += 1
            self.sim.schedule(0.0, self._deliver_counted, inner, packet)
        if reorder:
            self.stats.reordered += 1
            self.sim.schedule(self.reorder_delay, self._deliver_counted,
                              inner, packet)
            return None
        return packet

    def _deliver_counted(self, inner: Callable, packet) -> None:
        self.stats.delivered += 1
        inner(packet)

    def _corrupt(self, packet):
        payload = getattr(packet, "payload", b"")
        if not payload:
            return packet
        index = self._corrupt_rng.randrange(len(payload))
        mask = 1 + self._corrupt_rng.randrange(255)  # never a no-op flip
        mutated = bytearray(payload)
        mutated[index] ^= mask
        return dataclasses.replace(packet, payload=bytes(mutated))
