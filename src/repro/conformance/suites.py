"""Named conformance suites.

A suite is just a list of :class:`Scenario` values; the declarative
scenario format lets a few dozen lines here compose the existing netsim
topologies, :class:`FaultInjector` primitives and bundled plugins into
JIT × interpreter sweeps.  ``smoke`` is the blocking CI gate; ``faults``
leans harder on the fault space; ``tiny`` exists for fast unit tests.
Random exploration is a seeded sweep (``repro conform --cases N --seed
S``), not a suite — see :func:`repro.conformance.random_scenarios`.
"""

from __future__ import annotations

from typing import Dict, List

from .scenario import FaultEvent, Scenario, Topology, Workload


def smoke_suite() -> List[Scenario]:
    return [
        Scenario(
            name="clean-baseline",
            workload=Workload(size=24_000),
            topology=Topology(d_ms=10.0, bw_mbps=20.0),
            seed=3,
        ),
        Scenario(
            name="lossy-monitoring",
            workload=Workload(size=30_000),
            topology=Topology(d_ms=10.0, bw_mbps=20.0, loss_pct=1.0),
            plugins=("monitoring",),
            seed=5,
        ),
        Scenario(
            name="chaos-trio",
            workload=Workload(size=24_000),
            topology=Topology(d_ms=5.0, bw_mbps=20.0),
            plugins=("monitoring",),
            faults=(
                FaultEvent(kind="corrupt", rate=0.005),
                FaultEvent(kind="duplicate", rate=0.01),
                FaultEvent(kind="reorder", rate=0.02),
            ),
            seed=7,
        ),
        Scenario(
            name="flap-ccontrol",
            workload=Workload(size=24_000),
            topology=Topology(d_ms=10.0, bw_mbps=10.0),
            plugins=("ccontrol",),
            faults=(FaultEvent(kind="flap", at=0.3, duration=0.15),),
            seed=11,
        ),
        Scenario(
            name="fec-lossy",
            workload=Workload(size=20_000),
            topology=Topology(d_ms=10.0, bw_mbps=10.0, loss_pct=3.0),
            plugins=("fec-xor",),
            seed=13,
        ),
        Scenario(
            # A deliberately conflicting plugin pair: both replace the
            # same protoop, so the second must be rejected at attach time
            # by the conflict analyzer (PRE200) and the transfer must go
            # on without it.
            name="conflict-pair-rejected",
            workload=Workload(size=16_000),
            topology=Topology(d_ms=10.0, bw_mbps=20.0),
            plugins=("monitoring", "x-conflict-a", "x-conflict-b"),
            seed=37,
        ),
        Scenario(
            name="nat-rebind",
            workload=Workload(size=24_000),
            topology=Topology(kind="nat", d_ms=10.0, bw_mbps=10.0),
            plugins=("monitoring",),
            faults=(FaultEvent(kind="nat_rebind", at=0.25),),
            seed=17,
        ),
        Scenario(
            # 2% ambient loss on a long-ish path: exercises the RFC 9002
            # recovery machinery end to end (PTO probes, spurious-loss
            # undo, persistent-congestion checks) and pins the new
            # recovery stats/metrics into the cross-mode parity oracles.
            name="pto-probe-lossy",
            workload=Workload(size=28_000),
            topology=Topology(d_ms=25.0, bw_mbps=10.0, loss_pct=2.0),
            plugins=("monitoring",),
            seed=41,
        ),
        Scenario(
            # The CC plugin replaces the window law under monitoring on a
            # lossy path: the host must still release flight and publish
            # every window move, so monitoring's cwnd_observer runs once
            # per acked or lost in-flight packet in both modes.
            name="lossy-ccontrol-monitoring",
            workload=Workload(size=30_000),
            topology=Topology(d_ms=10.0, bw_mbps=20.0, loss_pct=2.0),
            plugins=("monitoring", "ccontrol"),
            seed=47,
        ),
        Scenario(
            # FEC over both paths of a lossy multipath transfer: every
            # path numbers its packets from 0, so a source symbol is a
            # (path id, pn) pair and a recovered packet is injected into
            # the space of the path it was sent on.
            name="lossy-fec-multipath",
            workload=Workload(size=60_000),
            topology=Topology(d_ms=10.0, bw_mbps=20.0, loss_pct=2.0),
            plugins=("multipath", "fec-rlc"),
            seed=79,
        ),
    ]


def faults_suite() -> List[Scenario]:
    """Heavier fault pressure than smoke; the nightly sweep's fixed half."""
    return [
        Scenario(
            name="corrupt-heavy",
            workload=Workload(size=40_000),
            topology=Topology(d_ms=10.0, bw_mbps=20.0, loss_pct=1.0),
            plugins=("monitoring",),
            faults=(FaultEvent(kind="corrupt", rate=0.03),),
            seed=19,
        ),
        Scenario(
            name="dup-reorder-storm",
            workload=Workload(size=40_000),
            topology=Topology(d_ms=5.0, bw_mbps=20.0),
            plugins=("fec-xor",),
            faults=(
                FaultEvent(kind="duplicate", rate=0.05),
                FaultEvent(kind="reorder", rate=0.05, delay=0.03),
            ),
            seed=23,
        ),
        Scenario(
            name="double-flap",
            workload=Workload(size=32_000),
            topology=Topology(d_ms=10.0, bw_mbps=10.0),
            faults=(
                FaultEvent(kind="flap", at=0.2, duration=0.1),
                FaultEvent(kind="flap", at=0.8, duration=0.1),
            ),
            seed=29,
        ),
        Scenario(
            name="nat-rebind-lossy",
            workload=Workload(size=32_000),
            topology=Topology(kind="nat", d_ms=10.0, bw_mbps=10.0,
                              loss_pct=1.0),
            plugins=("monitoring",),
            faults=(
                FaultEvent(kind="nat_rebind", at=0.2),
                FaultEvent(kind="reorder", rate=0.02),
            ),
            seed=31,
        ),
    ]


def tiny_suite() -> List[Scenario]:
    """One minimal scenario; unit tests and CLI smoke use it."""
    return [
        Scenario(
            name="tiny",
            workload=Workload(size=8_000),
            topology=Topology(d_ms=5.0, bw_mbps=50.0),
            plugins=("monitoring",),
            seed=2,
        ),
    ]


SUITES: Dict[str, object] = {
    "smoke": smoke_suite,
    "faults": faults_suite,
    "tiny": tiny_suite,
}


def load_suite(name: str) -> List[Scenario]:
    try:
        factory = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r} "
                         f"(known: {', '.join(sorted(SUITES))})") from None
    return factory()
