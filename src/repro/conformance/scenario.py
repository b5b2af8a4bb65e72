"""Declarative conformance scenarios and execution modes.

A :class:`Scenario` is pure data — topology, workload, plugin set, fault
schedule, seed — with a stable JSON form, so a failing case can be saved
as a self-contained repro file and replayed bit-for-bit later.  A
:class:`Mode` pins the pluglet engine (``REPRO_JIT``: the JIT, or the
interpreter it is checked against); the engine runs every scenario under
both and the runs must be bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Sequence

#: Fault kinds expressed as per-datagram rates on the bottleneck link(s).
RATE_FAULTS = ("corrupt", "duplicate", "reorder")
#: Fault kinds scheduled at an absolute simulation time.
TIMED_FAULTS = ("flap", "nat_rebind")
FAULT_KINDS = RATE_FAULTS + TIMED_FAULTS


@dataclass(frozen=True)
class Mode:
    """The pluglet engine a run uses: the JIT (``J1``, the reference) or
    the interpreter (``J0``)."""

    jit: bool = True

    @property
    def name(self) -> str:
        return f"J{int(self.jit)}"

    def env(self) -> dict:
        return {"REPRO_JIT": "1" if self.jit else "0"}

    @classmethod
    def parse(cls, name: str) -> "Mode":
        """Inverse of :attr:`name`."""
        text = name.strip().upper()
        if text not in ("J1", "J0"):
            raise ValueError(f"bad mode {name!r} (expected J1 or J0)")
        return cls(jit=text == "J1")


#: Every mode, reference (JIT) first.
ALL_MODES = FAST_MODES = (Mode(), Mode(jit=False))


def parse_modes(spec: str) -> tuple:
    """Parse a comma-separated ``--modes`` list like ``J1,J0``."""
    modes = tuple(Mode.parse(part) for part in spec.split(",") if part.strip())
    if not modes:
        raise ValueError(f"no modes in {spec!r}")
    return modes


@dataclass(frozen=True)
class FaultEvent:
    """One entry of a fault schedule.

    ``corrupt``/``duplicate``/``reorder`` contribute ``rate`` (summed per
    kind, capped at 1.0) to the link-level :class:`FaultInjector`;
    ``flap`` black-holes the link for ``[at, at + duration)``;
    ``nat_rebind`` flushes the NAT binding table at ``at`` (``nat``
    topologies only)."""

    kind: str
    rate: float = 0.0
    at: float = 0.0
    duration: float = 0.0
    delay: float = 0.05

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(expected one of {FAULT_KINDS})")
        if self.kind in RATE_FAULTS and not 0.0 < self.rate <= 1.0:
            raise ValueError(f"{self.kind} fault needs rate in (0, 1]: {self.rate}")
        if self.kind == "flap" and self.duration <= 0:
            raise ValueError("flap fault needs duration > 0")


@dataclass(frozen=True)
class Topology:
    """The simulated network: ``symmetric`` (the paper's Figure-7 lab,
    both paths sharing {d, bw, l}) or ``nat`` (client behind an
    address-translating hop)."""

    kind: str = "symmetric"
    d_ms: float = 10.0
    bw_mbps: float = 20.0
    loss_pct: float = 0.0

    def __post_init__(self):
        if self.kind not in ("symmetric", "nat"):
            raise ValueError(f"unknown topology kind {self.kind!r}")


@dataclass(frozen=True)
class Workload:
    """One GET-style bulk download of ``size`` seeded-pattern bytes."""

    size: int = 30_000

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError("workload size must be > 0")


@dataclass(frozen=True)
class Scenario:
    name: str
    workload: Workload = field(default_factory=Workload)
    topology: Topology = field(default_factory=Topology)
    plugins: tuple = ()
    faults: tuple = ()
    seed: int = 1
    timeout: float = 120.0

    def __post_init__(self):
        object.__setattr__(self, "plugins", tuple(self.plugins))
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if fault.kind == "nat_rebind" and self.topology.kind != "nat":
                raise ValueError(
                    "nat_rebind faults require a 'nat' topology")

    # --- the expected payload --------------------------------------------

    def expected_payload(self) -> bytes:
        """The seeded pseudo-random response body.  Patterned (not
        constant) bytes so the delivered-byte oracle catches reassembly
        bugs, not just length bugs."""
        return random.Random(self.seed ^ 0x5EED).randbytes(self.workload.size)

    def expected_digest(self) -> str:
        return hashlib.sha256(self.expected_payload()).hexdigest()

    # --- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        return cls(
            name=data["name"],
            workload=Workload(**data.get("workload", {})),
            topology=Topology(**data.get("topology", {})),
            plugins=tuple(data.get("plugins", ())),
            faults=tuple(FaultEvent(**f) for f in data.get("faults", ())),
            seed=data.get("seed", 1),
            timeout=data.get("timeout", 120.0),
        )

    def key(self) -> str:
        """A canonical content key (used to deduplicate shrinker runs)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    def with_(self, **changes) -> "Scenario":
        return replace(self, **changes)


def random_scenarios(seed: int, count: int,
                     plugin_pool: Optional[Sequence[str]] = None) -> list:
    """A seeded random sweep: ``count`` scenarios drawn deterministically
    from ``seed``, so a failing sweep is reproduced by its seed alone."""
    from .plugins import SWEEP_PLUGINS

    pool = list(plugin_pool if plugin_pool is not None else SWEEP_PLUGINS)
    rng = random.Random(seed)
    scenarios = []
    for index in range(count):
        kind = "nat" if rng.random() < 0.25 else "symmetric"
        topology = Topology(
            kind=kind,
            d_ms=rng.choice([2.5, 5.0, 10.0, 25.0]),
            bw_mbps=rng.choice([5.0, 10.0, 20.0]),
            loss_pct=rng.choice([0.0, 0.0, 0.5, 1.0, 2.0]),
        )
        plugins = tuple(sorted(rng.sample(pool, rng.randint(0, min(2, len(pool))))))
        faults = []
        for _ in range(rng.randint(0, 3)):
            kinds = list(RATE_FAULTS) + ["flap"]
            if kind == "nat":
                kinds.append("nat_rebind")
            fkind = rng.choice(kinds)
            if fkind in RATE_FAULTS:
                faults.append(FaultEvent(kind=fkind,
                                         rate=round(rng.uniform(0.002, 0.02), 4)))
            elif fkind == "flap":
                faults.append(FaultEvent(kind="flap",
                                         at=round(rng.uniform(0.1, 0.6), 3),
                                         duration=round(rng.uniform(0.05, 0.2), 3)))
            else:
                faults.append(FaultEvent(kind="nat_rebind",
                                         at=round(rng.uniform(0.1, 0.6), 3)))
        scenarios.append(Scenario(
            name=f"sweep-{seed}-{index}",
            workload=Workload(size=rng.randrange(8_000, 48_000, 1_000)),
            topology=topology,
            plugins=plugins,
            faults=tuple(faults),
            seed=rng.randrange(1, 10_000),
        ))
    return scenarios
