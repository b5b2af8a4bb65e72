"""Shrinker and ``repro conform`` CLI.

The acceptance bar for this harness: a deliberately-planted divergence
(a plugin whose behavior depends on the JIT switch) must be caught
by the oracles and shrunk — deterministically — to a minimal scenario,
and the CLI must speak in exit codes (0 pass, 1 oracle failure, 2 usage
error) so CI can gate on it.
"""

import json

import pytest

import repro.conformance as conf
from repro.cli import main
from repro.conformance.shrink import MIN_WORKLOAD


# --- ddmin in isolation ----------------------------------------------------

def test_ddmin_finds_minimal_pair():
    items = list(range(1, 9))
    calls = []

    def still_fails(subset):
        calls.append(tuple(subset))
        return 3 in subset and 6 in subset

    assert sorted(ddmin_result := conf.ddmin(items, still_fails)) == [3, 6]
    # 1-minimal: removing either survivor makes the failure vanish
    for item in ddmin_result:
        assert not still_fails([x for x in ddmin_result if x != item])


def test_ddmin_prefers_empty_and_single():
    assert conf.ddmin([1, 2, 3], lambda s: True) == []
    assert conf.ddmin([1, 2, 3], lambda s: 2 in s) == [2]
    assert conf.ddmin([], lambda s: False) == []


# --- scenario shrinking ----------------------------------------------------

def _planted() -> conf.Scenario:
    """A noisy scenario whose only real problem is the JIT-divergent
    plugin: everything else is an innocent bystander to shrink away."""
    return conf.Scenario(
        name="planted",
        workload=conf.Workload(size=16_000),
        topology=conf.Topology(d_ms=5.0, bw_mbps=50.0, loss_pct=1.0),
        plugins=("monitoring", "x-jit-divergent"),
        faults=(
            conf.FaultEvent(kind="duplicate", rate=0.01),
            conf.FaultEvent(kind="reorder", rate=0.02),
            conf.FaultEvent(kind="flap", at=0.3, duration=0.05),
        ),
        seed=97,
    )


def test_planted_divergence_shrinks_to_minimal_scenario():
    result = conf.shrink(_planted(), modes=conf.ALL_MODES)
    minimal = result.minimal
    assert result.failures, "shrinker lost the failure"
    # ≤3-event acceptance bar — in fact every fault is a bystander here
    assert len(minimal.faults) <= 3
    assert minimal.faults == ()
    assert minimal.plugins == ("x-jit-divergent",)
    assert minimal.workload.size == MIN_WORKLOAD
    assert minimal.topology.loss_pct == 0.0
    assert minimal.name == "planted.min"

    again = conf.shrink(_planted(), modes=conf.ALL_MODES)
    assert again.minimal.to_dict() == minimal.to_dict()
    assert again.evaluations == result.evaluations


def test_shrink_passing_scenario_is_identity():
    scenario = conf.load_suite("tiny")[0]
    result = conf.shrink(scenario, modes=(conf.Mode(),))
    assert result.minimal == scenario
    assert result.failures == []
    assert result.evaluations == 1


# --- CLI exit codes --------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_conform_cli_pass_exit_zero(capsys):
    code, out = run_cli(capsys, "conform", "--suite", "tiny",
                        "--modes", "J1,J0")
    assert code == 0
    assert "1/1 scenario(s) pass" in out


def test_conform_cli_failure_exit_one_and_writes_repro(capsys, tmp_path):
    repro_in = tmp_path / "case.repro.json"
    scenario = conf.load_suite("tiny")[0].with_(
        name="tiny-divergent", plugins=("x-jit-divergent",))
    conf.save_repro(repro_in, scenario, modes=conf.ALL_MODES)

    code, out = run_cli(capsys, "conform", "--repro", str(repro_in),
                        "--out", str(tmp_path / "repros"))
    assert code == 1
    assert "FAIL  tiny-divergent" in out
    assert "mode-parity" in out
    shrunk = tmp_path / "repros" / "tiny-divergent.repro.json"
    assert shrunk.exists()
    data = json.loads(shrunk.read_text())
    assert data["schema"] == conf.REPRO_SCHEMA
    assert data["scenario"]["plugins"] == ["x-jit-divergent"]
    assert data["failures"]


def test_conform_cli_usage_errors_exit_two(capsys, tmp_path):
    assert run_cli(capsys, "conform")[0] == 2
    assert run_cli(capsys, "conform", "--suite", "nope")[0] == 2
    assert run_cli(capsys, "conform", "--suite", "tiny",
                   "--modes", "J1-B1-A1")[0] == 2
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"schema": "something-else"}')
    assert run_cli(capsys, "conform", "--repro", str(bogus))[0] == 2


def test_conform_cli_list(capsys):
    code, out = run_cli(capsys, "conform", "--list")
    assert code == 0
    for name in ("smoke", "faults", "tiny"):
        assert name in out
