"""Conformance harness: scenario model, runner reports, oracles.

The suite sweeps live in CI (``repro conform``); these tests pin the
machinery itself — mode/scenario round-trips, the shape of a run
report, that a clean scenario passes the oracle catalog under both
engines, that observer transparency holds, and that the planted
JIT-divergent plugin is caught by the mode-parity oracle.
"""

import pytest

import repro.conformance as conf
from repro.conformance.suites import tiny_suite


# --- scenario model --------------------------------------------------------

def test_mode_name_parse_roundtrip():
    assert [mode.name for mode in conf.ALL_MODES] == ["J1", "J0"]
    for mode in conf.ALL_MODES:
        assert conf.Mode.parse(mode.name) == mode


def test_mode_env_is_the_jit_switch_alone():
    assert conf.Mode().env() == {"REPRO_JIT": "1"}
    assert conf.Mode(jit=False).env() == {"REPRO_JIT": "0"}


def test_parse_modes_spec():
    assert conf.parse_modes("J1,J0") == conf.ALL_MODES
    # the batch / analysis components name switches that no longer exist
    for spec in ("J2", "J1-B1-A1", "J1-B0", "J0-A0", "B1", ""):
        with pytest.raises(ValueError):
            conf.parse_modes(spec)


def test_scenario_json_roundtrip():
    for scenario in conf.load_suite("smoke"):
        again = conf.Scenario.from_dict(scenario.to_dict())
        assert again == scenario
        assert again.key() == scenario.key()


def test_scenario_validation():
    with pytest.raises(ValueError):
        # nat_rebind needs a NAT on the path
        conf.Scenario(name="bad", workload=conf.Workload(size=1000),
                      topology=conf.Topology(),
                      faults=(conf.FaultEvent(kind="nat_rebind", at=0.1),),
                      seed=1)
    with pytest.raises(ValueError):
        conf.FaultEvent(kind="corrupt", rate=2.0)
    with pytest.raises(ValueError):
        conf.FaultEvent(kind="warp")


def test_expected_payload_is_seed_determined():
    a = conf.Scenario(name="a", workload=conf.Workload(size=500),
                      topology=conf.Topology(), seed=42)
    b = a.with_(name="b")
    assert a.expected_payload() == b.expected_payload()
    assert a.expected_digest() != a.with_(seed=43).expected_digest()


def test_random_scenarios_deterministic():
    first = conf.random_scenarios(seed=123, count=6)
    second = conf.random_scenarios(seed=123, count=6)
    assert [s.to_dict() for s in first] == [s.to_dict() for s in second]
    assert first != conf.random_scenarios(seed=124, count=6)
    for scenario in first:
        # every generated scenario must survive its own validation
        conf.Scenario.from_dict(scenario.to_dict())


# --- runner + oracles ------------------------------------------------------

def test_run_scenario_report_shape():
    scenario = tiny_suite()[0]
    report = conf.run_scenario(scenario, conf.Mode())
    assert report.error is None
    assert report.completed
    assert report.received == scenario.workload.size
    assert report.digest == scenario.expected_digest()
    for side in ("client", "server"):
        ledger = report.ledger[side]
        assert ledger["sent"] == (ledger["acked"] + ledger["lost"]
                                  + ledger["in_flight"])
    assert report.trace_events > 0
    assert not report.schema_errors
    assert "packet_received_event" in report.protoop_runs
    assert any("monitoring" in key for key in report.pluglet_rows)
    assert conf.check_run(report, scenario) == []


def test_tiny_scenario_passes_fast_modes():
    verdict = conf.run_conformance(tiny_suite()[0], modes=conf.FAST_MODES)
    assert verdict.passed, [f.format() for f in verdict.failures]
    # observer plugin set => a bare transparency baseline ran too
    assert len(verdict.reports) == len(conf.FAST_MODES) + 1


def test_jit_divergent_plugin_is_caught():
    scenario = tiny_suite()[0].with_(
        name="tiny-divergent", plugins=("x-jit-divergent",))
    verdict = conf.run_conformance(scenario, modes=conf.ALL_MODES,
                                   transparency=False)
    assert not verdict.passed
    oracles = {failure.oracle for failure in verdict.failures}
    assert "mode-parity" in oracles
    # the divergence is in pluglet work (fuel/invocations), not in bytes
    assert "cross-mode-bytes" not in oracles


def test_conflicting_pair_rejected_identically_across_modes():
    # The second conflict plugin is refused at attach time and the
    # transfer completes without it; the mode-parity oracle compares the
    # plugins_rejected lists, so an engine-dependent rejection would fail.
    scenario = tiny_suite()[0].with_(
        name="tiny-conflict",
        plugins=("monitoring", "x-conflict-a", "x-conflict-b"))
    modes = conf.ALL_MODES
    verdict = conf.run_conformance(scenario, modes=modes,
                                   transparency=False)
    assert verdict.passed, [f.format() for f in verdict.failures]
    for mode in modes:
        report = verdict.reports[mode.name]
        assert report.plugins_rejected == ["x-conflict-b"]


def test_repro_file_roundtrip(tmp_path):
    scenario = tiny_suite()[0]
    path = tmp_path / "case.repro.json"
    conf.save_repro(path, scenario, modes=conf.ALL_MODES, failures=[],
                    note="unit test")
    loaded, modes = conf.load_repro(path)
    assert loaded == scenario
    assert tuple(modes) == conf.ALL_MODES
