"""Checks on the benchmark itself (not part of tier-1):

    python -m pytest bench/tests -q

Every run below is a fresh ``run.py`` process at ``--smoke`` scale, the
way the benchmark is really invoked.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Metrics that depend only on the seed, never on the host.
DETERMINISTIC = ("sim_goodput_mbps", "wire_efficiency")

_cache: dict = {}


def smoke(workload: str, seed: int, trace: int, fresh: bool = False) -> dict:
    key = (workload, seed, trace)
    if fresh or key not in _cache:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--trace", str(trace), "--smoke"],
            capture_output=True, text=True, timeout=120, env=env, cwd=ROOT)
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["stdout"] = done.stdout
        if fresh:
            return result
        _cache[key] = result
    return _cache[key]


def test_smoke_scale_finishes_all_workloads_quickly():
    started = time.perf_counter()
    for workload in WORKLOADS:
        result = smoke(workload, 1, 0)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
    assert time.perf_counter() - started < 15


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed(workload, trace, section):
    result = smoke(workload, 1, trace)
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert entry["unit"] == declared[name]
        assert isinstance(entry["value"], (int, float))
        assert re.search(rf"^{re.escape(name)}\s", result["stdout"], re.M)


def test_names_in_benchmark_json_are_well_formed_and_unique():
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_metrics_repeat_per_seed_and_differ_across_seeds(workload):
    first, again = smoke(workload, 1, 0), smoke(workload, 1, 0, fresh=True)
    other = smoke(workload, 2, 0)
    for name in DETERMINISTIC:
        assert first["metrics"][name] == again["metrics"][name], name
    assert any(first["metrics"][name] != other["metrics"][name]
               for name in DETERMINISTIC)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_per_seed(workload):
    first, again = smoke(workload, 1, 1), smoke(workload, 1, 1, fresh=True)
    for name, entry in first["metrics"].items():
        if entry["unit"] == "count" and not name.startswith(("host.", "bench.")):
            assert entry == again["metrics"][name], name


def test_every_entry_point_in_the_span_table_resolves():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import spans
        assert spans.resolve_entry_points() == []
    finally:
        del sys.path[:2]
    for workload in WORKLOADS:
        metrics = smoke(workload, 1, 1)["metrics"]
        assert metrics["bench.missing_entrypoints"]["value"] == 0


@pytest.mark.parametrize("workload", ["bulk-clean", "rpc-small"])
def test_vm_does_nothing_without_plugins(workload):
    metrics = smoke(workload, 1, 1)["metrics"]
    for name in ("vm.calls_per_unit", "vm.self_us_per_unit",
                 "vm.instructions_per_unit", "core.plugin.calls_per_unit"):
        assert metrics[name]["value"] == 0, name


def test_bypass_and_coverage_predictions_hold():
    clean = smoke("bulk-clean", 1, 1)["metrics"]
    assert clean["quic.connection.packets_lost"]["value"] == 0
    lossy = smoke("bulk-plugins-lossy", 1, 1)["metrics"]
    assert lossy["vm.calls_per_unit"]["value"] > 0
    assert lossy["plugins.calls_per_unit"]["value"] > 0
    for workload in WORKLOADS:
        assert smoke(workload, 1, 1)["metrics"]["bench.span_coverage"]["value"] >= 0.9


@pytest.mark.parametrize("switch", ["REPRO_JIT", "REPRO_BATCH", "REPRO_ANALYSIS"])
def test_refuses_to_run_under_a_kill_switch(switch):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "rpc-small",
         "--smoke"], capture_output=True, text=True, timeout=60, cwd=ROOT,
        env=dict(os.environ, **{switch: "0"}))
    assert done.returncode != 0
    assert switch in done.stderr and not done.stdout.strip()


def test_compare_flags_a_regression(tmp_path):
    sys.path.insert(0, str(BENCH))
    try:
        import compare
    finally:
        del sys.path[0]

    def side(goodput):
        run = {"attempted": 10, "failed": 0, "metrics": {
            m["name"]: {"value": goodput if m["name"] == "goodput_mbps" else 1.0,
                        "unit": m["unit"]} for m in SPEC["end_to_end"]}}
        traced = {"attempted": 1, "failed": 0, "metrics": {}}
        return {w: {"runs": [run, run, run], "traced": traced} for w in WORKLOADS}

    paths = []
    bound = next(m["bound"] for m in SPEC["end_to_end"]
                 if m["name"] == "goodput_mbps")
    for label, goodput in (("base", 100.0), ("same", 99.0),
                           ("slow", 100.0 * (1 - bound) - 5)):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(side(goodput)))
        paths.append(str(path))
    assert compare.main([paths[0], paths[1]]) == 0
    assert compare.main([paths[0], paths[2]]) == 1
    assert compare.verdict([100, 101, 99], [120, 121, 119], "higher", 0.1)[0] == "better"
    assert compare.verdict([100, 140, 60], [95, 135, 55], "higher", 0.1)[0] == "unresolved"
