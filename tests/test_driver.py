"""The one transfer driver: seed-pinned download completion times, its
plugin and observer contract, and that nothing else builds endpoints."""

import ast
import json
from pathlib import Path

import pytest

from repro.conformance import (
    Scenario,
    Topology,
    Workload,
    load_repro,
    run_transfer,
)
from repro.plugins.multipath import build_multipath_plugin

ROOT = Path(__file__).resolve().parent.parent


def scenario(size, app, d_ms, bw_mbps, seed, loss_pct=0.0, plugins=(),
             **topology):
    return Scenario(name="pin", workload=Workload(size=size, app=app),
                    topology=Topology(d_ms=d_ms, bw_mbps=bw_mbps,
                                      loss_pct=loss_pct, **topology),
                    plugins=plugins, seed=seed)


@pytest.mark.parametrize("pinned, dct", [
    (scenario(30_000, "bulk", 10, 10, seed=5, loss_pct=3),
     0.08181525599999999),
    (scenario(400_000, "bulk", 10, 10, seed=4, plugins=("multipath",)),
     0.22698036800000018),
    (scenario(50_000, "tunnel", 10, 20, seed=2, plugins=("datagram",)),
     0.09398128800000005),
    # Fig. 11's point 1: a multipath tunnel.
    (scenario(1_000_000, "tunnel", 12.8, 37.6, seed=401,
              plugins=("datagram", "multipath")),
     0.4238419858723408),
], ids=["bulk-lossy", "bulk-multipath", "tunnel", "fig11-point1"])
def test_pinned_download_completion_times(pinned, dct):
    run = run_transfer(pinned)
    assert run.completed
    assert run.dct == dct


def test_upload_delivers_the_patterned_body():
    pinned = scenario(20_000, "upload", 5, 20, seed=3)
    run = run_transfer(pinned)
    assert run.completed
    assert run.received == pinned.expected_payload()


def test_observer_runs_per_side_before_its_plugins():
    order = []

    def build():
        order.append("plugin")
        return build_multipath_plugin()

    run = run_transfer(scenario(10_000, "bulk", 5, 20, seed=1),
                       plugins=[build],
                       observe=lambda conn, side: order.append(side))
    assert run.completed
    assert order == ["client", "plugin", "server", "plugin"]
    assert len(run.instances) == 2


def test_refused_plugins_are_recorded_once_by_name():
    run = run_transfer(scenario(
        10_000, "get", 5, 20, seed=1,
        plugins=("monitoring", "x-conflict-a", "x-conflict-b")))
    assert run.completed
    assert run.plugins_rejected == ["x-conflict-b"]


@pytest.mark.parametrize("single_homed, paths", [(False, 2), (True, 1)])
def test_client_homes_on_one_path_or_two(single_homed, paths):
    run = run_transfer(scenario(200_000, "bulk", 5, 20, seed=1,
                                plugins=("multipath",),
                                single_homed=single_homed))
    assert run.completed
    assert len(run.client.paths) == paths


def test_timeout_grows_with_the_ideal_transfer_time():
    short = scenario(10_000, "bulk", 10, 20, seed=1)
    long = scenario(10_000_000, "bulk", 400, 0.3, seed=1, loss_pct=8)
    assert short.timeout == 120.0
    assert long.timeout > 30 * 10_000_000 * 8 / 0.3e6


def test_loads_a_repro_file_of_the_earlier_format(tmp_path):
    """Written before ``app``, ``d2_ms``, ``single_homed``,
    ``buffer_bytes`` and ``initial_window`` existed, with the old fixed
    ``timeout``."""
    path = tmp_path / "old.repro.json"
    path.write_text(json.dumps({
        "schema": "pquic-conformance-repro-v1",
        "scenario": {
            "name": "nat-rebind-lossy", "workload": {"size": 32000},
            "topology": {"kind": "nat", "d_ms": 10.0, "bw_mbps": 10.0,
                         "loss_pct": 1.0},
            "plugins": ["monitoring"],
            "faults": [
                {"kind": "nat_rebind", "rate": 0.0, "at": 0.2,
                 "duration": 0.0, "delay": 0.05},
                {"kind": "reorder", "rate": 0.02, "at": 0.0,
                 "duration": 0.0, "delay": 0.05}],
            "seed": 31, "timeout": 120.0},
        "modes": ["J1", "J0"], "failures": [], "note": ""}))
    loaded, modes = load_repro(path)
    assert loaded.workload == Workload(size=32_000, app="get")
    assert loaded.topology.kind == "nat" and loaded.topology.buffer_bytes is None
    assert [f.kind for f in loaded.faults] == ["nat_rebind", "reorder"]
    assert (loaded.seed, loaded.initial_window) == (31, None)
    assert [m.name for m in modes] == ["J1", "J0"]
    assert Scenario.from_dict(loaded.to_dict()) == loaded


def endpoint_constructions():
    """(file, enclosing function) of every ``ServerEndpoint(`` or
    ``ClientEndpoint(`` call in ``src/`` and ``benchmarks/``."""
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self, path):
            self.path, self.scope = path, ["<module>"]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Call(self, node):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in ("ServerEndpoint", "ClientEndpoint"):
                found.append((self.path, self.scope[-1]))
            self.generic_visit(node)

    for top in ("src", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            rel = path.relative_to(ROOT).as_posix()
            Visitor(rel).visit(ast.parse(path.read_text()))
    return found


def test_only_the_driver_builds_endpoints():
    where = set(endpoint_constructions())
    assert where == {("src/repro/conformance/runner.py", "run_transfer")}
