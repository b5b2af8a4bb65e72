"""CLI smoke tests (``python -m repro``)."""

import argparse
import importlib
import json
import re
from pathlib import Path

import pytest

from repro.cli import _load_plugin_set_file, build_parser, main
from repro.conformance import PLUGIN_BUILDERS
from repro.vm.analysis import RULES, Severity


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_protoops_lists_registry(capsys):
    code, out = run_cli(capsys, "protoops")
    assert code == 0
    assert "72 protocol operations" in out
    assert "process_frame" in out


def test_inspect_plugin(capsys):
    code, out = run_cli(capsys, "inspect", "datagram")
    assert code == 0
    assert "org.pquic.datagram" in out
    assert "verification: all pluglets pass" in out
    assert "NOT PROVEN" not in out


def test_transfer_with_plugin(capsys):
    code, out = run_cli(capsys, "transfer", "--size", "50000",
                        "--plugins", "monitoring")
    assert code == 0
    assert "downloaded 50000 bytes" in out
    assert "packets_sent" in out


def test_vpn_comparison(capsys):
    code, out = run_cli(capsys, "vpn", "--size", "20000")
    assert code == 0
    assert "ratio:" in out


def test_trace_outputs_qlog_json(capsys):
    code, out = run_cli(capsys, "trace", "--size", "5000")
    assert code == 0
    doc = json.loads(out)
    assert doc["traces"][0]["events"]


def test_trace_streams_validated_jsonl(capsys, tmp_path):
    from repro.trace import read_jsonl, validate_stream

    path = tmp_path / "trace.jsonl"
    code, out = run_cli(capsys, "trace", "--size", "20000",
                        "--plugins", "monitoring",
                        "--jsonl", str(path), "--validate")
    assert code == 0
    assert "wrote" in out and "events" in out
    doc = read_jsonl(path)
    counts = validate_stream(doc["records"])
    assert counts["events"] > 0
    assert counts["by_name"]["plugin_injected"] == 1
    # Profiling rides along when plugins are traced.
    assert counts["by_name"]["pluglet_profile"] > 0
    assert doc["footer"]["dropped"] == 0


def test_trace_fails_when_the_transfer_dies(capsys, tmp_path):
    path = tmp_path / "trace.jsonl"
    code = main(["trace", "--size", "5000", "--loss", "100",
                 "--jsonl", str(path)])
    assert code == 1
    assert "handshake did not complete" in capsys.readouterr().err
    assert path.exists()  # the trace of the dead run is still written


def test_trace_runs_plugins_on_both_ends(capsys, tmp_path):
    """FEC frames from a client whose server lacks the plugin would
    close the connection mid-transfer; the traced run must complete."""
    code, _ = run_cli(capsys, "trace", "--size", "100000",
                      "--plugins", "fec-xor",
                      "--jsonl", str(tmp_path / "trace.jsonl"))
    assert code == 0


def test_trace_max_events_reports_truncation(capsys, tmp_path):
    from repro.trace import read_jsonl

    path = tmp_path / "trace.jsonl"
    code, out = run_cli(capsys, "trace", "--size", "20000",
                        "--jsonl", str(path), "--max-events", "5")
    assert code == 0
    assert "dropped" in out
    doc = read_jsonl(path)
    assert doc["events"][-1]["name"] == "truncated"
    assert doc["footer"]["dropped"] > 0


def test_profile_attributes_pluglet_costs(capsys):
    code, out = run_cli(capsys, "profile", "--size", "30000",
                        "--plugins", "monitoring", "fec-xor")
    assert code == 0
    # The attribution table names both plugins and carries the columns
    # the acceptance demo asks for.
    assert "monitoring" in out
    assert "fec" in out
    assert "fuel" in out and "wall-ms" in out and "helpers" in out
    assert "total:" in out
    assert "host protoop dispatches:" in out


def test_unknown_plugin_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["transfer", "--plugins", "bogus"])


def choices(command: str, dest: str):
    """What ``repro <command>`` accepts for its ``dest`` argument."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions
                if a.dest == dest).choices


def test_every_demo_imports_a_main(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    for name in choices("demo", "name"):
        module = importlib.import_module(f"examples.{name}")
        assert callable(getattr(module, "main", None)), name


@pytest.mark.parametrize("command, dest", [
    ("transfer", "plugins"), ("trace", "plugins"), ("profile", "plugins"),
    ("inspect", "plugin")])
def test_plugin_names_are_the_registry_without_test_plugins(command, dest):
    assert set(choices(command, dest)) == {
        name for name in PLUGIN_BUILDERS if not name.startswith("x-")}


def test_test_only_plugin_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transfer", "--plugins", "x-conflict-a"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_lint_builtin_plugins_pass(capsys):
    code, out = run_cli(capsys, "lint")
    assert code == 0
    assert "0 error(s)" in out


def test_lint_single_plugin_quiet(capsys):
    code, out = run_cli(capsys, "lint", "--quiet", "monitoring")
    assert code == 0
    assert "1 target(s)" in out


def test_lint_bad_corpus_fails(capsys):
    from pathlib import Path

    bad = Path(__file__).parent / "corpus" / "bad"
    code, out = run_cli(capsys, "lint", str(bad))
    assert code == 1
    assert "error[PRE" in out


def test_lint_good_corpus_passes(capsys):
    from pathlib import Path

    good = Path(__file__).parent / "corpus" / "good"
    code, out = run_cli(capsys, "lint", str(good))
    assert code == 0


def test_lint_unknown_target_is_usage_error(capsys):
    code, _out = run_cli(capsys, "lint", "no-such-plugin")
    assert code == 2


PAIRS = sorted((Path(__file__).parent / "corpus" / "pairs").glob("*.json"))


@pytest.mark.parametrize("pair", PAIRS, ids=lambda path: path.stem)
def test_lint_pair_file_reports_its_expected_rule(capsys, pair):
    """Each pairs-corpus file yields exactly the rule its ``expect`` key
    names (none for ``ok``); an error blocks, a warning only under
    ``--strict``; a ``fuel_*`` file's looping pluglet is certified."""
    expected = json.loads(pair.read_text())["expect"]
    code, out = run_cli(capsys, "lint", str(pair))
    rules = set(re.findall(r"\[(PRE\d{3})\]", out))
    if expected == "ok":
        assert (code, rules) == (0, set())
    else:
        assert rules == {expected}
        assert code == (1 if RULES[expected][1] is Severity.ERROR else 0)
        assert run_cli(capsys, "lint", "--strict", str(pair))[0] == 1
    if pair.name.startswith("fuel_"):
        plugin = _load_plugin_set_file(pair)[0]
        report, = plugin.analyze_all().values()
        assert report.fuel_certificate is not None


def test_lint_multiple_named_plugins_cross_checked(capsys):
    # Two FEC variants replace the same protoops by design: naming them
    # together must surface the hard conflict the no-argument form
    # (which lints builtins individually) deliberately tolerates.
    code, out = run_cli(capsys, "lint", "fec-xor", "fec-rlc")
    assert code == 1
    assert "PRE200" in out


def test_lint_deployable_set_has_no_hard_conflicts(capsys):
    code, out = run_cli(capsys, "lint", "monitoring", "ccontrol", "ecn",
                        "datagram", "multipath", "fec-xor")
    assert code == 0
    # The known deliberate composition (ecn + ccontrol both write the
    # congestion window) stays visible as a warning.
    assert "PRE201" in out
