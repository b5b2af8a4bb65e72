"""Golden conformance records: what every smoke / faults scenario
delivers and counts in the reference mode, pinned in
``tests/corpus/golden/``.

``repro conform`` says the two engines agree with each other; this says
they still agree with what was committed.  A change that moves a count
on purpose regenerates the files (``tools/gen_conformance_golden.py``)
and commits the diff — the reviewer then sees exactly which stats, fuel
rows or trace digests moved.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import repro.conformance as conf
from repro.conformance.oracles import first_difference

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "gen_conformance_golden.py"
_spec = importlib.util.spec_from_file_location("gen_conformance_golden", _TOOL)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

REGENERATE = ("if the change is intended, regenerate with "
              "`PYTHONPATH=src python tools/gen_conformance_golden.py` "
              "and commit the diff")


@pytest.mark.parametrize("suite", gen.SUITES)
def test_suite_matches_golden(suite):
    golden = json.loads(gen.golden_path(suite).read_text())
    scenarios = {s.name: s for s in conf.load_suite(suite)}
    if set(golden) != set(scenarios):
        pytest.fail(
            f"{suite}: scenarios without a golden entry "
            f"{sorted(set(scenarios) - set(golden))}, golden entries without "
            f"a scenario {sorted(set(golden) - set(scenarios))}; {REGENERATE}",
            pytrace=False)
    for name, scenario in scenarios.items():
        # through JSON, so the comparison sees what the file can hold
        actual = json.loads(json.dumps(gen.record(scenario)))
        if actual != golden[name]:  # not an assert: no 30 kB dict diff
            pytest.fail(
                f"{suite}/{name}: {first_difference(actual, golden[name])} "
                f"(this run != golden); {REGENERATE}", pytrace=False)


def test_failure_names_the_field():
    golden = {"digest": "ab", "stats": {"client": {"packets_sent": 409}}}
    moved = {"digest": "ab", "stats": {"client": {"packets_sent": 412}}}
    assert first_difference(moved, golden) == \
        "stats.client.packets_sent: 412 != 409"
