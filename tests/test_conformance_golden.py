"""Golden conformance records: what every smoke / faults scenario
delivers and counts in the reference mode, pinned in
``tests/corpus/golden/``.

``repro conform`` says two engines agree with each other; this says they
still agree with what was committed.  A change that moves a count on
purpose regenerates the files (``tools/gen_conformance_golden.py``) and
commits the diff — the reviewer then sees exactly which stats, fuel rows
or trace digests moved.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import repro.conformance as conf
from repro.conformance.oracles import _flatten

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "gen_conformance_golden.py"
_spec = importlib.util.spec_from_file_location("gen_conformance_golden", _TOOL)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

REGENERATE = ("if the change is intended, regenerate with "
              "`PYTHONPATH=src python tools/gen_conformance_golden.py` "
              "and commit the diff")


def first_difference(actual: dict, golden: dict):
    """The first dotted field where two records disagree, as
    ``stats.client.packets_sent 412 != 409`` (actual, then golden)."""
    flat_a, flat_g = _flatten(actual), _flatten(golden)
    missing = object()
    for key in sorted(set(flat_a) | set(flat_g)):
        a, g = flat_a.get(key, missing), flat_g.get(key, missing)
        if a != g:
            show = lambda v: "<absent>" if v is missing else repr(v)
            return f"{key} {show(a)} != {show(g)}"
    return None


@pytest.mark.parametrize("suite", gen.SUITES)
def test_suite_matches_golden(suite):
    golden = json.loads(gen.golden_path(suite).read_text())
    scenarios = {s.name: s for s in conf.load_suite(suite)}
    assert sorted(golden) == sorted(scenarios), (
        f"{suite}: scenarios without a golden entry "
        f"{sorted(set(scenarios) - set(golden))}, golden entries without a "
        f"scenario {sorted(set(golden) - set(scenarios))}; {REGENERATE}")
    for name, scenario in scenarios.items():
        # through JSON, so the comparison sees what the file can hold
        actual = json.loads(json.dumps(gen.record(scenario)))
        difference = first_difference(actual, golden[name])
        assert difference is None, (
            f"{suite}/{name}: {difference} (run != golden); {REGENERATE}")


def test_first_difference_names_the_field():
    golden = {"digest": "ab", "stats": {"client": {"packets_sent": 409}}}
    moved = {"digest": "ab", "stats": {"client": {"packets_sent": 412}}}
    assert first_difference(golden, golden) is None
    assert first_difference(moved, golden) == "stats.client.packets_sent 412 != 409"
    assert first_difference({"digest": "ab"}, golden) == \
        "stats.client.packets_sent <absent> != 409"
