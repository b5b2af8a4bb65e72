"""Regenerate tests/corpus/golden/{smoke,faults}.json from the reference run.

Run from the repository root:
    PYTHONPATH=src python tools/gen_conformance_golden.py

One entry per suite scenario: what the reference mode (`Mode()`)
delivers and counts.  `tests/test_conformance_golden.py` is the only
checker; a regenerated file is committed with the change that moved it
and reviewed as a diff.
"""

import json
import pathlib

from repro import conformance as conf

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "corpus" / "golden"
SUITES = ("smoke", "faults")
#: `RunReport` fields pinned per scenario; everything else a report holds
#: is either derived from these or compared across modes by `repro conform`.
FIELDS = ("digest", "stats", "trace_digest", "pluglet_rows", "duration",
          "plugins_rejected")


def golden_path(suite: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{suite}.json"


def record(scenario) -> dict:
    report = conf.run_scenario(scenario, conf.Mode())
    if report.error is not None:
        raise RuntimeError(f"{scenario.name}: {report.error}")
    return {name: getattr(report, name) for name in FIELDS}


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for suite in SUITES:
        golden = {s.name: record(s) for s in conf.load_suite(suite)}
        golden_path(suite).write_text(
            json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote {golden_path(suite)} ({len(golden)} scenarios)")


if __name__ == "__main__":
    main()
