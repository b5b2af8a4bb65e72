#!/usr/bin/env python
"""Plugin lint gate for CI.

Runs the PRE static analyzer plus the manifest linter
(:mod:`repro.vm.analysis`) over every bundled plugin and over the
bytecode corpus under ``tests/corpus/``:

* every bundled plugin must produce **zero error-severity diagnostics**
  (warnings are reported but allowed);
* every program in ``tests/corpus/bad/`` must be rejected with exactly
  the rule id named in its ``; expect: PRExxx`` header;
* every program in ``tests/corpus/good/`` must be accepted;
* a *deployable* bundled set (one FEC variant) must be free of hard
  cross-plugin conflicts (``PRE200``/``PRE203``);
* every plugin pair in ``tests/corpus/pairs/*.json`` must produce the
  diagnostic named in its ``"expect"`` key (or none for ``"ok"``), and
  the fuel corpus entries must carry a static fuel certificate.

Exits non-zero on the first violated expectation, so CI can run it as a
blocking job::

    PYTHONPATH=src python tools/lint_plugins.py
"""

from __future__ import annotations

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.cli import BUILTIN_PLUGINS  # noqa: E402
from repro.core.api import PluginApi  # noqa: E402
from repro.core.plugin import PluginRuntime  # noqa: E402
from repro.quic import QuicConfiguration  # noqa: E402
from repro.quic.connection import QuicConnection  # noqa: E402
from repro.vm.analysis import Severity, analyze, lint_plugin  # noqa: E402
from repro.vm.asm import assemble  # noqa: E402

_EXPECT = re.compile(r";\s*expect:\s*(\S+)")


def lint_bundled() -> int:
    """All bundled plugins must lint error-free. Returns failures."""
    conn = QuicConnection(QuicConfiguration(is_client=True))
    protoop_names = set(conn.protoops.names)
    failures = 0
    for name in sorted(BUILTIN_PLUGINS):
        plugin = BUILTIN_PLUGINS[name]()
        runtime = PluginRuntime(plugin, conn)
        helper_ids = set(PluginApi(runtime).helper_table())
        helper_ids.update(runtime.extra_helpers)
        diags = lint_plugin(plugin, protoop_names, helper_ids)
        errors = [d for d in diags if d.severity is Severity.ERROR]
        warnings = [d for d in diags if d.severity is Severity.WARNING]
        status = "FAIL" if errors else "ok"
        print(f"[{status}] {name}: {len(plugin.pluglets)} pluglets, "
              f"{len(errors)} error(s), {len(warnings)} warning(s)")
        for d in errors:
            print(f"       {name}: {d.format()}")
        if errors:
            failures += 1
    return failures


#: A plugin set meant to attach together (the builtin list also holds
#: mutually-exclusive FEC variants that replace the same protoops by
#: design, so "all builtins" is not a deployable set).
DEPLOYABLE_SET = ("monitoring", "ccontrol", "ecn", "datagram",
                  "multipath", "fec-xor")


def lint_deployable_set() -> int:
    """The deployable bundled set must have no hard conflicts."""
    from repro.core.api import FIELD_NAMES, HELPER_EFFECTS
    from repro.vm.analysis import check_plugin_set, summarize_plugin

    effects = [summarize_plugin(BUILTIN_PLUGINS[name](), HELPER_EFFECTS)
               for name in DEPLOYABLE_SET]
    diags = check_plugin_set(effects, FIELD_NAMES)
    errors = [d for d in diags if d.severity is Severity.ERROR]
    warnings = [d for d in diags if d.severity is Severity.WARNING]
    status = "FAIL" if errors else "ok"
    print(f"[{status}] deployable set {'+'.join(DEPLOYABLE_SET)}: "
          f"{len(errors)} conflict error(s), {len(warnings)} warning(s)")
    for d in errors + warnings:
        print(f"       {d.format()}")
    return 1 if errors else 0


def check_pairs_corpus() -> int:
    """Every pairs-corpus file must yield exactly its expected rule."""
    import json

    from repro.cli import _load_plugin_set_file
    from repro.core.api import FIELD_NAMES, HELPER_EFFECTS
    from repro.vm.analysis import check_plugin_set, summarize_plugin

    failures = 0
    for path in sorted((ROOT / "tests" / "corpus" / "pairs").glob("*.json")):
        expected = json.loads(path.read_text()).get("expect", "ok")
        plugins = _load_plugin_set_file(path)
        diags = []
        for plugin in plugins:
            diags.extend(lint_plugin(plugin))
        effects = [summarize_plugin(p, HELPER_EFFECTS) for p in plugins]
        diags.extend(check_plugin_set(effects, FIELD_NAMES))
        rules = sorted({d.rule for d in diags})
        if expected == "ok":
            if rules:
                print(f"[FAIL] pairs/{path.name}: expected clean, "
                      f"got {', '.join(rules)}")
                failures += 1
                continue
        elif expected not in rules:
            print(f"[FAIL] pairs/{path.name}: expected {expected}, "
                  f"got {', '.join(rules) or 'none'}")
            failures += 1
            continue
        # The fuel corpus additionally proves the certificate machinery
        # runs end to end: each bounded_sum pluglet must be certified.
        if path.name.startswith("fuel_"):
            report = next(iter(plugins[0].analyze_all().values()))
            if report.fuel_certificate is None:
                print(f"[FAIL] pairs/{path.name}: no fuel certificate "
                      f"for {plugins[0].name}")
                failures += 1
                continue
        print(f"[ok]   pairs/{path.name}: "
              f"{expected if expected != 'ok' else 'clean'} as expected")
    return failures


def check_corpus() -> int:
    """Bad corpus must fail with its expected rule; good must pass."""
    failures = 0
    for path in sorted((ROOT / "tests" / "corpus" / "bad").glob("*.s")):
        text = path.read_text()
        match = _EXPECT.search(text)
        if match is None:
            print(f"[FAIL] {path.name}: missing '; expect:' header")
            failures += 1
            continue
        expected = match.group(1)
        report = analyze(assemble(text))
        hit = [d for d in report.errors() if d.rule == expected]
        if not hit:
            got = sorted({d.rule for d in report.errors()}) or ["none"]
            print(f"[FAIL] bad/{path.name}: expected error {expected}, "
                  f"got {', '.join(got)}")
            failures += 1
        else:
            d = hit[0]
            print(f"[ok]   bad/{path.name}: rejected by "
                  f"{d.rule} at pc {d.pc}")
    for path in sorted((ROOT / "tests" / "corpus" / "good").glob("*.s")):
        report = analyze(assemble(path.read_text()))
        if report.errors():
            print(f"[FAIL] good/{path.name}: unexpected error(s): "
                  + "; ".join(d.format() for d in report.errors()))
            failures += 1
        else:
            print(f"[ok]   good/{path.name}: accepted "
                  f"(memory_safe={report.memory_safe}, "
                  f"loop_free={report.loop_free})")
    return failures


def main() -> int:
    failures = lint_bundled()
    failures += lint_deployable_set()
    failures += check_corpus()
    failures += check_pairs_corpus()
    if failures:
        print(f"\n{failures} lint expectation(s) violated")
        return 1
    print("\nall plugins and corpus expectations hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
