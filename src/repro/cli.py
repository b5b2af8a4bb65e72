"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo [name]``         — run one of the example scenarios inline;
* ``transfer``            — one PQUIC GET transfer with chosen plugins;
* ``vpn``                 — TCP-through-VPN DCT comparison (Figure 8's metric);
* ``protoops``            — list the protocol-operation registry;
* ``inspect <plugin>``    — stats + verification + termination report for
  a built-in plugin;
* ``trace``               — a transfer with the qlog tracer: JSON to
  stdout, or schema-validated streaming JSONL via ``--jsonl``;
* ``profile``             — a transfer with PRE profiling: per-pluglet
  fuel / wall-time / helper-call attribution;
* ``lint [target...]``    — static analyzer + manifest linter over
  built-in plugins, ``.s`` assembly files, or directories of them;
  exits non-zero when any error-severity diagnostic fires;
* ``conform``             — differential conformance sweeps: run a named
  suite, a seeded random sweep or a saved repro file under the JIT and
  the interpreter, shrink any failure to a minimal repro.
"""

from __future__ import annotations

import argparse
import sys

from repro.conformance.plugins import BUNDLED_PLUGINS, build_plugin


def _scenario(args, app: str, plugins=()):
    """The run a transfer-style command's flags describe."""
    from repro.conformance import Scenario, Topology, Workload

    return Scenario(
        name=args.command,
        workload=Workload(size=args.size, app=app),
        topology=Topology(d_ms=args.delay, bw_mbps=args.bandwidth,
                          loss_pct=getattr(args, "loss", 0.0)),
        plugins=plugins,
        seed=args.seed,
    )


def cmd_demo(args) -> int:
    import importlib

    module = importlib.import_module(f"examples.{args.name}")
    module.main()
    return 0


def cmd_transfer(args) -> int:
    from repro.conformance import run_transfer

    run = run_transfer(_scenario(args, "bulk", args.plugins))
    if not run.completed:
        print("transfer did not complete", file=sys.stderr)
        return 1
    print(f"downloaded {args.size} bytes in {run.dct:.3f}s "
          f"({args.size * 8 / run.dct / 1e6:.2f} Mbps)")
    for key, value in sorted(run.client.stats.items()):
        print(f"  {key}: {value}")
    return 0


def cmd_vpn(args) -> int:
    from repro.conformance import run_transfer
    from repro.experiments import run_tcp_direct

    plugins = ("datagram", "multipath") if args.multipath else ("datagram",)
    scenario = _scenario(args, "tunnel", plugins)
    direct = run_tcp_direct(scenario)
    tunnel = run_transfer(scenario)
    print(f"direct: {direct.dct:.3f}s   tunnel: {tunnel.dct:.3f}s   "
          f"ratio: {tunnel.dct / direct.dct:.3f}")
    return 0


def cmd_protoops(args) -> int:
    from repro.quic.connection import QuicConnection

    table = QuicConnection.protoop_census()
    print(f"{table.operation_count()} protocol operations "
          f"({table.parameterized_count()} parameterized)")
    for name in table.names:
        op = table.get(name)
        kind = "param" if op.parameterized else (
            "external" if op.external else (
                "event" if table.default(name) is None else "op"))
        print(f"  {name:<32} [{kind}]")
    return 0


def cmd_inspect(args) -> int:
    from repro.vm.analysis.termination import check_termination

    plugin = build_plugin(args.plugin)
    stats = plugin.stats()
    print(f"plugin {stats['name']}")
    print(f"  pluglets:     {stats['pluglets']}")
    print(f"  instructions: {stats['instructions']}")
    print(f"  serialized:   {stats['size_bytes']} B "
          f"({stats['compressed_bytes']} B compressed)")
    plugin.verify_all()
    print("  verification: all pluglets pass the static checks")
    for pluglet in plugin.pluglets:
        report = check_termination(pluglet.instructions)
        mark = "proved" if report.proven else "NOT PROVEN"
        print(f"  {mark:>10}  {pluglet.name} "
              f"({pluglet.anchor} @ {pluglet.protoop})")
    return 0


def _lint_builtin(name: str, protoop_names, plugin_objs) -> list:
    """Lint one built-in plugin with the host's protoop and helper sets."""
    from repro.vm.analysis import lint_plugin

    plugin = build_plugin(name)
    plugin_objs.append(plugin)
    return [(name, d) for d in lint_plugin(
        plugin, protoop_names, set(plugin.helper_effects))]


def _load_plugin_set_file(path):
    """Parse a ``.json`` plugin-set file into Plugin objects.

    Format: ``{"pair": [{"name": ..., "pluglets": [{"name", "protoop",
    "anchor", "source", "param"?, "fuel"?, "helper_budget"?,
    "triggers"?}, ...]}, ...]}`` — restricted-Python sources are compiled
    on the fly (the corpus under ``tests/corpus/pairs/`` uses this)."""
    import json

    from repro.core.plugin import Plugin, Pluglet

    spec = json.loads(path.read_text())
    plugins = []
    for pspec in spec["pair"]:
        pluglets = [
            Pluglet.from_source(
                name=ps["name"],
                protoop=ps["protoop"],
                anchor=ps.get("anchor", "replace"),
                source=ps["source"],
                param=ps.get("param"),
                fuel=int(ps.get("fuel", 0)),
                helper_budget=int(ps.get("helper_budget", 0)),
                triggers=tuple(ps.get("triggers", ())),
            )
            for ps in pspec["pluglets"]
        ]
        plugins.append(Plugin(pspec["name"], pluglets))
    return plugins


def _lint_plugin_set_file(path) -> list:
    """Lint a ``.json`` plugin-set file: per-plugin analyzer + manifest
    lint, then the cross-plugin conflict catalog (``PRE200``+)."""
    from repro.core.api import FIELD_NAMES, HELPER_EFFECTS
    from repro.vm.analysis import (
        Diagnostic,
        Severity,
        check_plugin_set,
        lint_plugin,
        summarize_plugin,
    )

    try:
        plugins = _load_plugin_set_file(path)
    except Exception as exc:  # noqa: BLE001 - any load error is a finding
        return [(str(path), Diagnostic(
            "PRE000", Severity.ERROR, f"plugin-set file rejected: {exc}"))]
    found = []
    for plugin in plugins:
        found.extend((f"{path}:{plugin.name}", d)
                     for d in lint_plugin(plugin))
    effects = [summarize_plugin(p, HELPER_EFFECTS) for p in plugins]
    found.extend((str(path), d)
                 for d in check_plugin_set(effects, FIELD_NAMES))
    return found


def _lint_asm_file(path) -> list:
    """Analyze one ``.s`` file (bare bytecode: no manifest checks)."""
    from repro.vm.analysis import Diagnostic, Severity, analyze
    from repro.vm.asm import AssemblyError, assemble

    try:
        program = assemble(path.read_text())
    except (AssemblyError, OSError) as exc:
        return [(str(path),
                 Diagnostic("PRE000", Severity.ERROR,
                            f"assembly failed: {exc}"))]
    return [(str(path), d) for d in analyze(program).diagnostics]


def cmd_lint(args) -> int:
    from pathlib import Path

    from repro.quic.connection import QuicConnection

    protoop_names = set(QuicConnection.protoop_census().names)

    found = []  # (target, Diagnostic)
    plugin_objs: list = []
    targets = args.targets or list(BUNDLED_PLUGINS)
    for target in targets:
        if target in BUNDLED_PLUGINS:
            found.extend(_lint_builtin(target, protoop_names, plugin_objs))
            continue
        path = Path(target)
        if path.is_dir():
            files = sorted(path.rglob("*.s")) + sorted(path.rglob("*.json"))
            if not files:
                print(f"{target}: no .s or .json files found",
                      file=sys.stderr)
                return 2
            for f in files:
                if f.suffix == ".json":
                    found.extend(_lint_plugin_set_file(f))
                else:
                    found.extend(_lint_asm_file(f))
        elif path.is_file():
            if path.suffix == ".json":
                found.extend(_lint_plugin_set_file(path))
            else:
                found.extend(_lint_asm_file(path))
        else:
            print(f"unknown plugin or path: {target}", file=sys.stderr)
            return 2

    if args.targets and len(plugin_objs) >= 2:
        # Explicitly linting several plugins at once also checks them
        # *against each other*: a set meant to attach together must stay
        # free of hard conflicts.  (The no-argument form lints each
        # bundled plugin individually — the builtin list contains
        # mutually-exclusive variants, e.g. the three FEC schemes, that
        # all replace the same protoops by design.)
        from repro.core.api import FIELD_NAMES, HELPER_EFFECTS
        from repro.vm.analysis import check_plugin_set, summarize_plugin

        effects = [summarize_plugin(p, HELPER_EFFECTS) for p in plugin_objs]
        found.extend(("cross-plugin", d)
                     for d in check_plugin_set(effects, FIELD_NAMES))

    from repro.vm.analysis import Severity

    errors = warnings = 0
    for target, diag in found:
        if diag.severity is Severity.ERROR:
            errors += 1
        elif diag.severity is Severity.WARNING:
            warnings += 1
        if diag.severity is Severity.WARNING and args.quiet:
            continue
        print(f"{target}: {diag.format()}")
    print(f"{len(targets)} target(s): {errors} error(s), "
          f"{warnings} warning(s)")
    if errors:
        return 1
    if warnings and args.strict:
        return 1
    return 0


def cmd_conform(args) -> int:
    from pathlib import Path

    from repro import conformance as conf

    if args.list:
        for name in sorted(conf.SUITES):
            scenarios = conf.load_suite(name)
            print(f"{name}: {len(scenarios)} scenario(s): "
                  f"{', '.join(s.name for s in scenarios)}")
        return 0

    try:
        modes = conf.parse_modes(args.modes) if args.modes else conf.ALL_MODES
    except ValueError as exc:
        print(f"conform: {exc}", file=sys.stderr)
        return 2

    if args.repro:
        try:
            scenario, saved_modes = conf.load_repro(args.repro)
        except (OSError, ValueError, KeyError) as exc:
            print(f"conform: cannot load repro {args.repro}: {exc}",
                  file=sys.stderr)
            return 2
        if not args.modes:
            modes = saved_modes
        scenarios = [scenario]
    elif args.cases:
        scenarios = conf.random_scenarios(args.seed, args.cases)
    elif args.suite:
        try:
            scenarios = conf.load_suite(args.suite)
        except ValueError as exc:
            print(f"conform: {exc}", file=sys.stderr)
            return 2
    else:
        print("conform: pick one of --suite, --cases, --repro or --list",
              file=sys.stderr)
        return 2

    failed = 0
    out_dir = Path(args.out)
    for scenario in scenarios:
        verdict = conf.run_conformance(scenario, modes)
        if verdict.passed:
            print(f"ok    {scenario.name}  "
                  f"({verdict.runs} runs across {len(modes)} modes)")
            continue
        failed += 1
        print(f"FAIL  {scenario.name}  "
              f"({len(verdict.failures)} oracle failure(s))")
        for failure in verdict.failures[:args.max_failures]:
            print(f"      {failure.format()}")
        if len(verdict.failures) > args.max_failures:
            print(f"      ... {len(verdict.failures) - args.max_failures} more")
        if args.no_shrink:
            continue
        result = conf.shrink(scenario, modes)
        minimal = result.minimal
        print(f"      shrunk to {len(minimal.faults)} fault event(s), "
              f"{minimal.workload.size} bytes, plugins "
              f"{list(minimal.plugins)} in {result.evaluations} runs")
        path = out_dir / f"{scenario.name}.repro.json"
        conf.save_repro(path, minimal, modes, result.failures or
                        verdict.failures,
                        note=f"shrunk from scenario {scenario.name!r}")
        print(f"      repro written to {path}")

    total = len(scenarios)
    print(f"{total - failed}/{total} scenario(s) pass "
          f"({len(modes)}-mode matrix)")
    return 1 if failed else 0


def cmd_trace(args) -> int:
    from repro.conformance import run_transfer
    from repro.trace import ConnectionTracer, JsonlTraceWriter, PreProfiler

    writer = JsonlTraceWriter(args.jsonl) if args.jsonl else None
    tracers = []

    def observe(conn, side):
        if side != "client":
            return
        if args.plugins:
            PreProfiler().attach(conn)  # profile rows join the trace
        tracers.append(ConnectionTracer(conn, max_events=args.max_events,
                                        writer=writer,
                                        validate=args.validate))

    run = run_transfer(_scenario(args, "upload", args.plugins),
                       observe=observe)
    tracer = tracers[0]
    tracer.finish()
    if args.jsonl:
        dropped = f" ({tracer.dropped} dropped)" if tracer.dropped else ""
        print(f"wrote {len(tracer.events)} events to {args.jsonl}{dropped}")
    else:
        print(tracer.to_json())
    if not run.completed:
        print("handshake did not complete" if not run.established
              else "transfer did not complete", file=sys.stderr)
        return 1
    return 0


def cmd_profile(args) -> int:
    from repro.conformance import run_transfer
    from repro.trace import PreProfiler

    profiler = PreProfiler()
    run = run_transfer(_scenario(args, "bulk", args.plugins),
                       observe=lambda conn, side: profiler.attach(conn))
    if not run.completed:
        print("transfer did not complete", file=sys.stderr)
        return 1
    print(f"transferred {args.size} bytes in {run.dct:.3f}s with "
          f"plugins: {', '.join(args.plugins) or '(none)'}")
    print()
    print(profiler.format_table(max_rows=args.top))
    runs = profiler.protoop_runs()
    if runs:
        total = sum(runs.values())
        print(f"\nhost protoop dispatches: {total} across "
              f"{len(runs)} operations (top 5:")
        for name, count in sorted(runs.items(), key=lambda kv: -kv[1])[:5]:
            print(f"  {name:<32} {count}")
        print(")")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Pluginized QUIC reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="run an example scenario")
    p.add_argument("name", nargs="?", default="quickstart",
                   choices=["quickstart", "vpn_tunnel", "multipath_fec",
                            "plugin_exchange", "custom_plugin"])
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("transfer", help="one PQUIC transfer with plugins")
    p.add_argument("--size", type=int, default=1_000_000)
    p.add_argument("--delay", type=float, default=10.0, help="one-way ms")
    p.add_argument("--bandwidth", type=float, default=20.0, help="Mbps")
    p.add_argument("--loss", type=float, default=0.0, help="percent")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--plugins", nargs="*", default=[],
                   choices=BUNDLED_PLUGINS)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("vpn", help="TCP in/out of the PQUIC tunnel")
    p.add_argument("--size", type=int, default=1_000_000)
    p.add_argument("--delay", type=float, default=10.0)
    p.add_argument("--bandwidth", type=float, default=20.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--multipath", action="store_true")
    p.set_defaults(func=cmd_vpn)

    p = sub.add_parser("protoops", help="list protocol operations")
    p.set_defaults(func=cmd_protoops)

    p = sub.add_parser("inspect", help="analyze a built-in plugin")
    p.add_argument("plugin", choices=BUNDLED_PLUGINS)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("lint",
                       help="static-analyze plugins or .s bytecode files")
    p.add_argument("targets", nargs="*",
                   help="built-in plugin names, .s files or directories "
                        "(default: every built-in plugin)")
    p.add_argument("--strict", action="store_true",
                   help="treat warnings as errors")
    p.add_argument("--quiet", action="store_true",
                   help="print errors only")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "conform",
        help="JIT vs interpreter differential conformance sweeps")
    p.add_argument("--suite", metavar="NAME",
                   help="run a named suite (see --list)")
    p.add_argument("--cases", type=int, metavar="N",
                   help="run N seeded random scenarios instead of a suite")
    p.add_argument("--seed", type=int, default=1,
                   help="seed for --cases sweeps")
    p.add_argument("--repro", metavar="PATH",
                   help="replay a saved repro file")
    p.add_argument("--modes", metavar="LIST",
                   help="comma-separated mode names, J1 (JIT) and/or J0 "
                        "(interpreter); default: both")
    p.add_argument("--no-shrink", action="store_true",
                   help="report failures without delta-debugging them")
    p.add_argument("--out", default="conformance-repros",
                   help="directory for shrunken repro files")
    p.add_argument("--max-failures", type=int, default=5,
                   help="oracle failures printed per scenario")
    p.add_argument("--list", action="store_true",
                   help="list the available suites")
    p.set_defaults(func=cmd_conform)

    p = sub.add_parser("trace", help="qlog-style trace of a transfer")
    p.add_argument("--size", type=int, default=50_000)
    p.add_argument("--delay", type=float, default=10.0)
    p.add_argument("--bandwidth", type=float, default=20.0)
    p.add_argument("--loss", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--plugins", nargs="*", default=[],
                   choices=BUNDLED_PLUGINS)
    p.add_argument("--jsonl", metavar="PATH",
                   help="stream events to PATH as JSONL instead of "
                        "printing a qlog document")
    p.add_argument("--validate", action="store_true",
                   help="schema-validate every event as it is recorded")
    p.add_argument("--max-events", type=int, default=100_000)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("profile",
                       help="per-pluglet PRE cost attribution for a transfer")
    p.add_argument("--size", type=int, default=200_000)
    p.add_argument("--delay", type=float, default=10.0)
    p.add_argument("--bandwidth", type=float, default=20.0)
    p.add_argument("--loss", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--plugins", nargs="*",
                   default=["monitoring", "fec-xor"],
                   choices=BUNDLED_PLUGINS)
    p.add_argument("--top", type=int, default=None,
                   help="show only the N costliest rows")
    p.set_defaults(func=cmd_profile)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        import os

        try:
            sys.stdout.close()
        except Exception:
            os._exit(0)
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
